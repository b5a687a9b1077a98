"""The Newton stopping rule: a gradient test relative to the cost's data
scale, so that a run's status and length do not depend on the units of A.

Regression tests pin two runs that stalled at round-off above an absolute
threshold and ended ``MaxIters``; property tests check that a run on
2^j A, j in [-1000, 1000], is the run on A bit for bit, with its values
and gradient norms in 2^j A's units, that status and iteration count
survive A -> Q A Q^T, and that the final frames are projectors
(Lagrangian ones on the Lagrange Grassmannian)."""

import sys

import numpy as np
import pytest

from projnewton.config import TOL
from projnewton.costs import (
    CostFunction,
    HamiltonianRayleighCost,
    InvariantSubspaceCost,
    RayleighCost,
)
from projnewton.errors import ScaleOverflow
from projnewton.grassmann import CHART_NAMES, OrthoFrame
from projnewton.lagrange import SymplecticFrame, sympl_form
from projnewton.newton import NewtonConfig, Status, perturb_frame, run_newton

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

START_DISTANCE = 0.05


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _orthosymplectic(rng, n):
    """[[X, -Y], [Y, X]] from a random unitary X + iY (complex QR)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, r = np.linalg.qr(z)
    u = u * (np.diag(r) / np.abs(np.diag(r)))
    return np.block([[u.real, -u.imag], [u.imag, u.real]])


def _eigspace_problem(n, m, c, seed):
    """A = c Q diag(2n, ..., n+1) Q^T and the frame of its dominant
    m-dimensional eigenspace (the benchmark's rayleigh-gr spectrum)."""
    q = _orthogonal(np.random.default_rng(seed), n)
    a = (q * (c * np.arange(2.0 * n, n, -1.0))) @ q.T
    return 0.5 * (a + a.T), OrthoFrame(q.T, m)


def _iterations(trace):
    return len(trace.records) - 1


def _in_units_of_a(cost, x):
    """A number in the cost's units, ``x``, in A's: x 2^units."""
    return float(np.ldexp(x, cost.units))


class TestScale:
    """A cost's scale is that of A_n = A 2^-e, max|A_n| in [1/2, 1): ||A_n||_F,
    or ||A_n||_F^2 for the invariant cost, and 2^units takes it to A's units."""

    def test_trace_costs_scale_with_the_norm_of_a(self, rng):
        a = rng.standard_normal((4, 4))
        a = a + a.T
        cost = RayleighCost(a)
        assert 0.5 <= np.abs(cost.a_n).max() < 1.0
        assert cost.units == np.frexp(np.abs(a).max())[1]
        assert _in_units_of_a(cost, cost.scale) == pytest.approx(np.linalg.norm(a), rel=1e-15)
        h = HamiltonianRayleighCost.from_blocks(a[:2, :2], a[2:, 2:])
        assert _in_units_of_a(h, h.scale) == pytest.approx(np.linalg.norm(h.h), rel=1e-15)

    def test_invariant_cost_scales_with_the_squared_norm(self, rng):
        a = rng.standard_normal((5, 5))
        cost = InvariantSubspaceCost(a)
        assert cost.units == 2 * np.frexp(np.abs(a).max())[1]
        assert _in_units_of_a(cost, cost.scale) == pytest.approx(np.sum(a * a), rel=1e-14)

    def test_trace_cost_scale_survives_huge_entries(self, rng):
        # ||A||_F^2 overflows above ~1.3e154, ||A_n||_F^2 never does; the scale
        # in A's units keeps the bits of ||A||_F where that does not overflow
        a = rng.standard_normal((4, 4))
        a = a + a.T
        for c in (1e150, 1e160, 1e300):
            cost = RayleighCost(c * a)
            assert _in_units_of_a(cost, cost.scale) == pytest.approx(c * np.linalg.norm(a), rel=1e-15)
            h = HamiltonianRayleighCost.from_blocks(c * a[:2, :2], c * a[2:, 2:])
            assert _in_units_of_a(h, h.scale) == pytest.approx(c * np.linalg.norm(h.h / c), rel=1e-15)
        cost = RayleighCost(1e150 * a)
        assert _in_units_of_a(cost, cost.scale) == float(np.linalg.norm(1e150 * a))

    def test_invariant_cost_rejects_an_overflowing_scale(self, rng):
        a = rng.standard_normal((4, 4))
        InvariantSubspaceCost(1e150 * a)
        with pytest.raises(ScaleOverflow, match="cost data scale is inf"):
            InvariantSubspaceCost(1e160 * a)

    @pytest.mark.parametrize("nu", CHART_NAMES)
    @pytest.mark.parametrize("lagrangian", [False, True], ids=["gr", "lg"])
    def test_huge_entries_keep_status_and_length(self, lagrangian, nu):
        if lagrangian:
            q = _orthosymplectic(np.random.default_rng(5), 3)
            s = np.diag([3.0, 2.0, -1.0])
            a = q @ np.block([[s, np.zeros((3, 3))], [np.zeros((3, 3)), -s]]) @ q.T
            a = 0.5 * (a + a.T)
            planted = SymplecticFrame(q.T)
        else:
            a, planted = _eigspace_problem(6, 2, 1.0, 5)
        start = perturb_frame(planted, START_DISTANCE, 1)
        runs = []
        for c in (1.0, 1e160):
            cost = HamiltonianRayleighCost(c * a) if lagrangian else RayleighCost(c * a)
            runs.append(run_newton(cost, start, NewtonConfig(nu=nu)))
        assert runs[0].status == runs[1].status == Status.CONVERGED
        assert _iterations(runs[1]) == _iterations(runs[0])

    def test_fallback_test_is_absolute(self):
        assert (CostFunction.scale, CostFunction.units) == (1.0, 0)

    def test_defaults_live_in_the_tolerances(self):
        config = NewtonConfig()
        assert config.grad_tol == TOL.grad_tol


def test_tiny_units_keep_status_and_length():
    # an instance like the benchmark's invariant grid at (16, 6): block
    # upper-triangular T times 0.05, started 0.05 from its invariant subspace.
    # On A it converges in 3 iterations.  On A 2^-300 it stopped at Converged
    # after 0, certified by "cholesky", while its gradient's sum of squares
    # underflowed to 0.0; the cost's A_n is the same on both
    rng = np.random.default_rng(16)
    n, m = 16, 6
    t = 0.3 * np.triu(rng.standard_normal((n, n)), 1)
    t[m:, :m] = 0.0
    t += np.diag(np.concatenate([np.linspace(3.0, 2.0, m), np.linspace(1.0, -1.0, n - m)]))
    q = _orthogonal(rng, n)
    a = 0.05 * (q @ t @ q.T)
    start = perturb_frame(OrthoFrame(q.T, m), START_DISTANCE, 16)
    runs = [run_newton(InvariantSubspaceCost(c * a), start, NewtonConfig(), method="invariant-direct")
            for c in (1.0, 2.0**-300)]
    assert runs[0].status == Status.CONVERGED and _iterations(runs[0]) >= 2
    assert (runs[1].status, _iterations(runs[1])) == (runs[0].status, _iterations(runs[0]))


class TestRoundOffStall:
    """Runs whose gradient settled at round-off above the absolute 1e-12."""

    @pytest.mark.parametrize("nu", CHART_NAMES)
    @pytest.mark.parametrize("seed", range(3))
    def test_scaled_eigspace_converges(self, seed, nu):
        # the benchmark's c = 1e3 problem: ||A|| = 4e4, gradient floor ~1e-11
        a, planted = _eigspace_problem(10, 2, 1e3, 3)
        start = perturb_frame(planted, START_DISTANCE, seed)
        trace = run_newton(RayleighCost(a), start, NewtonConfig(nu=nu))
        assert trace.status == Status.CONVERGED
        assert _iterations(trace) <= 3

    def test_large_unscaled_eigspace_converges(self):
        # n = 400, m = 10, spectrum 800 ... 401: the gradient floor is 3e-12
        a, planted = _eigspace_problem(400, 10, 1.0, 4)
        start = perturb_frame(planted, START_DISTANCE, 0)
        trace = run_newton(RayleighCost(a), start, NewtonConfig(max_iters=4))
        assert trace.status == Status.CONVERGED


# -- property tests -------------------------------------------------------

METHODS = ("rayleigh-gr", "rayleigh-lg", "invariant-direct")


@st.composite
def problems(draw, method):
    """(matrix, start frame, rotation) for a well-separated problem of the
    method, started 0.05 from its solution; the rotation keeps the
    manifold (orthogonal-symplectic on the Lagrange Grassmannian)."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if method == "rayleigh-lg":
        n = draw(st.integers(2, 5))
        u = _orthosymplectic(rng, n)
        lam = np.sort(rng.uniform(1.0, 3.0, n))[::-1]
        a = (u * np.concatenate([lam, -lam])) @ u.T
        planted = SymplecticFrame(u.T)
        rotation = _orthosymplectic(rng, n)
    else:
        n = draw(st.integers(4, 10))
        m = draw(st.integers(1, n - 1))
        q = _orthogonal(rng, n)
        top, rest = rng.uniform(2.0, 3.0, m), rng.uniform(-1.0, 1.0, n - m)
        if method == "rayleigh-gr":
            a = (q * np.concatenate([top, rest])) @ q.T
        else:
            t = 0.3 * np.triu(rng.standard_normal((n, n)), 1)
            t += np.diag(np.concatenate([top, rest]))
            a = q @ t @ q.T
        planted = OrthoFrame(q.T, m)
        rotation = _orthogonal(rng, n)
    start = perturb_frame(planted, START_DISTANCE, seed)
    return a, start, rotation


def _cost(method, a):
    if method == "rayleigh-lg":
        return HamiltonianRayleighCost(0.5 * (a + a.T))
    if method == "rayleigh-gr":
        return RayleighCost(0.5 * (a + a.T))
    return InvariantSubspaceCost(a)


def _rotated(frame, q):
    theta = frame.theta @ q.T
    if isinstance(frame, SymplecticFrame):
        return SymplecticFrame(theta)
    return OrthoFrame(theta, frame.rank)


def _scaled_exactly(x, k):
    """x 2^k where x and x 2^k are normal floats or zero (so exact), else None."""
    with np.errstate(over="ignore"):
        y = float(np.ldexp(x, k))
    normal = [v == 0.0 or sys.float_info.min <= abs(v) < np.inf for v in (x, y)]
    return y if all(normal) else None


@pytest.mark.parametrize("nu", CHART_NAMES)
@pytest.mark.parametrize("method", METHODS)
@hypothesis.given(data=st.data())
def test_status_ignores_units_and_rotations(method, nu, data):
    a, start, q = data.draw(problems(method))
    j = data.draw(st.integers(-1000, 1000), label="j")
    config = NewtonConfig(nu=nu)

    def run(mat, frame):
        trace = run_newton(_cost(method, mat), frame, config, method=method)
        return trace.status, _iterations(trace), trace.extras.get("certified_by"), trace

    # nor do they change which path certified the run: the trace costs'
    # bound, or the invariant cost's Cholesky factorization
    status, iters, path, trace = run(a, start)
    assert status == Status.CONVERGED
    assert path == ("cholesky" if method.startswith("invariant") else "bound")
    for c in (1e-3, 1e3):
        assert run(c * a, start)[:3] == (status, iters, path), f"A -> {c:g} A"
    assert run(q @ a @ q.T, _rotated(start, q))[:3] == (status, iters, path), "A -> Q A Q^T"

    p = trace.extras["final_frame"].projector().mat
    assert np.abs(p @ p - p).max() <= TOL.projector
    assert abs(np.trace(p) - start.rank) <= TOL.projector
    if method == "rayleigh-lg":
        assert np.abs(p @ sympl_form(start.rank) @ p).max() <= TOL.lagrangian
        assert max(trace.extras["symplecticity_residuals"]) <= TOL.lagrangian

    # 2^j A, and half of it, are exact while its nonzero entries are finite and at
    # least twice the least normal float; the costs then read the same A_n
    scaled = np.ldexp(a, j)
    hypothesis.assume(np.isfinite(scaled).all() and
                      np.all(np.abs(scaled[a != 0]) >= 2 * sys.float_info.min))
    power = 2 if method.startswith("invariant") else 1
    with np.errstate(over="ignore"):
        overflows = power == 2 and np.ldexp(np.sum(a * a), 2 * j) == np.inf
    if overflows:  # ||2^j A||_F^2 is not a float
        with pytest.raises(ScaleOverflow, match="cost data scale is inf"):
            run(scaled, start)
        return
    *outcome, other = run(scaled, start)
    assert outcome == [status, iters, path], f"A -> 2^{j} A"
    assert other.extras["final_frame"].theta.tobytes() == trace.extras["final_frame"].theta.tobytes()
    for record, unit in zip(other.records, trace.records):
        for got, want in ((record.cost, unit.cost), (record.grad_norm, unit.grad_norm)):
            expected = _scaled_exactly(want, power * j)
            assert expected is None or got == expected, f"{got!r} is not {want!r} 2^{power * j}"
