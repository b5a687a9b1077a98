"""Certifying ``Converged`` from the last Newton solve's separation.

``CostFunction.separation_bound`` moves the separation a Newton solve
measured to the next iterate, by the change of the blocks of B in between;
``run_newton`` certifies a critical point with it when the bound clears
the solver's floor, and solves one more Newton system otherwise.  The
property test checks that no bound exceeds the separation a solve measures
at the same iterate; the fallback tests check that the solve still runs,
and still fails, where no bound certifies."""

import numpy as np
import pytest

from projnewton.config import TOL
from projnewton.costs import HamiltonianRayleighCost, InvariantSubspaceCost, RayleighCost
from projnewton.decomp import frobenius_norm, symmetrize
from projnewton.errors import SpectralOverlap
from projnewton.grassmann import CHART_NAMES, OrthoFrame, push_frame
from projnewton.lagrange import SymplecticFrame, sympl_form
from projnewton.newton import NewtonConfig, Status, perturb_frame, run_newton
from projnewton.solvers import (
    four_term_floor,
    invariant_newton_operator,
    separation_floor,
    solve_lyapunov_unchecked,
    solve_sylvester_unchecked,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# rayleigh-lg-general: the trace cost of a symmetric A that is not
# Hamiltonian, on the Lagrange Grassmannian (Algorithm 2 in (B11 - B22) / 2)
METHODS = ("rayleigh-gr", "rayleigh-lg", "rayleigh-lg-general", "invariant-direct")


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _orthosymplectic(rng, n):
    """[[X, -Y], [Y, X]] from a random unitary X + iY (complex QR)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, r = np.linalg.qr(z)
    u = u * (np.diag(r) / np.abs(np.diag(r)))
    return np.block([[u.real, -u.imag], [u.imag, u.real]])


def _planted_triangular(rng, n, m, scale):
    """Q and T for A = Q T Q^T: T upper triangular, with m eigenvalues in
    [2, 3] and n - m in [-1, 1] on its diagonal, times ``scale``, and 0.3
    ``scale`` N(0, 1) above it.  The leading m rows of Q^T span an
    A-invariant subspace."""
    q = _orthogonal(rng, n)
    spectrum = scale * np.concatenate([rng.uniform(2.0, 3.0, m), rng.uniform(-1.0, 1.0, n - m)])
    return q, 0.3 * scale * np.triu(rng.standard_normal((n, n)), 1) + np.diag(spectrum)


def _basin_measure(t, m, distance):
    """distance ||T12||_2 ||T||_2 / gap^2, gap the eigenvalue gap between the
    leading m diagonal entries of T and the rest.  Newton's iterates contract
    as ||B21|| ||B12|| / sep^2 (Stewart 1973), and a start ``distance`` away
    has ||B21|| up to about distance ||T||, ||B12|| about ||T12||."""
    diag = np.diag(t)
    gap = diag[:m].min() - diag[m:].max()
    return distance * np.linalg.norm(t[:m, m:], 2) * np.linalg.norm(t, 2) / gap**2


# well inside Newton's basin; the start of
# test_start_outside_the_basin_certifies_a_point_that_is_not_invariant
# measures 0.24 and converges to a critical point that is not the planted one
BASIN = 0.1


@st.composite
def problems(draw, method):
    """(cost, start) for a well-separated problem of the method, its
    spectrum scaled by 1e-3 to 1e3, started 0.01 to 0.3 from its solution,
    and for invariant-direct inside the basin (``_basin_measure`` at most
    ``BASIN``).  rayleigh-lg-general adds to H a symmetric K with J K J = -K,
    as large: tr(K P) = tr(K) / 2 on every Lagrangian P, so the solution stays."""
    seed = draw(st.integers(0, 2**32 - 1))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    distance = draw(st.floats(0.01, 0.3))
    rng = np.random.default_rng(seed)
    if method.startswith("rayleigh-lg"):
        n = draw(st.integers(2, 5))
        u = _orthosymplectic(rng, n)
        lam = scale * np.sort(rng.uniform(1.0, 3.0, n))[::-1]
        h = (u * np.concatenate([lam, -lam])) @ u.T
        cost, planted = HamiltonianRayleighCost(0.5 * (h + h.T)), SymplecticFrame(u.T)
        if method == "rayleigh-lg-general":
            x, j = scale * rng.standard_normal((2 * n, 2 * n)), sympl_form(n)
            cost = RayleighCost(cost.h + 0.5 * (x + x.T - j @ (x + x.T) @ j))
    else:
        n = draw(st.integers(4, 10))
        m = draw(st.integers(1, n - 1))
        q, t = _planted_triangular(rng, n, m, scale)
        if method == "rayleigh-gr":
            a = (q * np.diag(t)) @ q.T
            cost = RayleighCost(0.5 * (a + a.T))
        else:
            hypothesis.assume(_basin_measure(t, m, distance) <= BASIN)
            cost = InvariantSubspaceCost(q @ t @ q.T)
        planted = OrthoFrame(q.T, m)
    return cost, perturb_frame(planted, distance, seed)


def _trace_problem(method, seed):
    """(trace cost, start 0.1 from its solution) of a fixed well-separated problem."""
    rng = np.random.default_rng(seed)
    if method == "rayleigh-gr":
        q = _orthogonal(rng, 7)
        a = (q * np.arange(7.0, 0.0, -1.0)) @ q.T
        return RayleighCost(0.5 * (a + a.T)), perturb_frame(OrthoFrame(q.T, 3), 0.1, seed)
    u = _orthosymplectic(rng, 3)
    lam = np.array([3.0, 2.0, 1.0])
    h = (u * np.concatenate([lam, -lam])) @ u.T
    cost = HamiltonianRayleighCost(0.5 * (h + h.T))
    if method == "rayleigh-lg-general":
        x, j = rng.standard_normal((6, 6)), sympl_form(3)
        cost = RayleighCost(cost.h + 0.5 * (x + x.T - j @ (x + x.T) @ j))
    return cost, perturb_frame(SymplecticFrame(u.T), 0.1, seed)


@pytest.mark.parametrize("nu", CHART_NAMES)
@pytest.mark.parametrize("method", METHODS)
@hypothesis.given(data=st.data())
def test_bound_never_exceeds_the_measured_separation(method, nu, data):
    # the Newton iteration by hand, with a solve at every iterate: the
    # bound from the solve before is held to the separation this one measures
    cost, frame = data.draw(problems(method))
    grad_tol = NewtonConfig().grad_tol * cost.scale
    last, bounds = None, 0
    for _ in range(10):
        _, grad, b = cost.frame_terms(frame)
        z, separation = cost.newton_solve(frame, b)
        if last is not None:
            bound, floor = cost.separation_bound(frame, b, *last)
            assert bound <= separation, f"bound {bound:.17e} > separation {separation:.17e}"
            assert floor > 0.0
            bounds += 1
        if np.sqrt(2.0) * np.linalg.norm(grad) <= grad_tol:
            break
        last = (b, separation)
        frame = push_frame(frame, z, nu)
    else:
        pytest.fail("no critical point within 10 steps")
    # at the critical point the bound certifies, as run_newton finds
    assert bounds >= 1 and bound > floor


def test_start_outside_the_basin_certifies_a_point_that_is_not_invariant():
    # 0.3 from this planted subspace (basin measure 0.24) both method names
    # run the one direct solve and end Converged, certified by the bound, at a
    # nondegenerate critical point of ||(I - P) A P||^2 that is no invariant
    # subspace: the residual ||B21|| is 0.898, 28% of ||A||_F, and B11 = 1.610
    # is no eigenvalue of A.  Converged certifies a critical point, not an answer
    rng = np.random.default_rng(2274029156)
    q, t = _planted_triangular(rng, 6, 1, 1.0)
    assert _basin_measure(t, 1, 0.3) > 2.0 * BASIN
    a = q @ t @ q.T
    start = perturb_frame(OrthoFrame(q.T, 1), 0.3, 2274029156)
    for method in ("invariant-direct", "invariant-recursive"):
        trace = run_newton(InvariantSubspaceCost(a), start, NewtonConfig(), method=method)
        assert trace.status == Status.CONVERGED
        assert trace.extras["certified_by"] == "bound"
        residual = trace.extras["invariance_residuals"][-1]
        assert abs(residual - 0.898) <= 1e-3
        assert 0.28 <= residual / np.linalg.norm(a) <= 0.29
        final = trace.extras["final_frame"].theta
        b11 = (final @ a @ final.T)[0, 0]
        assert np.abs(np.linalg.eigvals(a) - b11).min() >= 0.5


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("m,k", [(1, 1), (1, 6), (6, 1), (2, 5), (4, 4)])
@pytest.mark.parametrize("kind", ["random", "near-rank-one", "near-diagonal"])
def test_a_certifying_bound_is_confirmed_by_the_next_solve(kind, m, k, scale):
    # two frames of one A, any rotation apart and not only a Newton step: the
    # invariant cost's bound from the solve at the first never exceeds the
    # separation the solve at the second measures, nor does the Banach lemma
    # |sep' - sep| <= ||L' - L||_1 behind it fail, near-singular L included
    gen = np.random.default_rng([m, k, len(kind), round(np.log10(scale)) + 3])
    n, d = m + k, m * k
    certified = 0
    for _ in range(40):
        if kind == "random":
            a = gen.standard_normal((n, n))
        elif kind == "near-rank-one":
            a = np.outer(gen.standard_normal(n), gen.standard_normal(n)) + 1e-3 * gen.standard_normal((n, n))
        else:
            a = np.diag(gen.standard_normal(n)) + 1e-3 * gen.standard_normal((n, n))
        cost = InvariantSubspaceCost(scale * a)
        frame = OrthoFrame(_orthogonal(gen, n), m)
        turn = 10.0 ** gen.uniform(-12.0, 0.0) * gen.standard_normal((n, n))
        q, r = np.linalg.qr(np.eye(n) + turn)
        moved = OrthoFrame((q * np.sign(np.diag(r))) @ frame.theta, m)
        b, b_moved = cost.frame_terms(frame)[2], cost.frame_terms(moved)[2]
        separation = cost.newton_solve(frame, b)[1]
        bound, floor = cost.separation_bound(moved, b_moved, b, separation)
        assert floor == four_term_floor(m, k, cost.scale)
        measured = cost.newton_solve(moved, b_moved)[1]
        assert bound <= measured, f"bound {bound:.17e} > separation {measured:.17e}"
        ops = [invariant_newton_operator(x[:m, :m], x[:m, m:], x[m:, :m], x[m:, m:]) for x in (b, b_moved)]
        change = np.linalg.norm(ops[1] - ops[0], 1)
        assert abs(measured - separation) <= change + TOL.separation_roundoff * d * 3.0 * np.sqrt(d) * cost.scale
        certified += bound > floor
    # small turns certify, large ones do not
    assert 1 <= certified < 40


def _gapped_rayleigh(seed=3, n=7, m=2):
    q = _orthogonal(np.random.default_rng(seed), n)
    a = (q * np.arange(2.0 * n, n, -1.0)) @ q.T
    return RayleighCost(0.5 * (a + a.T)), OrthoFrame(q.T, m)


def _degenerate_problem(method):
    """A cost with a degenerate critical point, and a start one Newton step
    from it.  Grassmann (m = 1): A = diag(2, 1, 1), whose line e2 is
    critical and degenerate, as B22 keeps the eigenvalue 1 of e3; the start
    is turned 1.5e-4 from it towards e1.  Lagrange: H = diag(S, -S) with
    S = diag(2, 1, 1), whose Lagrangian span(e1, e2, e6) is critical with
    B11 eigenvalues 2, 1, -1, and 1 + (-1) = 0; the start is pushed along
    Z = 1e-4 (E01 + E10)."""
    if method == "rayleigh-lg":
        e = np.eye(6)
        planted = SymplecticFrame(e[[0, 1, 5, 3, 4, 2]] * [[1], [1], [1], [1], [1], [-1]])
        z = np.zeros((3, 3))
        z[0, 1] = z[1, 0] = 1e-4
        cost = HamiltonianRayleighCost.from_blocks(np.diag([2.0, 1.0, 1.0]), np.zeros((3, 3)))
        return cost, push_frame(planted, z, "exp")
    t = 1.5e-4
    theta = np.array([[np.sin(t), np.cos(t), 0.0], [np.cos(t), -np.sin(t), 0.0], [0, 0, 1]])
    cost_type = RayleighCost if method == "rayleigh-gr" else InvariantSubspaceCost
    return cost_type(np.diag([2.0, 1.0, 1.0])), OrthoFrame(theta, 1)


class _CountingRayleigh(RayleighCost):
    """The trace cost, counting its Newton solves; ``separation`` replaces
    the one each solve measured, when given."""

    def __init__(self, a, separation=None):
        super().__init__(a)
        object.__setattr__(self, "solves", [])
        object.__setattr__(self, "forced", separation)

    def newton_solve(self, frame, b=None):
        z, separation = super().newton_solve(frame, b)
        self.solves.append(separation)
        return z, separation if self.forced is None else self.forced


class TestFallback:
    def test_converged_run_solves_once_per_step(self):
        cost, planted = _gapped_rayleigh()
        counting = _CountingRayleigh(cost.a)
        trace = run_newton(counting, perturb_frame(planted, 0.05, 1), NewtonConfig())
        assert trace.status == Status.CONVERGED
        assert trace.extras["certified_by"] == "bound"
        assert len(counting.solves) == len(trace.records) - 1

    def test_critical_start_solves_once(self):
        cost, planted = _gapped_rayleigh()
        counting = _CountingRayleigh(cost.a)
        trace = run_newton(counting, planted, NewtonConfig())
        assert trace.status == Status.CONVERGED
        assert len(trace.records) == 1
        assert trace.extras["certified_by"] == "solve"
        assert len(counting.solves) == 1

    def test_zero_separation_falls_back_to_the_solve(self):
        cost, planted = _gapped_rayleigh()
        start = perturb_frame(planted, 0.05, 1)
        counting = _CountingRayleigh(cost.a, separation=0.0)
        trace = run_newton(counting, start, NewtonConfig())
        assert trace.status == Status.CONVERGED
        assert trace.extras["certified_by"] == "solve"
        assert len(counting.solves) == len(trace.records)
        # the same run as with the measured separations, bit for bit
        plain = run_newton(cost, start, NewtonConfig())
        assert [r.grad_norm for r in trace.records] == [r.grad_norm for r in plain.records]
        assert np.array_equal(trace.extras["final_frame"].theta,
                              plain.extras["final_frame"].theta)

    @pytest.mark.parametrize("nu", CHART_NAMES)
    @pytest.mark.parametrize("method, status", [
        ("rayleigh-gr", Status.SPECTRAL_OVERLAP),
        ("rayleigh-lg", Status.SPECTRAL_OVERLAP),
        ("invariant-direct", Status.SINGULAR_HESSIAN),
    ])
    def test_degenerate_final_point_fails_through_the_solve(self, method, status, nu):
        # one step, whose solve still measures a gap above the floor, reaches
        # the gradient tolerance at a point whose gap is round-off: the bound
        # from that step must not clear the floor, and the solve fails
        cost, start = _degenerate_problem(method)
        trace = run_newton(cost, start, NewtonConfig(nu=nu), method=method)
        assert trace.status == status
        assert len(trace.records) == 2
        assert trace.records[-1].grad_norm <= NewtonConfig().grad_tol * cost.scale
        assert "certified_by" not in trace.extras

    def test_tiny_step_is_recorded(self):
        # with no reachable gradient tolerance the run stops on a step below
        # step_tol, which certifies nothing beyond the solve that made it
        cost, planted = _gapped_rayleigh()
        trace = run_newton(cost, perturb_frame(planted, 0.05, 1), NewtonConfig(grad_tol=1e-300))
        assert trace.status == Status.CONVERGED
        assert trace.records[-2].step_norm <= TOL.step_tol
        assert trace.extras["certified_by"] == "step"


class TestSeparationFloor:
    """The bounds clear the floor the Newton solve would enforce: the trace
    cost's reads ``solvers.separation_floor`` of the blocks its solve sees, the
    invariant cost's ``solvers.four_term_floor``, at least the singularity test
    of the operator the direct solve inverts."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("method", ["rayleigh-gr", "rayleigh-lg", "invariant-direct"])
    def test_bound_floor_is_the_floor_of_the_solves_blocks(self, method, scale):
        rng = np.random.default_rng(round(np.log10(scale)) + 7)
        for n in (3, 4, 6):
            if method == "rayleigh-lg":
                x = scale * rng.standard_normal((2 * n, 2 * n))
                cost = RayleighCost(0.5 * (x + x.T))
                frame, last = (SymplecticFrame(_orthosymplectic(rng, n).T) for _ in range(2))
                m = n
            else:
                m = n // 2
                x = scale * rng.standard_normal((n, n))
                cost = (RayleighCost(0.5 * (x + x.T)) if method == "rayleigh-gr"
                        else InvariantSubspaceCost(x))
                frame, last = (OrthoFrame(_orthogonal(rng, n), m) for _ in range(2))
            b, last_b = cost.frame_terms(frame)[2], cost.frame_terms(last)[2]
            _, floor = cost.separation_bound(frame, b, last_b, 1.0)
            b11, b22 = b[:m, :m], b[m:, m:]
            if method == "invariant-direct":
                blocks = b11, b[:m, m:], b[m:, :m], b22
                assert floor == four_term_floor(m, n - m, cost.scale)
                # the direct solve's own test, max(||L||_1, max ||B_ij||_1^2) TOL.pivot
                solve_floor = max(np.linalg.norm(invariant_newton_operator(*blocks), 1),
                                  max(np.linalg.norm(blk, 1) for blk in blocks) ** 2)
                assert floor >= TOL.pivot * solve_floor
            else:
                assert floor == separation_floor(symmetrize(b11), symmetrize(b22))
            if method == "rayleigh-lg":
                # the Lyapunov solve's own floor, of M = (B11 - B22) / 2, is lower
                assert floor >= separation_floor(symmetrize(0.5 * (b11 - b22)))

    @pytest.mark.parametrize("data", ["newton", "non-symmetric"])
    @pytest.mark.parametrize("method", ["rayleigh-gr", "rayleigh-lg", "rayleigh-lg-general"])
    def test_trace_bound_reads_only_the_diagonal_blocks(self, method, data):
        # the bound and floor equal, bit for bit, those of symmetrizing all
        # of B and of B - B_last before cutting the diagonal blocks out
        def whole_b(cost, frame, b, last_b, separation):
            m = frame.rank
            new, step = symmetrize(b), symmetrize(b - last_b)
            slack = frobenius_norm(step[:m, :m]) + frobenius_norm(step[m:, m:])
            slack += TOL.separation_roundoff * frame.dim * cost.scale
            return separation - slack, separation_floor(new[:m, :m], new[m:, m:])

        cases = 0
        for seed in range(4):
            cost, frame = _trace_problem(method, seed)
            rng = np.random.default_rng(seed)
            last = None
            for _ in range(6):
                _, _, b = cost.frame_terms(frame)
                if data == "non-symmetric":
                    b = b + 1e-3 * rng.standard_normal(b.shape)
                z, separation = cost.newton_solve(frame, b)
                if last is not None:
                    bound = cost.separation_bound(frame, b, *last)
                    assert bound == whole_b(cost, frame, b, *last)
                    cases += 1
                last = (b, separation)
                frame = push_frame(frame, z, "qr")
        assert cases == 20

    @pytest.mark.parametrize("power", [-20, -1, 1, 20])
    @pytest.mark.parametrize("method", ["rayleigh-gr", "rayleigh-lg", "invariant-direct"])
    def test_certification_does_not_depend_on_units(self, method, power):
        # A times c = 2^power scales B exactly, so the measured separation,
        # the bound and its floor scale by c (trace cost) or c^2 (invariant
        # cost) bit for bit: whether a step certifies does not depend on units
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 6))
        if method == "rayleigh-lg":
            last, z = SymplecticFrame(_orthosymplectic(rng, 3).T), symmetrize(rng.standard_normal((3, 3)))
        else:
            last, z = OrthoFrame(_orthogonal(rng, 6), 3), rng.standard_normal((3, 3))
        frame = push_frame(last, 1e-6 * z, "exp")
        c, results = 2.0 ** power, []
        for y in (x, c * x):
            cost = InvariantSubspaceCost(y) if method == "invariant-direct" else RayleighCost(0.5 * (y + y.T))
            b, last_b = cost.frame_terms(frame)[2], cost.frame_terms(last)[2]
            separation = cost.newton_solve(last, last_b)[1]
            results.append((separation, *cost.separation_bound(frame, b, last_b, separation)))
        units = c ** 2 if method == "invariant-direct" else c
        assert results[1] == tuple(units * value for value in results[0])
        _, bound, floor = results[0]
        assert bound > floor

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("factor", [0.1, 0.9, 1.1, 10.0])
    @pytest.mark.parametrize("solve", ["sylvester", "lyapunov"])
    def test_solves_raise_exactly_at_or_below_the_floor(self, solve, factor, scale):
        # blocks whose eigenvalue gap is factor times their floor: the solve
        # returns a separation above separation_floor of its blocks, or
        # raises SpectralOverlap with one at or below it
        q = _orthogonal(np.random.default_rng(3), 4)
        # the Lyapunov block's eigenvalue 0, moved by shift / 2, pairs with itself to shift
        spectrum = [3.0, 1.0, 2.0, 0.0] if solve == "lyapunov" else [3.0, 1.0, -1.5, 2.5]
        a = symmetrize((q * (scale * np.array(spectrum))) @ q.T)
        shift = factor * separation_floor(a)
        runs = {
            "sylvester": lambda a11, a22: solve_sylvester_unchecked(a11, a22, np.ones((4, 4))),
            "lyapunov": lambda m_: solve_lyapunov_unchecked(m_, np.eye(4)),
        }
        blocks = (a + 0.5 * shift * np.eye(4),) if solve == "lyapunov" else (a, a + shift * np.eye(4))
        floor = separation_floor(*blocks)
        try:
            _, separation = runs[solve](*blocks)
        except SpectralOverlap as exc:
            raised = True
            assert exc.min_gap <= floor
        else:
            raised = False
            assert separation > floor
        assert raised == (factor < 1.0)
