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
from projnewton.decomp import symmetrize
from projnewton.errors import SpectralOverlap
from projnewton.grassmann import CHART_NAMES, OrthoFrame, push_frame
from projnewton.lagrange import SymplecticFrame, sympl_form
from projnewton.newton import NewtonConfig, Status, perturb_frame, run_newton
from projnewton.solvers import (
    separation_floor,
    solve_invariant_newton_recursive,
    solve_lyapunov_unchecked,
    solve_sylvester_unchecked,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# rayleigh-lg-general: the trace cost of a symmetric A that is not
# Hamiltonian, on the Lagrange Grassmannian (Algorithm 2 in (B11 - B22) / 2)
METHODS = ("rayleigh-gr", "rayleigh-lg", "rayleigh-lg-general", "invariant-recursive")


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
    leading m diagonal entries of T and the rest.  Newton's sweeps contract
    as ||B21|| ||B12|| / sep^2 (Stewart 1973), and a start ``distance`` away
    has ||B21|| up to about distance ||T||, ||B12|| about ||T12||."""
    diag = np.diag(t)
    gap = diag[:m].min() - diag[m:].max()
    return distance * np.linalg.norm(t[:m, m:], 2) * np.linalg.norm(t, 2) / gap**2


# inside Newton's basin for the recursive sweeps: of 14500 problems drawn
# as below at scale 1, starts 0.15 to 0.3 away, every run whose sweeps did
# not settle measured 0.186 or more
BASIN = 0.1


@st.composite
def problems(draw, method):
    """(cost, start) for a well-separated problem of the method, its
    spectrum scaled by 1e-3 to 1e3, started 0.01 to 0.3 from its solution,
    and for invariant-recursive inside the basin (``_basin_measure`` at most
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


@pytest.mark.parametrize("nu", CHART_NAMES)
@pytest.mark.parametrize("method", METHODS)
@hypothesis.given(data=st.data())
def test_bound_never_exceeds_the_measured_separation(method, nu, data):
    # the Newton iteration by hand, with a solve at every iterate: the
    # bound from the solve before is held to the separation this one measures
    cost, frame = data.draw(problems(method))
    solver = "recursive" if method == "invariant-recursive" else "direct"
    grad_tol = NewtonConfig().grad_tol * cost.scale
    last, bounds = None, 0
    for _ in range(10):
        _, grad, b = cost.frame_terms(frame)
        z, separation = cost.newton_solve(frame, solver, b)
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


def test_start_outside_the_basin_ends_no_convergence():
    # ROADMAP item 4: 0.3 from this planted subspace (basin measure 0.24)
    # the recursive sweeps do not settle at the start; the direct solve
    # converges from it
    rng = np.random.default_rng(2274029156)
    q, t = _planted_triangular(rng, 6, 1, 1.0)
    assert _basin_measure(t, 1, 0.3) > 2.0 * BASIN
    cost = InvariantSubspaceCost(q @ t @ q.T)
    start = perturb_frame(OrthoFrame(q.T, 1), 0.3, 2274029156)
    trace = run_newton(cost, start, NewtonConfig(), method="invariant-recursive")
    assert trace.status == Status.NO_CONVERGENCE
    assert len(trace.records) == 1
    direct = run_newton(cost, start, NewtonConfig(), method="invariant-direct")
    assert direct.status == Status.CONVERGED


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

    def newton_solve(self, frame, solver="direct", b=None):
        z, separation = super().newton_solve(frame, solver, b)
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
        ("invariant-recursive", Status.SPECTRAL_OVERLAP),
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
    """The bounds clear the floor the Newton solve would enforce: both read
    ``solvers.separation_floor``, of the blocks that solve sees."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("method", ["rayleigh-gr", "rayleigh-lg", "invariant-recursive"])
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
            if method == "invariant-recursive":
                assert floor == separation_floor(b11, b22)
            else:
                assert floor == separation_floor(symmetrize(b11), symmetrize(b22))
            if method == "rayleigh-lg":
                # the Lyapunov solve's own floor, of M = (B11 - B22) / 2, is lower
                assert floor >= separation_floor(symmetrize(0.5 * (b11 - b22)))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("factor", [0.1, 0.9, 1.1, 10.0])
    @pytest.mark.parametrize("solve", ["sylvester", "lyapunov", "recursive"])
    def test_solves_raise_exactly_at_or_below_the_floor(self, solve, factor, scale):
        # blocks whose eigenvalue gap is factor times their floor: the solve
        # returns a separation above separation_floor of its blocks, or
        # raises SpectralOverlap with one at or below it
        q = _orthogonal(np.random.default_rng(3), 4)
        # the Lyapunov block's eigenvalue 0, moved by shift / 2, pairs with itself to shift
        spectrum = [3.0, 1.0, 2.0, 0.0] if solve == "lyapunov" else [3.0, 1.0, -1.5, 2.5]
        a = symmetrize((q * (scale * np.array(spectrum))) @ q.T)
        shift = factor * separation_floor(a)
        zeros = np.zeros((4, 4))
        runs = {
            "sylvester": lambda a11, a22: solve_sylvester_unchecked(a11, a22, np.ones((4, 4))),
            "lyapunov": lambda m_: solve_lyapunov_unchecked(m_, np.eye(4)),
            "recursive": lambda a11, a22: solve_invariant_newton_recursive(a11, zeros, zeros, a22),
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
        # the recursive solver's 1-norm separation lies up to sqrt(d) = 4 below
        # the gap of its (here symmetric) operator
        if solve != "recursive" or not 1.0 < factor < 4.0:
            assert raised == (factor < 1.0)
