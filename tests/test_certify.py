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
from projnewton.grassmann import CHART_NAMES, OrthoFrame, push_frame
from projnewton.lagrange import SymplecticFrame, sympl_form
from projnewton.newton import NewtonConfig, Status, perturb_frame, run_newton

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


@st.composite
def problems(draw, method):
    """(cost, start) for a well-separated problem of the method, its
    spectrum scaled by 1e-3 to 1e3, started 0.01 to 0.3 from its solution.
    rayleigh-lg-general adds to H a symmetric K with J K J = -K, as large:
    tr(K P) = tr(K) / 2 on every Lagrangian P, so the solution stays."""
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
        q = _orthogonal(rng, n)
        spectrum = np.concatenate([rng.uniform(2.0, 3.0, m), rng.uniform(-1.0, 1.0, n - m)])
        spectrum *= scale
        if method == "rayleigh-gr":
            a = (q * spectrum) @ q.T
            cost = RayleighCost(0.5 * (a + a.T))
        else:
            t = 0.3 * scale * np.triu(rng.standard_normal((n, n)), 1) + np.diag(spectrum)
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
