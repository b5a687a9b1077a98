"""Newton engine tests: the dense fallback against each cost's own Newton
solve, fixed points, convergence and rate classification."""

import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from projnewton.config import TOL
from projnewton.costs import (
    CostFunction,
    HamiltonianRayleighCost,
    InvariantSubspaceCost,
    RayleighCost,
)
from projnewton.decomp import frobenius_norm, qr_positive, sym_eig, symmetrize
from projnewton.errors import (
    BadRank,
    DimensionMismatch,
    InsufficientData,
    NoConvergence,
    NotAProjector,
)
from projnewton.grassmann import (
    CHART_NAMES,
    OrthoFrame,
    Projector,
    frame_distance,
    push_frame,
    random_projector,
)
from projnewton.lagrange import SymplecticFrame, symplectic_frame_from_basis
from projnewton.newton import (
    NewtonConfig,
    Status,
    estimate_quadratic_rate,
    newton_step,
    perturb_frame,
    rate_from_trace,
    run_newton,
)

from conftest import LONG_STEP, lagrangian_trace_problem, newton_solve_at, random_symmetric
from oracles import distance, frame_from_projector, random_lag_projector


def _step(cost, frame, config):
    """``newton_step`` from the cost's own state at ``frame``."""
    return newton_step(cost, frame, config, cost.frame_terms(frame)[2])


def _gapped_symmetric(rng, n, m, gap=1.0):
    """Random symmetric matrix whose top-m eigenvalues are separated from
    the rest by at least ``gap``; returns (matrix, dominant frame)."""
    a = random_symmetric(rng, n)
    values, vectors = sym_eig(a)
    values = values.copy()
    values[:m] += gap
    a = vectors @ np.diag(values) @ vectors.T
    theta = vectors.T
    if np.linalg.det(theta) < 0:
        theta = theta.copy()
        theta[-1] = -theta[-1]
    return symmetrize(a), OrthoFrame(theta, m)


def _hamiltonian_with_frame(rng, n):
    h = np.block(
        [
            [random_symmetric(rng, n), random_symmetric(rng, n)],
            [np.zeros((n, n)), np.zeros((n, n))],
        ]
    )
    s = 0.5 * (h[:n, :n] + h[:n, :n].T)
    t = 0.5 * (h[:n, n:] + h[:n, n:].T)
    hmat = np.block([[s, t], [t, -s]])
    values, vectors = sym_eig(hmat)
    frame = symplectic_frame_from_basis(vectors[:, :n])
    return HamiltonianRayleighCost(hmat), frame


class TestConfig:
    def test_rejects_zero_max_iters(self):
        with pytest.raises(ValueError):
            NewtonConfig(max_iters=0)

    def test_rejects_bad_chart(self):
        with pytest.raises(ValueError):
            NewtonConfig(mu="polar")

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            NewtonConfig(grad_tol=0.0)

    @pytest.mark.parametrize("field", ["grad_tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_tolerance(self, field, value):
        # a NaN tolerance never stops a run, and neither value fits a JSON report
        with pytest.raises(ValueError, match="finite"):
            NewtonConfig(**{field: value})


class TestRateEstimator:
    def test_exact_quadratic_sequence(self):
        errors = [10.0 ** -(2.0**k) for k in range(5)]
        est = estimate_quadratic_rate(errors)
        assert est.verdict
        assert abs(est.slope - 2.0) <= 0.1
        assert all(abs(r - 1.0) <= 1e-6 for r in est.ratios)

    def test_linear_sequence_rejected(self):
        est = estimate_quadratic_rate([0.5**k for k in range(12)])
        assert not est.verdict
        assert est.slope <= 1.2

    def test_cubic_sequence_accepted(self):
        errors = [10.0 ** -(3.0**k) for k in range(4)]
        est = estimate_quadratic_rate(errors)
        assert est.verdict

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            estimate_quadratic_rate([0.1, 0.01])

    def test_thresholds_come_from_config(self, monkeypatch):
        import projnewton.newton

        errors = [10.0 ** -(2.0**k) for k in range(5)]  # slope 2, ratios 1
        assert estimate_quadratic_rate(errors).verdict
        monkeypatch.setattr(projnewton.newton, "TOL", replace(TOL, rate_slope=2.5))
        assert not estimate_quadratic_rate(errors).verdict
        growing = [1e-2, 1e-4, 5e-8, 1.25e-14]  # ratios 1, 5, 5
        monkeypatch.setattr(projnewton.newton, "TOL", TOL)
        assert estimate_quadratic_rate(growing).verdict
        monkeypatch.setattr(projnewton.newton, "TOL", replace(TOL, rate_growth=4.0))
        assert not estimate_quadratic_rate(growing).verdict

    def test_floor_entries_dropped(self):
        errors = [1e-1, 1e-2, 1e-4, 1e-8, 1e-16, 3e-16]
        est = estimate_quadratic_rate(errors)
        assert len(est.usable) == 4

    def test_floor_comes_from_config(self, monkeypatch):
        import projnewton.newton

        errors = [1e-1, 1e-2, 1e-4, 1e-8, 1e-16, 3e-16]
        assert TOL.rate_floor == 10.0 * np.finfo(float).eps
        monkeypatch.setattr(projnewton.newton, "TOL", replace(TOL, rate_floor=1e-6))
        assert estimate_quadratic_rate(errors).usable == (1e-1, 1e-2, 1e-4)
        monkeypatch.setattr(projnewton.newton, "TOL", replace(TOL, rate_floor=1e-3))
        with pytest.raises(InsufficientData):
            estimate_quadratic_rate(errors)

    @staticmethod
    def _exact_slope(e):
        """Least-squares slope of log e_{k+1} on log e_k in rational arithmetic."""
        x = [Fraction(v) for v in np.log(e[:-1])]
        y = [Fraction(v) for v in np.log(e[1:])]
        mx, my = sum(x) / len(x), sum(y) / len(y)
        return float(sum((a - mx) * (b - my) for a, b in zip(x, y))
                     / sum((a - mx) ** 2 for a in x))

    @pytest.mark.parametrize("kind", ["newton-tail", "uniform", "log-uniform"])
    def test_closed_form_slope(self, kind):
        rng = np.random.default_rng(5)
        for _ in range(300):
            k = int(rng.integers(3, 12))
            if kind == "newton-tail":  # e_{k+1} = c e_k^p, c <= 1 < p: at least 3 usable
                e = [rng.uniform(1e-2, 0.3)]
                while len(e) < k and e[-1] > TOL.rate_floor:
                    e.append(e[-1] ** rng.uniform(1.5, 2.2) * rng.uniform(0.1, 1.0))
            elif kind == "uniform":
                e = np.sort(rng.uniform(1e-14, 1.0, k))[::-1]
            else:
                e = 10.0 ** -np.sort(rng.uniform(0.0, 14.0, k))
            est = estimate_quadratic_rate(e)
            u = np.asarray(est.usable)
            assert abs(est.slope - self._exact_slope(u)) <= 1e-14 * abs(est.slope)
            if kind == "newton-tail":
                # polyfit's own least-squares solve is off the exact fit by up
                # to 2e-13 on the other kinds, so it is the oracle here only
                fitted = np.polyfit(np.log(u[:-1]), np.log(u[1:]), 1)[0]
                assert abs(est.slope - fitted) <= 1e-13 * abs(fitted)


def _constructed_invariant(seed, m, k):
    """Matrix with a planted m-dim invariant subspace; returns (A, projector)."""
    rng = np.random.default_rng(seed)
    b1 = rng.standard_normal((m, m)) + 3.0 * np.eye(m)
    b2 = rng.standard_normal((k, k)) - 1.0 * np.eye(k)
    s = np.block([[b1, np.zeros((m, k))], [np.zeros((k, m)), b2]])
    t, _ = qr_positive(rng.standard_normal((m + k, m + k)))
    return t @ s @ t.T, Projector(t[:, :m] @ t[:, :m].T, m)


class TestGenericStep:
    """The base-class dense fallback is the reference for every cost's own
    Newton solve."""

    def test_fixed_point_at_critical(self, rng):
        a, frame = _gapped_symmetric(rng, 5, 2)
        cost = RayleighCost(a)
        assert np.sqrt(2.0) * np.linalg.norm(newton_solve_at(cost, frame, CostFunction)[0]) <= 1e-10
        new_frame, info = _step(cost, frame, NewtonConfig())
        assert info.step_norm <= 1e-10
        assert np.abs(new_frame.projector().mat - frame.projector().mat).max() <= 1e-10

    def test_matches_algorithm1_on_line(self, rng):
        a = np.diag([2.0, 1.0])
        frame = perturb_frame(frame_from_projector(Projector(np.diag([1.0, 0.0]), 1)), 0.1, 3)
        cost = RayleighCost(a)
        z_gen = newton_solve_at(cost, frame, CostFunction)[0]
        assert np.abs(z_gen - newton_solve_at(cost, frame)[0]).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_algorithm1_random(self, seed):
        rng = np.random.default_rng(seed)
        a, dom = _gapped_symmetric(rng, 5, 2)
        frame = perturb_frame(dom, 0.2, seed + 50)
        cost = RayleighCost(a)
        z_gen = newton_solve_at(cost, frame, CostFunction)[0]
        assert np.abs(z_gen - newton_solve_at(cost, frame)[0]).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_algorithm3(self, seed):
        a, target = _constructed_invariant(seed, 2, 3)
        frame = perturb_frame(frame_from_projector(target), 0.05, seed + 90)
        cost = InvariantSubspaceCost(a)
        z_gen = newton_solve_at(cost, frame, CostFunction)[0]
        assert np.abs(z_gen - newton_solve_at(cost, frame)[0]).max() <= 1e-9

    def test_hamiltonian_cost_on_grassmann_frame(self, rng):
        # on an orthogonal frame, tr(H P) is a trace cost on Gr(n, 2n): its
        # Sylvester solve agrees with the dense fallback
        cost, dom = _hamiltonian_with_frame(rng, 2)
        frame = perturb_frame(OrthoFrame(dom.theta, 2), 0.1, 4)
        z_gen = newton_solve_at(cost, frame, CostFunction)[0]
        assert np.abs(z_gen - newton_solve_at(cost, frame)[0]).max() <= 1e-12
        assert np.array_equal(newton_solve_at(cost, frame)[0], newton_solve_at(RayleighCost(cost.h), frame)[0])

    def test_fallback_rejects_symplectic_frames(self, rng):
        cost, frame = _hamiltonian_with_frame(rng, 2)
        with pytest.raises(ValueError):
            newton_solve_at(cost, frame, CostFunction)

    def test_quadratic_model_cost_converges_fast(self, rng):
        # constant ambient Hessian: F(P) = 0.5 ||P - B||^2
        class QuadraticCost(CostFunction):
            def __init__(self, b):
                self.b = b

            def value(self, p):
                return 0.5 * np.linalg.norm(p - self.b) ** 2

            def ambient_gradient(self, p):
                return symmetrize(p - self.b)

            def ambient_hessian_apply(self, p, xi):
                return symmetrize(xi)

        b = np.diag([3.0, 2.0, 0.2, 0.1, 0.05])
        cost = QuadraticCost(b)
        dom = frame_from_projector(Projector(np.diag([1.0, 1.0, 0.0, 0.0, 0.0]), 2))
        start = perturb_frame(dom, 1e-2, 1)
        trace = run_newton(cost, start, NewtonConfig(grad_tol=1e-12, max_iters=10))
        assert trace.status == Status.CONVERGED
        steps_taken = trace.records[-1].iteration
        assert steps_taken <= 3


class TestAlgorithm1:
    def test_fixed_point(self, rng):
        a, frame = _gapped_symmetric(rng, 6, 2)
        new_frame, info = _step(RayleighCost(a), frame, NewtonConfig())
        assert info.step_norm <= 1e-10

    def test_converges_to_dominant_eigenspace(self):
        a = np.diag([4.0, 3.0, 2.0, 1.0])
        target = Projector(np.diag([1.0, 1.0, 0.0, 0.0]), 2)
        frame = perturb_frame(frame_from_projector(target), 0.08, 7)
        for _ in range(6):
            frame, _ = _step(RayleighCost(a), frame, NewtonConfig())
        assert distance(frame.projector(), target) <= 1e-10

    def test_run_newton_trace_quadratic(self):
        rng = np.random.default_rng(17)
        a, dom = _gapped_symmetric(rng, 8, 2)
        reference = dom.projector()
        start = perturb_frame(dom, 0.05, 23)
        trace = run_newton(
            RayleighCost(a), start, NewtonConfig(grad_tol=1e-12, max_iters=10),
            reference=reference, method="rayleigh-gr",
        )
        assert trace.status == Status.CONVERGED
        assert trace.records[-1].iteration <= 8
        est = rate_from_trace(trace)
        assert est.verdict
        # gradient norms decrease monotonically over the tail
        grads = [r.grad_norm for r in trace.records]
        assert all(g2 < g1 for g1, g2 in zip(grads[1:-1], grads[2:]))


class TestAlgorithm2:
    def test_fixed_point(self, rng):
        cost, frame = _hamiltonian_with_frame(rng, 2)
        _, info = _step(cost, frame, NewtonConfig())
        assert info.step_norm <= 1e-9

    def test_quadratic_convergence(self):
        rng = np.random.default_rng(5)
        cost, dom = _hamiltonian_with_frame(rng, 2)
        start = perturb_frame(dom, 0.05, 31)
        trace = run_newton(
            cost, start, NewtonConfig(grad_tol=1e-12, max_iters=10),
            reference=dom.projector(), method="rayleigh-lg",
        )
        assert trace.status == Status.CONVERGED
        assert rate_from_trace(trace).verdict

    @pytest.mark.parametrize("nu", ["exp", "qr", "cayley"])
    def test_step_is_the_grassmann_push_without_qr(self, rng, nu):
        cost, dom = _hamiltonian_with_frame(rng, 3)
        frame = perturb_frame(dom, 0.2, 5)
        stepped, _ = _step(cost, frame, NewtonConfig(nu=nu))
        assert isinstance(stepped, SymplecticFrame)
        expected = push_frame(frame, newton_solve_at(cost, frame)[0], nu)
        assert np.array_equal(stepped.theta, expected.theta)

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_ignores_a_non_hamiltonian_perturbation(self, n, seed):
        # the Lagrangian gradient block is sym(B12): a symmetric, not
        # Hamiltonian perturbation of H that passes the cost's JHJ = H check
        # leaves an antisymmetric part in B12 that no Lagrangian step removes
        rng = np.random.default_rng(seed)
        cost, dom = _hamiltonian_with_frame(rng, n)
        e = random_symmetric(rng, 2 * n)
        e *= 5e-11 * np.abs(cost.h).max() / np.abs(e).max()
        trace = run_newton(
            HamiltonianRayleighCost(cost.h + e), dom, NewtonConfig(),
            reference=dom.projector(), method="rayleigh-lg",
        )
        assert trace.status == Status.CONVERGED
        assert trace.records[-1].iteration <= 2
        # converged on the gradient test, not only on the step-size test
        assert trace.records[-1].grad_norm <= NewtonConfig().grad_tol

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_trace_cost_of_a_non_hamiltonian_matrix_converges(self, n):
        # Algorithm 2 runs for any symmetric A: its Lyapunov matrix is
        # (B11 - B22) / 2, and a run from 0.05 away reaches the maximizer
        a, dom = lagrangian_trace_problem(np.random.default_rng(n), n)
        trace = run_newton(RayleighCost(a), perturb_frame(dom, 0.05, n), NewtonConfig(),
                           reference=dom, method="rayleigh-lg")
        assert trace.status == Status.CONVERGED
        assert rate_from_trace(trace).verdict

    def test_symplecticity_preserved_over_steps(self, rng):
        cost, dom = _hamiltonian_with_frame(rng, 3)
        frame = perturb_frame(dom, 0.4, 8)
        for _ in range(10):
            frame, _ = _step(cost, frame, NewtonConfig())
            assert frame.symplecticity_residual() <= 1e-9


class TestAlgorithm3:
    def test_block_triangular_fixed_point(self, rng):
        # A21 = 0 in the frame: the subspace is already invariant
        a11 = rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
        a22 = rng.standard_normal((2, 2)) - 3.0 * np.eye(2)
        a12 = rng.standard_normal((2, 2))
        a = np.block([[a11, a12], [np.zeros((2, 2)), a22]])
        frame = frame_from_projector(Projector(np.diag([1.0, 1.0, 0.0, 0.0]), 2))
        _, info = _step(InvariantSubspaceCost(a), frame, NewtonConfig())
        assert info.step_norm <= 1e-12

    def test_converges_to_line_eigenvector(self):
        a = np.diag([1.0, 2.0, 5.0])
        target = Projector(np.diag([1.0, 0.0, 0.0]), 1)
        frame = perturb_frame(frame_from_projector(target), 0.05, 2)
        for _ in range(5):
            frame, _ = _step(InvariantSubspaceCost(a), frame, NewtonConfig())
        p = frame.projector()
        assert np.linalg.norm((np.eye(3) - p.mat) @ a @ p.mat) <= 1e-10
        assert distance(p, target) <= 1e-9

    def test_constructed_nonsymmetric_subspace(self):
        rng = np.random.default_rng(11)
        b1 = rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
        b2 = rng.standard_normal((2, 2)) - 1.0 * np.eye(2)
        s = np.block([[b1, np.zeros((2, 2))], [np.zeros((2, 2)), b2]])
        t, _ = qr_positive(rng.standard_normal((4, 4)))
        a = t @ s @ t.T
        target = Projector(t[:, :2] @ t[:, :2].T, 2)
        frame = perturb_frame(frame_from_projector(target), 0.05, 3)
        for _ in range(6):
            frame, _ = _step(InvariantSubspaceCost(a), frame, NewtonConfig())
        assert distance(frame.projector(), target) <= 1e-8

    @pytest.mark.parametrize("method", ["invariant-direct", "invariant-recursive"])
    def test_symplectic_frame_is_refused(self, method):
        # the four-term step is not symmetric: the solve refuses the frame,
        # under either method name, before solving, as the dense fallback does
        a = np.random.default_rng(0).standard_normal((6, 6))
        with pytest.raises(ValueError, match="Grassmann frames"):
            run_newton(InvariantSubspaceCost(a), random_lag_projector(3, 1)[1], NewtonConfig(),
                       method=method)


class TestOneStepContraction:
    """One step from distance eps lands within O(eps^2); a flipped
    push-forward sign would instead double the error, so these pin the
    frame-update conventions for all three costs' Newton solves."""

    def test_algorithm1(self):
        for seed in range(5):
            a, dom = _gapped_symmetric(np.random.default_rng(seed), 6, 2, gap=2.0)
            for eps in (1e-2, 1e-3):
                start = perturb_frame(dom, eps, 60 + seed)
                stepped, _ = _step(RayleighCost(a), start, NewtonConfig())
                e1 = distance(stepped.projector(), dom.projector())
                assert e1 <= 50.0 * eps**2, (seed, eps, e1)

    def test_algorithm2(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            cost, dom = _hamiltonian_with_frame(rng, 3)
            for eps in (1e-2, 1e-3):
                start = perturb_frame(dom, eps, 70 + seed)
                stepped, _ = _step(cost, start, NewtonConfig())
                e1 = distance(stepped.projector().as_projector(), dom.projector().as_projector())
                assert e1 <= 50.0 * eps**2, (seed, eps, e1)

    def test_algorithm3(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            b1 = rng.standard_normal((2, 2)) + 4.0 * np.eye(2)
            b2 = rng.standard_normal((3, 3)) - 4.0 * np.eye(3)
            s = np.zeros((5, 5))
            s[:2, :2] = b1
            s[2:, 2:] = b2
            t, _ = qr_positive(rng.standard_normal((5, 5)))
            a = t @ s @ t.T
            target = Projector(t[:, :2] @ t[:, :2].T, 2)
            for eps in (1e-2, 1e-3):
                start = perturb_frame(frame_from_projector(target), eps, 80 + seed)
                stepped, _ = _step(InvariantSubspaceCost(a), start, NewtonConfig())
                e1 = distance(stepped.projector(), target)
                assert e1 <= 50.0 * eps**2, (seed, eps, e1)


class TestRunNewton:
    def test_converged_at_critical_start(self, rng):
        a, frame = _gapped_symmetric(rng, 5, 2)
        trace = run_newton(RayleighCost(a), frame, NewtonConfig(), method="rayleigh-gr")
        assert trace.status == Status.CONVERGED
        assert trace.records[-1].iteration == 0

    def test_max_iters_status(self, rng):
        a, dom = _gapped_symmetric(rng, 5, 2)
        start = perturb_frame(dom, 0.05, 5)
        trace = run_newton(
            RayleighCost(a), start, NewtonConfig(max_iters=1, grad_tol=1e-16),
            method="rayleigh-gr",
        )
        # one step from 0.05 leaves the gradient at 2e-4, far above 1e-16 ||A||
        assert trace.status == Status.MAX_ITERS

    @pytest.mark.parametrize("mu", ["exp", "qr", "cayley"])
    @pytest.mark.parametrize("nu", ["exp", "qr", "cayley"])
    def test_chart_pair_freedom(self, mu, nu):
        # every chart pair converges from a nearby start on Gr(2,5)
        rng = np.random.default_rng(41)
        a, dom = _gapped_symmetric(rng, 5, 2)
        start = perturb_frame(dom, 0.1, 6)
        trace = run_newton(
            RayleighCost(a), start,
            NewtonConfig(mu=mu, nu=nu, grad_tol=1e-11, max_iters=20),
            reference=dom.projector(), method="generic",
        )
        assert trace.status == Status.CONVERGED
        assert trace.records[-1].distance <= 1e-8

    def test_iterates_are_projectors(self, rng):
        # pushes are not re-checked; the row rotations keep the frames orthogonal
        a, dom = _gapped_symmetric(rng, 6, 3)
        start = perturb_frame(dom, 0.3, 7)
        trace = run_newton(RayleighCost(a), start, NewtonConfig(max_iters=8), method="rayleigh-gr")
        assert len(trace.records) >= 1
        theta = trace.extras["final_frame"].theta
        assert np.abs(theta @ theta.T - np.eye(6)).max() <= TOL.frame_orthogonality

    def test_long_step_ends_with_a_status(self):
        # from this random start the run takes a qr step longer than 2000,
        # which the push keeps orthogonal; the run goes on and converges
        a = np.random.default_rng(17).standard_normal((12, 6))[6:]
        start = random_projector(6, 2, 0)[1]
        trace = run_newton(InvariantSubspaceCost(a), start, NewtonConfig(nu="qr"),
                           method="invariant-direct")
        assert max(r.step_norm for r in trace.records) >= 1e3
        assert trace.status == Status.CONVERGED

    def test_start_frame_is_checked(self, rng):
        # frames are checked where they enter: a pushed start is re-checked,
        # a symplectic one for symplecticity as well
        a, dom = _gapped_symmetric(rng, 6, 3)
        with pytest.raises(NotAProjector, match="orthogonality"):
            run_newton(RayleighCost(a), dom._with_theta(1.001 * dom.theta), NewtonConfig(),
                       method="rayleigh-gr")
        h = np.diag([3.0, 2.0, 1.0, -3.0, -2.0, -1.0])
        lag = symplectic_frame_from_basis(np.eye(6)[:, :3])
        swap = np.eye(6)[[0, 1, 3, 2, 4, 5]]
        with pytest.raises(NotAProjector, match="symplecticity"):
            run_newton(HamiltonianRayleighCost(h), lag._with_theta(swap @ lag.theta),
                       NewtonConfig(), method="rayleigh-lg")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_is_rejected(self, rng, bad):
        # with no QR in the loop the entry check is a frame's only guard
        a, dom = _gapped_symmetric(rng, 6, 3)
        theta = dom.theta.copy()
        theta[0, 0] = bad
        with pytest.raises(NotAProjector, match="non-finite"):
            run_newton(RayleighCost(a), dom._with_theta(theta), NewtonConfig(),
                       method="rayleigh-gr")

    def test_invariant_method_tracks_residuals(self):
        rng = np.random.default_rng(53)
        b1 = rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
        b2 = rng.standard_normal((2, 2)) - 1.0 * np.eye(2)
        s = np.block([[b1, np.zeros((2, 2))], [np.zeros((2, 2)), b2]])
        t, _ = qr_positive(rng.standard_normal((4, 4)))
        a = t @ s @ t.T
        target = Projector(t[:, :2] @ t[:, :2].T, 2)
        start = perturb_frame(frame_from_projector(target), 0.05, 8)
        trace = run_newton(
            InvariantSubspaceCost(a), start, NewtonConfig(grad_tol=1e-12, max_iters=10),
            reference=target, method="invariant-direct",
        )
        assert trace.status == Status.CONVERGED
        assert np.sqrt(trace.records[-1].cost) <= 1e-10  # ||B21||, the invariance residual

    @pytest.mark.parametrize("eps,max_iters", [(0.05, 50), (0.02, 50), (0.3, 2)])
    @pytest.mark.parametrize("referenced", [True, False])
    def test_loop_reads_the_frame(self, monkeypatch, eps, max_iters, referenced):
        # no ambient gradient, no projector and no n x n eigendecomposition
        # per iteration: no eigendecomposition at all, and the final
        # frame's projector, once per run, only when no reference is given
        n = 12
        a, dom = _gapped_symmetric(np.random.default_rng(3), n, 3)
        reference = dom.projector() if referenced else None
        start = perturb_frame(dom, eps, 4)

        def forbidden(*args, **kwargs):
            raise AssertionError("n x n work inside run_newton")

        monkeypatch.setattr(RayleighCost, "ambient_gradient", forbidden)
        projector, projected = OrthoFrame.projector, []

        def counting_projector(frame):
            projected.append(frame)
            return projector(frame)

        monkeypatch.setattr(OrthoFrame, "projector", counting_projector)
        eigh = np.linalg.eigh
        square = []

        def counting_eigh(mat, *args, **kwargs):
            if np.shape(mat) == (n, n):
                square.append(mat)
            return eigh(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        trace = run_newton(RayleighCost(a), start, NewtonConfig(max_iters=max_iters),
                           reference=reference, method="rayleigh-gr")
        assert len(trace.records) >= 3
        assert square == []
        assert projected == ([] if referenced else [trace.extras["final_frame"]])

    def test_distance_to_final_fallback(self, rng):
        a, dom = _gapped_symmetric(rng, 5, 2)
        start = perturb_frame(dom, 0.05, 9)
        trace = run_newton(RayleighCost(a), start, NewtonConfig(max_iters=10), method="rayleigh-gr")
        assert trace.distance_reference == "final"
        assert trace.records[-1].distance <= 1e-14
        assert trace.records[0].distance > 0.0

    @pytest.mark.parametrize("method", ["rayleigh-gr", "rayleigh-lg"])
    @pytest.mark.parametrize("referenced", [True, False])
    def test_distances_in_one_stacked_pass(self, monkeypatch, method, referenced):
        import projnewton.grassmann

        calls = []
        kernel = projnewton.grassmann._distance

        def counting(cos_mat, sin_mat):
            calls.append(np.shape(cos_mat))
            return kernel(cos_mat, sin_mat)

        monkeypatch.setattr(projnewton.grassmann, "_distance", counting)
        if method == "rayleigh-gr":
            a, dom = _gapped_symmetric(np.random.default_rng(5), 8, 3)
            cost = RayleighCost(a)
        else:
            cost, dom = _hamiltonian_with_frame(np.random.default_rng(5), 3)
        start = perturb_frame(dom, 0.05, 2)
        trace = run_newton(cost, start, NewtonConfig(), method=method,
                           reference=dom.projector() if referenced else None)
        assert len(calls) == 1
        assert calls[0] == (len(trace.records), dom.rank, dom.dim)
        assert all(isinstance(r.distance, float) for r in trace.records)
        if not referenced:
            p = trace.extras["final_frame"].projector().mat
            assert abs(trace.records[0].distance - frame_distance(start, p)) <= 1e-15


def _problem_05_away(method, seed=5):
    """(cost, planted frame, start 0.05 away) of a well-separated problem."""
    rng = np.random.default_rng(seed)
    if method == "rayleigh-gr":
        a, dom = _gapped_symmetric(rng, 8, 3)
        cost = RayleighCost(a)
    elif method == "rayleigh-lg":
        cost, dom = _hamiltonian_with_frame(rng, 3)
    else:
        a, target = _constructed_invariant(seed, 2, 4)
        cost, dom = InvariantSubspaceCost(a), frame_from_projector(target)
    return cost, dom, perturb_frame(dom, 0.05, seed)


class TestFixedCosts:
    """What a run pays beside its Newton solves: one SVD per push, one SVD
    for all the distances after the loop, and no copy of a frame."""

    @pytest.mark.parametrize("method", ["rayleigh-gr", "rayleigh-lg", "invariant-direct"])
    @pytest.mark.parametrize("referenced", [True, False])
    def test_one_svd_per_push_plus_one(self, monkeypatch, method, referenced):
        cost, dom, start = _problem_05_away(method)
        reference = dom.projector() if referenced else None
        svd, shapes = np.linalg.svd, []

        def counting(*args, **kwargs):
            shapes.append(np.shape(args[0]))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        trace = run_newton(cost, start, NewtonConfig(), reference=reference, method=method)
        assert trace.status == Status.CONVERGED
        pushes = len(trace.records) - 1
        assert pushes >= 2
        m, k = dom.rank, dom.dim - dom.rank
        # the steps Z (m x k), then the sine matrices Theta_1 - Theta_1 P of every iterate
        assert shapes == [(m, k)] * pushes + [(len(trace.records), m, dom.dim)]

    @pytest.mark.parametrize("method", ["rayleigh-gr", "rayleigh-lg", "invariant-direct"])
    def test_a_run_copies_no_frame(self, monkeypatch, method):
        import copy

        cost, _, start = _problem_05_away(method)

        def forbidden(*args):
            raise AssertionError("copy.copy called")

        monkeypatch.setattr(copy, "copy", forbidden)
        trace = run_newton(cost, start, NewtonConfig(), method=method)
        assert trace.status == Status.CONVERGED
        assert type(trace.extras["final_frame"]) is type(start)

    def test_a_projector_reference_is_not_eigendecomposed(self, monkeypatch):
        # the distances read the reference's matrix: an Algorithm 3 run
        # eigendecomposes nothing at all
        cost, dom, start = _problem_05_away("invariant-direct")
        eigh, calls = np.linalg.eigh, []

        def counting(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        trace = run_newton(cost, start, NewtonConfig(), reference=dom.projector(),
                           method="invariant-direct")
        assert trace.status == Status.CONVERGED
        assert calls == []

    @pytest.mark.parametrize("method", ["rayleigh-gr", "rayleigh-lg", "invariant-direct"])
    def test_projector_and_frame_references_agree(self, method):
        # one distance path: the frame's projector is the Projector's matrix
        cost, dom, start = _problem_05_away(method)
        by_projector = run_newton(cost, start, NewtonConfig(), reference=dom.projector(),
                                  method=method)
        by_frame = run_newton(cost, start, NewtonConfig(), reference=dom, method=method)
        assert by_projector.status == by_frame.status == Status.CONVERGED
        assert by_projector.errors() == by_frame.errors()
        assert by_projector.distance_reference == by_frame.distance_reference == "supplied"

    def test_a_non_square_start_is_rejected(self):
        # (2, 3) rows are orthonormal but no frame of R^3; unchecked, a run
        # iterates 2-row frames and reports Converged
        with pytest.raises(DimensionMismatch, match="square"):
            run_newton(RayleighCost(np.diag([3.0, 2.0, 1.0])), OrthoFrame(np.eye(2, 3), 1),
                       NewtonConfig())


def _rank_3_run_at_n_8():
    """(cost, start) of a rank-3 trace-cost run at n = 8."""
    a, dom = _gapped_symmetric(np.random.default_rng(11), 8, 3)
    return RayleighCost(a), perturb_frame(dom, 0.05, 12)


class TestReferenceEntry:
    """A reference is checked once, where it enters ``run_newton``, before
    any iterate: the start frame's dimension and rank, finite entries."""

    @staticmethod
    def _rejected(monkeypatch, reference, error, match):
        cost, start = _rank_3_run_at_n_8()

        def forbidden(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr(RayleighCost, "frame_terms", forbidden)
        with pytest.raises(error, match=match):
            run_newton(cost, start, NewtonConfig(), reference=reference, method="rayleigh-gr")

    @pytest.mark.parametrize("kind,rank", [("projector", 2), ("projector", 4), ("frame", 5),
                                           ("labelled-3", 2)])
    def test_a_reference_of_another_rank(self, monkeypatch, kind, rank):
        # a rank-2 projector ran to Converged with distances of 1.9e-14 that
        # measured nothing; the others raised numpy's ValueError after the run.
        # The rank is read from tr P, not the label: a rank-2 P labelled 3 ran
        # to Converged, reporting distances of 3.3 to it
        reference = random_projector(8, rank, 0)[1 if kind == "frame" else 0]
        if kind == "labelled-3":
            reference = Projector(reference.mat, 3)
        self._rejected(monkeypatch, reference, BadRank, f"reference rank {rank} differs")

    @pytest.mark.parametrize("kind", ["projector", "frame"])
    def test_a_reference_of_another_dimension(self, monkeypatch, kind):
        # a 9 x 9 reference raised numpy's matmul ValueError after the run
        reference = random_projector(9, 3, 0)[0 if kind == "projector" else 1]
        self._rejected(monkeypatch, reference, DimensionMismatch, r"reference has shape \(9, 9\)")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_reference(self, monkeypatch, bad):
        mat = random_projector(8, 3, 0)[0].mat.copy()
        mat[0, 0] = bad
        self._rejected(monkeypatch, Projector(mat, 3), NotAProjector, "non-finite")


class _FixedStep(CostFunction):
    """A cost whose Newton solve returns a given step."""

    def __init__(self, z):
        self.z = z

    def newton_solve(self, frame, state):
        return self.z, state


class _StalledRayleigh(RayleighCost):
    """The trace cost with every Newton step replaced by Z = pi I."""

    def newton_solve(self, frame, state):
        return np.pi * np.eye(frame.rank), state


class _StepSequence(InvariantSubspaceCost):
    """The invariant-subspace cost whose Newton solves return the given
    steps in turn, the last one from then on."""

    def __init__(self, a, steps):
        super().__init__(a)
        object.__setattr__(self, "steps", list(steps))

    def newton_solve(self, frame, state):
        return (self.steps.pop(0) if len(self.steps) > 1 else self.steps[0]), state


def _long_step_problem():
    # LONG_STEP, of norm ~1.9e154 (its sum of squares overflows, its
    # sigma_max^2 does not), then a step whose Z Z^T overflows, which ends the run
    a = np.random.default_rng(15).standard_normal((6, 6))
    a[2:, :2] = 0.0
    return _StepSequence(a, [LONG_STEP, np.full((2, 4), 1e200)]), random_projector(6, 2, 7)[1]


class TestLongSteps:
    @pytest.mark.parametrize("nu", ["exp", "qr", "cayley"])
    def test_run_ends_with_no_convergence(self, nu):
        # the step is pushed (its sigma_max^2 is finite).  Cayley turns each
        # plane by 2 arctan(sigma / 2), here pi to round-off, which leaves the
        # subspace where it was: that step has stalled, and the run ends at once
        cost, start = _long_step_problem()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run_newton(cost, start, NewtonConfig(nu=nu), method="invariant-direct")
        assert trace.status == Status.NO_CONVERGENCE
        assert all(np.isfinite(r.step_norm) for r in trace.records)
        if nu == "cayley":
            assert len(trace.records) == 1
        else:
            assert len(trace.records) == 2
            assert trace.records[0].step_norm == np.sqrt(2.0) * frobenius_norm(LONG_STEP)

    @pytest.mark.parametrize("n", [4, 10, 40])
    def test_stalled_exp_step_is_no_convergence(self, n):
        # the exp chart turns every principal plane of Z = pi I by pi, which
        # returns the subspace to where it was; the distance it measures is
        # round-off, which grows with n and can pass step_tol (1.5e-15 at n = 10)
        for seed in range(20):
            frame = random_projector(n, n // 2, seed)[1]
            with pytest.raises(NoConvergence, match="stalled step: the exp push moved"):
                newton_step(_FixedStep(np.pi * np.eye(n // 2)), frame, NewtonConfig(nu="exp"), None)

    def test_stall_floor_exceeds_step_tol(self):
        # the stalled-step test compares with TOL.rate_floor sqrt(n) alone: every
        # frame has n >= 2, where that floor lies above TOL.step_tol
        assert TOL.rate_floor * np.sqrt(2.0) > TOL.step_tol

    def test_stalled_run_ends_after_one_step(self):
        # with step_tol alone as the test, this start ran to MaxIters: the
        # stalled step measured 1.0e-15
        a, dom = _gapped_symmetric(np.random.default_rng(0), 4, 2)
        trace = run_newton(_StalledRayleigh(a), perturb_frame(dom, 0.05, 1),
                           NewtonConfig(nu="exp"), method="rayleigh-gr")
        assert trace.status == Status.NO_CONVERGENCE
        assert len(trace.records) == 1

    def test_overflowing_step_norm_is_rescaled(self):
        # ||Z||_F^2 = 2e308 overflows, sigma_max^2 = 1e308 does not: pushed
        frame = random_projector(4, 2, 0)[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, info = newton_step(_FixedStep(1e154 * np.eye(2)), frame, NewtonConfig(nu="exp"), None)
        assert abs(info.step_norm - 2e154) <= 1e-15 * 2e154

    @pytest.mark.parametrize("nu", CHART_NAMES)
    def test_overflowing_gram_blocks_are_no_convergence(self, nu):
        # Z Z^T overflows to inf: sigma_max^2 is not finite
        frame = random_projector(3, 1, 0)[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergence, match=f"{nu} chart: .*overflow"):
                newton_step(_FixedStep(np.full((1, 2), 1e200)), frame, NewtonConfig(nu=nu), None)

    def test_unorthogonalizable_push_is_no_convergence(self):
        # a NaN step has no orthogonal push
        frame = random_projector(3, 1, 0)[1]
        for nu in CHART_NAMES:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NoConvergence, match=f"{nu} chart: .*non-finite"):
                    newton_step(_FixedStep(np.array([[np.nan, 1.0]])), frame,
                                NewtonConfig(nu=nu), None)

    def test_finite_step_norm_is_unchanged(self, rng):
        z = rng.standard_normal((2, 3))
        _, info = newton_step(_FixedStep(z), random_projector(5, 2, 0)[1], NewtonConfig(), None)
        assert info.step_norm == float(np.sqrt(2.0) * np.linalg.norm(z))

    @pytest.mark.parametrize("nu", ["qr", "cayley"])
    def test_overlong_step_is_pushed(self, nu):
        # I + Z^T Z loses its identity to round-off, which the factors formed
        # from it could not survive; the rotation is formed from the SVD of Z
        frame = random_projector(3, 1, 0)[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pushed, info = newton_step(_FixedStep(np.full((1, 2), 1e9)), frame,
                                       NewtonConfig(nu=nu), None)
        assert np.abs(pushed.theta @ pushed.theta.T - np.eye(3)).max() <= 1e-15
        assert info.step_norm == 2e9
