"""Cost-function tests: ambient data against finite differences, Riemannian
assembly against the closed forms and chart pullbacks."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from projnewton.costs import (
    CostFunction,
    HamiltonianRayleighCost,
    InvariantSubspaceCost,
    RayleighCost,
)
from projnewton.decomp import sym_eig
from projnewton.errors import NotSymmetric
from projnewton.grassmann import CHART_NAMES, Projector, commutator, push_frame, random_projector
from projnewton.lagrange import LagProjector, random_lag_projector

from conftest import random_symmetric
from oracles import (
    lg_tangent_project,
    param_from_tangent,
    riemannian_gradient_gr,
    riemannian_gradient_lg,
    riemannian_hessian_apply_gr,
    riemannian_hessian_apply_lg,
    tangent_from_param,
)


def _rayleigh(rng, n):
    return RayleighCost(random_symmetric(rng, n))


def _hamiltonian(rng, n):
    return HamiltonianRayleighCost.from_blocks(
        random_symmetric(rng, n), random_symmetric(rng, n)
    )


class TestAmbientData:
    @pytest.mark.parametrize("kind", ["rayleigh", "invariant"])
    def test_gradient_matches_finite_difference(self, kind, rng):
        n = 5
        cost = _rayleigh(rng, n) if kind == "rayleigh" else InvariantSubspaceCost(
            rng.standard_normal((n, n))
        )
        p = random_symmetric(rng, n)
        h = 1e-5
        for _ in range(3):
            direction = random_symmetric(rng, n)
            fd = (cost.value(p + h * direction) - cost.value(p - h * direction)) / (2 * h)
            exact = np.trace(cost.ambient_gradient(p) @ direction)
            assert abs(fd - exact) <= 1e-5 * max(1.0, abs(exact))

    def test_hessian_bilinear_symmetry(self, rng):
        n = 4
        cost = InvariantSubspaceCost(rng.standard_normal((n, n)))
        p = random_symmetric(rng, n)
        xi = random_symmetric(rng, n)
        eta = random_symmetric(rng, n)
        lhs = np.trace(cost.ambient_hessian_apply(p, xi) @ eta)
        rhs = np.trace(cost.ambient_hessian_apply(p, eta) @ xi)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

    def test_hessian_linearity(self, rng):
        n = 4
        cost = InvariantSubspaceCost(rng.standard_normal((n, n)))
        p = random_symmetric(rng, n)
        xi = random_symmetric(rng, n)
        eta = random_symmetric(rng, n)
        out = cost.ambient_hessian_apply(p, 2.0 * xi - 3.0 * eta)
        ref = 2.0 * cost.ambient_hessian_apply(p, xi) - 3.0 * cost.ambient_hessian_apply(p, eta)
        assert_allclose(out, ref, atol=1e-12)

    def test_hamiltonian_structure_enforced(self, rng):
        with pytest.raises(NotSymmetric):
            HamiltonianRayleighCost(random_symmetric(rng, 4))


class TestGrassmannGradient:
    def test_commuting_case_vanishes(self):
        cost = RayleighCost(np.diag([3.0, 2.0, 1.0]))
        p = Projector(np.diag([1.0, 0.0, 0.0]), 1)
        assert np.abs(riemannian_gradient_gr(cost, p).mat).max() <= 1e-14

    def test_direct_2x2_commutator(self):
        a = np.diag([2.0, 1.0])
        p_mat = np.array([[0.5, 0.5], [0.5, 0.5]])
        cost = RayleighCost(a)
        p = Projector(p_mat, 1)
        # independent evaluation by explicit multiplication
        inner = p_mat @ a - a @ p_mat
        expected = p_mat @ inner - inner @ p_mat
        assert_allclose(riemannian_gradient_gr(cost, p).mat, expected, atol=1e-14)
        assert_allclose(expected, np.array([[0.5, 0.0], [0.0, -0.5]]), atol=1e-14)

    @pytest.mark.parametrize("kind", ["rayleigh", "invariant"])
    def test_directional_derivative(self, kind, rng):
        n, m = 5, 2
        cost = _rayleigh(rng, n) if kind == "rayleigh" else InvariantSubspaceCost(
            rng.standard_normal((n, n))
        )
        p, frame = random_projector(n, m, 3)
        z = rng.standard_normal((m, n - m))
        xi = tangent_from_param(frame, z)
        h = 1e-5
        fd = (
            cost.value(push_frame(frame, h * z, "exp").projector().mat)
            - cost.value(push_frame(frame, -h * z, "exp").projector().mat)
        ) / (2 * h)
        exact = np.trace(riemannian_gradient_gr(cost, p).mat @ xi.mat)
        assert abs(fd - exact) <= 1e-5 * max(1.0, abs(exact))

    def test_vanishes_at_spectral_projector(self, rng):
        a = random_symmetric(rng, 6)
        values, vectors = sym_eig(a)
        u = vectors[:, :2]
        p = Projector(u @ u.T, 2)
        assert riemannian_gradient_gr(RayleighCost(a), p).norm <= 1e-10


class TestGrassmannHessian:
    def test_rayleigh_closed_form(self, rng):
        # for the trace cost the Hessian action is exactly -[P, [A, xi]]
        n, m = 5, 2
        cost = _rayleigh(rng, n)
        p, frame = random_projector(n, m, 4)
        xi = tangent_from_param(frame, rng.standard_normal((m, n - m)))
        out = riemannian_hessian_apply_gr(cost, p, xi).mat
        expected = -commutator(p.mat, commutator(cost.a, xi.mat))
        assert np.abs(out - expected).max() <= 1e-12

    def test_invariant_closed_form(self, rng):
        # gradient [P,[P, A^T A - A^T P A - A P A^T]] and the two-term
        # Hessian action, evaluated independently
        n, m = 5, 2
        a = rng.standard_normal((n, n))
        cost = InvariantSubspaceCost(a)
        p, frame = random_projector(n, m, 5)
        pm = p.mat
        xi = tangent_from_param(frame, rng.standard_normal((m, n - m))).mat
        core = a.T @ a - a.T @ pm @ a - a @ pm @ a.T
        grad_expected = commutator(pm, commutator(pm, core))
        assert np.abs(riemannian_gradient_gr(cost, p).mat - grad_expected).max() <= 1e-10
        hess_expected = -commutator(pm, commutator(pm, a.T @ xi @ a + a @ xi @ a.T))
        hess_expected -= commutator(pm, commutator(core, xi))
        out = riemannian_hessian_apply_gr(cost, p, xi).mat
        assert np.abs(out - hess_expected).max() <= 1e-10

    @pytest.mark.parametrize("chart", CHART_NAMES)
    @pytest.mark.parametrize("kind", ["rayleigh", "invariant"])
    def test_quadratic_form_finite_difference(self, chart, kind, rng):
        n, m = 5, 2
        cost = _rayleigh(rng, n) if kind == "rayleigh" else InvariantSubspaceCost(
            rng.standard_normal((n, n))
        )
        p, frame = random_projector(n, m, 6)
        z = rng.standard_normal((m, n - m))
        z /= np.linalg.norm(z)
        xi = tangent_from_param(frame, z)
        h = 1e-3
        fd = (
            cost.value(push_frame(frame, h * z, chart).projector().mat)
            - 2.0 * cost.value(p.mat)
            + cost.value(push_frame(frame, -h * z, chart).projector().mat)
        ) / h**2
        exact = np.trace(riemannian_hessian_apply_gr(cost, p, xi).mat @ xi.mat)
        assert abs(fd - exact) <= 1e-4 * max(1.0, abs(exact))

    def test_self_adjoint_on_tangent_space(self, rng):
        n, m = 6, 2
        cost = InvariantSubspaceCost(rng.standard_normal((n, n)))
        p, frame = random_projector(n, m, 7)
        xi = tangent_from_param(frame, rng.standard_normal((m, n - m)))
        eta = tangent_from_param(frame, rng.standard_normal((m, n - m)))
        lhs = np.trace(riemannian_hessian_apply_gr(cost, p, xi).mat @ eta.mat)
        rhs = np.trace(riemannian_hessian_apply_gr(cost, p, eta).mat @ xi.mat)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


class TestLagrangeGradient:
    def test_commuting_case(self):
        s = np.diag([1.0, -1.0])
        cost = HamiltonianRayleighCost.from_blocks(s, np.zeros((2, 2)))
        p = LagProjector.from_matrix(np.diag([1.0, 1.0, 0.0, 0.0]))
        assert np.abs(riemannian_gradient_lg(cost, p)).max() <= 1e-14

    def test_equals_tangent_projection_of_gradient(self, rng):
        n = 3
        cost = _hamiltonian(rng, n)
        p, _ = random_lag_projector(n, 8)
        out = riemannian_gradient_lg(cost, p)
        expected = lg_tangent_project(p, cost.ambient_gradient(p.mat))
        assert np.abs(out - expected).max() <= 1e-10

    def test_reduces_to_double_commutator(self, rng):
        # J H J = H collapses the projection to [P, [P, H]]
        n = 2
        cost = _hamiltonian(rng, n)
        p, _ = random_lag_projector(n, 9)
        expected = commutator(p.mat, commutator(p.mat, cost.h))
        assert np.abs(riemannian_gradient_lg(cost, p) - expected).max() <= 1e-10


class TestLagrangeHessian:
    def test_hamiltonian_closed_form(self, rng):
        n = 3
        cost = _hamiltonian(rng, n)
        p, frame = random_lag_projector(n, 10)
        z = random_symmetric(rng, n)
        xi = tangent_from_param(frame, z).mat
        out = riemannian_hessian_apply_lg(cost, p, xi)
        expected = -commutator(p.mat, commutator(cost.h, xi))
        assert np.abs(out - expected).max() <= 1e-10

    @pytest.mark.parametrize("chart", ("exp", "qr", "cayley"))
    def test_quadratic_form_finite_difference(self, chart, rng):
        n = 3
        cost = _hamiltonian(rng, n)
        p, frame = random_lag_projector(n, 11)
        z = random_symmetric(rng, n)
        z /= np.linalg.norm(z)
        xi = tangent_from_param(frame, z).mat
        h = 1e-3
        fd = (
            cost.value(push_frame(frame, h * z, chart).projector().mat)
            - 2.0 * cost.value(p.mat)
            + cost.value(push_frame(frame, -h * z, chart).projector().mat)
        ) / h**2
        exact = np.trace(riemannian_hessian_apply_lg(cost, p, xi) @ xi)
        assert abs(fd - exact) <= 1e-4 * max(1.0, abs(exact))

    def test_zero_cost(self, rng):
        class ZeroCost(HamiltonianRayleighCost):
            pass

        n = 2
        cost = HamiltonianRayleighCost(np.zeros((2 * n, 2 * n)))
        p, frame = random_lag_projector(n, 12)
        xi = tangent_from_param(frame, random_symmetric(rng, n)).mat
        assert np.abs(riemannian_hessian_apply_lg(cost, p, xi)).max() <= 1e-14

    def test_gradient_finite_difference_via_charts(self, rng):
        n = 2
        cost = _hamiltonian(rng, n)
        p, frame = random_lag_projector(n, 13)
        z = random_symmetric(rng, n)
        xi = tangent_from_param(frame, z).mat
        h = 1e-5
        fd = (
            cost.value(push_frame(frame, h * z, "qr").projector().mat)
            - cost.value(push_frame(frame, -h * z, "qr").projector().mat)
        ) / (2 * h)
        exact = np.trace(riemannian_gradient_lg(cost, p) @ xi)
        assert abs(fd - exact) <= 1e-5 * max(1.0, abs(exact))


class TestInvariantCostAmbient:
    def test_identity_matrix(self, rng):
        n = 4
        p = random_symmetric(rng, n)
        grad = InvariantSubspaceCost(np.eye(n)).ambient_gradient(p)
        assert_allclose(grad, np.eye(n) - 2.0 * p, atol=1e-12)

    def test_gradient_finite_difference(self, rng):
        n = 4
        a = rng.standard_normal((n, n))
        cost = InvariantSubspaceCost(a)
        p = random_symmetric(rng, n)
        grad = cost.ambient_gradient(p)
        h = 1e-5
        direction = random_symmetric(rng, n)
        fd = (cost.value(p + h * direction) - cost.value(p - h * direction)) / (2 * h)
        assert abs(fd - np.trace(grad @ direction)) <= 1e-5 * max(1.0, abs(fd))

    def test_hessian_symmetry(self, rng):
        n = 4
        a = rng.standard_normal((n, n))
        p = random_symmetric(rng, n)
        cost = InvariantSubspaceCost(a)
        xi = random_symmetric(rng, n)
        eta = random_symmetric(rng, n)
        hess_xi = cost.ambient_hessian_apply(p, xi)
        hess_eta = cost.ambient_hessian_apply(p, eta)
        assert abs(np.trace(hess_xi @ eta) - np.trace(hess_eta @ xi)) <= 1e-10

    def test_global_minima_are_invariant_subspaces(self, rng):
        # cost is zero exactly when the subspace is invariant
        n, m = 5, 2
        basis = np.linalg.qr(rng.standard_normal((n, m)))[0]
        # build A leaving span(basis) invariant
        comp = np.linalg.qr(np.hstack([basis, rng.standard_normal((n, n - m))]))[0][:, m:]
        a = basis @ rng.standard_normal((m, m)) @ basis.T + comp @ rng.standard_normal(
            (n - m, n - m)
        ) @ comp.T
        cost = InvariantSubspaceCost(a)
        p_inv = Projector(basis @ basis.T, m)
        assert cost.value(p_inv.mat) <= 1e-20
        p_rand, _ = random_projector(n, m, 100)
        residual = np.linalg.norm((np.eye(n) - p_rand.mat) @ a @ p_rand.mat)
        assert abs(cost.value(p_rand.mat) - residual**2) <= 1e-10
        assert cost.value(p_rand.mat) > 1e-4


class _QuadraticCost(CostFunction):
    """0.5 ||P - B||^2: no frame formulas of its own, so it takes the fallback."""

    def __init__(self, b):
        self.b = b

    def value(self, p):
        return 0.5 * np.linalg.norm(p - self.b) ** 2

    def ambient_gradient(self, p):
        return p - self.b

    def ambient_hessian_apply(self, p, xi):
        return xi


class TestFrameTerms:
    """``frame_terms`` against the ambient oracles, to 1e-12 relative to the
    data scale: ||A||_F for the trace and quadratic costs, ||A||_F^2 for the
    invariant cost."""

    @pytest.mark.parametrize("n,m", [(5, 2), (7, 5), (12, 3)])
    @pytest.mark.parametrize("seed", range(3))
    def test_grassmann_costs(self, n, m, seed):
        gen = np.random.default_rng(seed)
        p, frame = random_projector(n, m, 100 + seed)
        a = gen.standard_normal((n, n))
        sym = random_symmetric(gen, n)
        cases = [
            (RayleighCost(sym), np.linalg.norm(sym)),
            (InvariantSubspaceCost(a), np.linalg.norm(a) ** 2),
            (_QuadraticCost(sym), np.linalg.norm(sym) + np.sqrt(m)),
        ]
        for cost, scale in cases:
            value, block, _ = cost.frame_terms(frame)
            grad = riemannian_gradient_gr(cost, p)
            assert abs(value - cost.value(p.mat)) <= 1e-12 * scale
            assert np.abs(block - param_from_tangent(frame, grad)).max() <= 1e-12 * scale
            assert abs(np.sqrt(2.0) * np.linalg.norm(block) - grad.norm) <= 1e-12 * scale

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("seed", range(3))
    def test_hamiltonian_cost_on_symplectic_frames(self, n, seed):
        cost = _hamiltonian(np.random.default_rng(seed), n)
        p, frame = random_lag_projector(n, 200 + seed)
        scale = np.linalg.norm(cost.h)
        value, block, _ = cost.frame_terms(frame)
        grad = riemannian_gradient_lg(cost, p)
        assert abs(value - cost.value(p.mat)) <= 1e-12 * scale
        assert np.abs(block - param_from_tangent(frame, grad)).max() <= 1e-12 * scale
        assert abs(np.sqrt(2.0) * np.linalg.norm(block) - np.linalg.norm(grad)) <= 1e-12 * scale
