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
from projnewton.errors import DimensionMismatch, NotSymmetric
from projnewton.grassmann import CHART_NAMES, Projector, commutator, push_frame, random_projector
from projnewton.lagrange import LagProjector, random_lag_projector

from conftest import lagrangian_trace_problem, newton_solve_at, random_symmetric
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

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("block", ["a11", "a12", "a21", "a22"])
    def test_rejects_non_finite_blocks(self, block, value):
        # the four-term solver checks nothing: the cost rejects a non-finite
        # entry in any block of A where it enters
        gen = np.random.default_rng(3)
        blocks = {"a11": gen.standard_normal((2, 2)) + 3.0 * np.eye(2), "a12": gen.standard_normal((2, 3)),
                  "a21": 0.1 * gen.standard_normal((3, 2)), "a22": gen.standard_normal((3, 3)) - 3.0 * np.eye(3)}
        blocks[block][0, 1] = value
        with pytest.raises(DimensionMismatch, match="finite"):
            InvariantSubspaceCost(np.block([[blocks["a11"], blocks["a12"]], [blocks["a21"], blocks["a22"]]]))


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


class _NonFiniteCost(_QuadraticCost):
    """The quadratic cost with ``bad`` in one entry of its ambient gradient or
    of each Hessian image, as ``where`` says."""

    def __init__(self, b, where, bad):
        super().__init__(b)
        self.where, self.bad = where, bad

    def ambient_gradient(self, p):
        g = super().ambient_gradient(p)
        if self.where == "gradient":
            g[0, 0] = self.bad
        return g

    def ambient_hessian_apply(self, p, xi):
        h = np.array(xi)
        if self.where == "hessian":
            h[0, 0] = self.bad
        return h


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("where", ["gradient", "hessian"])
def test_dense_fallback_rejects_non_finite_data(where, bad):
    # the fallback checks the frame gradient before it assembles a Hessian
    # column, and solve_dense the Hessian it assembles from a cost's own data:
    # unchecked, a NaN Hessian would end in SingularOperator and a NaN
    # gradient in a NaN step.  An infinite gradient raises before the assembly
    # could multiply it by the zeros of the basis matrices, so nothing warns
    _, frame = random_projector(5, 2, 7)
    cost = _NonFiniteCost(random_symmetric(np.random.default_rng(7), 5), where, bad)
    applied, hessian = [], cost.ambient_hessian_apply
    cost.ambient_hessian_apply = lambda p, xi: applied.append(1) or hessian(p, xi)
    with pytest.raises(DimensionMismatch, match="finite"):
        newton_solve_at(cost, frame)
    assert len(applied) == (0 if where == "gradient" else 6)


class TestFrameTerms:
    """``frame_terms`` against the ambient oracles, to 1e-12 relative to the
    data scale: ||A||_F for the trace and quadratic costs, ||A||_F^2 for the
    invariant cost.  The terms are in the cost's units: times 2^units, in A's."""

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
            value, block = (np.ldexp(x, cost.units) for x in cost.frame_terms(frame)[:2])
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
        value, block = (np.ldexp(x, cost.units) for x in cost.frame_terms(frame)[:2])
        grad = riemannian_gradient_lg(cost, p)
        assert abs(value - cost.value(p.mat)) <= 1e-12 * scale
        assert np.abs(block - param_from_tangent(frame, grad)).max() <= 1e-12 * scale
        assert abs(np.sqrt(2.0) * np.linalg.norm(block) - np.linalg.norm(grad)) <= 1e-12 * scale


def _dense_lagrangian_step(cost, frame):
    """The Newton step on the Lagrange Grassmannian from the projector-
    coordinate oracles: Hess(xi) = -grad solved over the basis E_ij + E_ji
    of symmetric tangent parameters."""
    p, n = frame.projector(), frame.rank
    basis = []
    for i in range(n):
        for j in range(i, n):
            e = np.zeros((n, n))
            e[i, j] = e[j, i] = 1.0
            basis.append(e)
    hess = [param_from_tangent(frame, riemannian_hessian_apply_lg(
        cost, p, tangent_from_param(frame, e).mat)).reshape(-1) for e in basis]
    grad = param_from_tangent(frame, riemannian_gradient_lg(cost, p)).reshape(-1)
    coef = np.linalg.lstsq(np.array(hess).T, -grad, rcond=None)[0]
    return sum(c * e for c, e in zip(coef, basis))


class TestLagrangianNewtonStep:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_trace_cost_matches_the_dense_step(self, n):
        # a symmetric A that is not Hamiltonian: the Lyapunov step in
        # (B11 - B22) / 2 is the Riemannian Newton step on the submanifold
        a, _ = lagrangian_trace_problem(np.random.default_rng(n), n)
        _, frame = random_lag_projector(n, 300 + n)
        cost = RayleighCost(a)
        z, _ = newton_solve_at(cost, frame)
        dense = _dense_lagrangian_step(cost, frame)
        assert np.linalg.norm(z - dense) <= 1e-12 * np.linalg.norm(dense)
