"""Lagrangian-subspace geometry: constraint, projection, charts, embedding."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import projnewton.lagrange
from projnewton.errors import NotAProjector
from projnewton.grassmann import push_frame
from projnewton.lagrange import (
    LagProjector,
    SymplecticFrame,
    lagrangian_residual,
    require_hamiltonian,
    symplectic_frame_from_basis,
)

from conftest import random_symmetric
from oracles import (
    cayley_transform,
    commutator,
    distance,
    geodesic,
    lg_tangent_project,
    param_from_tangent,
    random_lag_projector,
    sympl_form,
    tangent_from_param,
)

LG_CHARTS = ("exp", "qr", "cayley")


class TestSymplForm:
    """The module builds J once per n and shares it read-only."""

    def test_internal_j_is_built_once_per_size_and_read_only(self, rng):
        cached = projnewton.lagrange._sympl_form
        cached.cache_clear()
        s, t = random_symmetric(rng, 3), random_symmetric(rng, 3)
        h = np.block([[s, t], [t, -s]])
        j = sympl_form(3)
        assert np.array_equal(require_hamiltonian(h, "H", 1e-12), j @ h @ j)
        frame = symplectic_frame_from_basis(random_lag_projector(3, 4)[1].theta[:3].T)
        assert frame.symplecticity_residual() == float(np.abs(frame.theta.T @ j @ frame.theta - j).max())
        u = frame.theta[:3].T
        assert lagrangian_residual(u) == float(np.abs(u.T @ j @ u).max())
        info = cached.cache_info()
        assert info.misses == 1 and info.hits >= 4 and info.currsize == 1
        shared = cached(3)
        assert shared is cached(3) and not shared.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            shared[0, 0] = 1.0


class TestLagProjector:
    def test_frame_rejects_non_lagrangian(self):
        # leading rows e1, e3 in R^4 span a symplectic pair, not a Lagrangian subspace
        with pytest.raises(NotAProjector, match="symplecticity"):
            SymplecticFrame(np.eye(4)[[0, 2, 1, 3]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_frame_rejects_non_finite_entries(self, bad):
        theta = random_lag_projector(2, 3)[1].theta.copy()
        theta[0, 2] = bad
        with pytest.raises(NotAProjector, match="non-finite"):
            SymplecticFrame(theta)

    def test_zero_generator_frame(self):
        frame = SymplecticFrame(np.eye(6))
        p = frame.projector()
        assert_allclose(p.mat, np.diag([1.0] * 3 + [0.0] * 3), atol=0)


class TestRandomLagProjector:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_invariants(self, n):
        p, frame = random_lag_projector(n, seed=5)
        j = sympl_form(n)
        assert np.abs(p.mat @ j @ p.mat).max() <= 1e-10
        assert frame.symplecticity_residual() <= 1e-10
        assert np.abs(frame.theta @ frame.theta.T - np.eye(2 * n)).max() <= 1e-10

    def test_determinism(self):
        p1, _ = random_lag_projector(3, 9)
        p2, _ = random_lag_projector(3, 9)
        assert_allclose(p1.mat, p2.mat, atol=0)

    def test_generator_structure(self):
        # exp of [[X, -Y], [Y, X]] with X skew, Y symmetric is orthogonal
        # and symplectic
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 2))
        x = 0.5 * (x - x.T)
        y = random_symmetric(rng, 2)
        theta = scipy.linalg.expm(np.block([[x, -y], [y, x]]))
        SymplecticFrame(theta)  # constructor validates both residuals


class TestTangentProjection:
    def test_block_formula_at_standard_point(self, rng):
        n = 3
        p = LagProjector(np.diag([1.0] * n + [0.0] * n), n)
        x = random_symmetric(rng, 2 * n)
        out = lg_tangent_project(p, x)
        block = 0.5 * (x[:n, n:] + x[:n, n:].T)
        expected = np.zeros((2 * n, 2 * n))
        expected[:n, n:] = block
        expected[n:, :n] = block
        assert_allclose(out, expected, atol=1e-13)

    def test_fixed_point(self, rng):
        n = 2
        p = LagProjector(np.diag([1.0] * n + [0.0] * n), n)
        z = random_symmetric(rng, n)
        x = np.zeros((2 * n, 2 * n))
        x[:n, n:] = z
        x[n:, :n] = z
        assert_allclose(lg_tangent_project(p, x), x, atol=1e-13)

    def test_orthogonal_split(self, rng):
        p, _ = random_lag_projector(3, 1)
        x = random_symmetric(rng, 6)
        pi_x = lg_tangent_project(p, x)
        assert abs(np.trace(pi_x @ (x - pi_x))) <= 1e-10

    def test_idempotent_self_adjoint(self, rng):
        p, _ = random_lag_projector(2, 2)
        x = random_symmetric(rng, 4)
        y = random_symmetric(rng, 4)
        pi_x = lg_tangent_project(p, x)
        assert np.abs(lg_tangent_project(p, pi_x) - pi_x).max() <= 1e-10
        assert abs(np.trace(pi_x @ y) - np.trace(x @ lg_tangent_project(p, y))) <= 1e-10


class TestLgCharts:
    @pytest.mark.parametrize("chart", LG_CHARTS)
    def test_zero_returns_base(self, chart):
        p, frame = random_lag_projector(3, 0)
        out = push_frame(frame, np.zeros((3, 3)), chart).projector()
        assert np.abs(out.mat - p.mat).max() <= 1e-12

    def test_exp_scalar_quarter_turn(self):
        frame = SymplecticFrame(np.eye(2))
        out = push_frame(frame, np.array([[np.pi / 2]]), "exp").projector()
        assert_allclose(out.mat, np.array([[0.0, 0.0], [0.0, 1.0]]), atol=1e-15)

    def test_cayley_scalar_case(self):
        # parameter 2 sends the first axis to the second: basis (1 - 1, ±2)
        frame = SymplecticFrame(np.eye(2))
        out = push_frame(frame, np.array([[2.0]]), "cayley").projector()
        assert_allclose(out.mat, np.array([[0.0, 0.0], [0.0, 1.0]]), atol=1e-14)

    @pytest.mark.parametrize("chart", LG_CHARTS)
    def test_valid_lagrangian_result(self, chart, rng):
        _, frame = random_lag_projector(3, 4)
        z = random_symmetric(rng, 3)
        out = push_frame(frame, z, chart).projector()
        j = sympl_form(3)
        assert np.abs(out.mat @ j @ out.mat).max() <= 1e-9
        assert np.linalg.norm(out.mat @ out.mat - out.mat) <= 1e-9

    @pytest.mark.parametrize("chart", LG_CHARTS)
    def test_chart_factor_orthogonal_symplectic(self, chart, rng):
        # the Grassmann factor at symmetric Z is [[X, -Y], [Y, X]]; it is the
        # transposed push of the identity frame
        z = random_symmetric(rng, 4)
        factor = push_frame(SymplecticFrame(np.eye(8)), z, chart).theta.T
        j = sympl_form(4)
        assert np.abs(factor.T @ factor - np.eye(8)).max() <= 1e-10
        assert np.abs(factor.T @ j @ factor - j).max() <= 1e-10
        assert np.abs(factor[4:, 4:] - factor[:4, :4]).max() <= 1e-13
        assert np.abs(factor[4:, :4] + factor[:4, 4:]).max() <= 1e-13

    @pytest.mark.parametrize("chart", LG_CHARTS)
    def test_derivative_identity(self, chart, rng):
        _, frame = random_lag_projector(2, 6)
        z = random_symmetric(rng, 2)
        xi = tangent_from_param(frame, z).mat
        h = 1e-4
        plus = push_frame(frame, h * z, chart).projector().mat
        minus = push_frame(frame, -h * z, chart).projector().mat
        deriv = (plus - minus) / (2 * h)
        assert np.abs(deriv - xi).max() <= 1e-6

    def test_cayley_dual_route(self, rng):
        p, frame = random_lag_projector(3, 7)
        z = random_symmetric(rng, 3)
        xi = tangent_from_param(frame, z).mat
        k = commutator(xi, p.mat)
        direct = cayley_transform(k) @ p.mat @ cayley_transform(-k)
        assert np.abs(push_frame(frame, z, "cayley").projector().mat - direct).max() <= 1e-10

    def test_exp_dual_route(self, rng):
        p, frame = random_lag_projector(2, 8)
        z = random_symmetric(rng, 2)
        xi = tangent_from_param(frame, z).mat
        k = commutator(xi, p.mat)
        direct = scipy.linalg.expm(k) @ p.mat @ scipy.linalg.expm(-k)
        assert np.abs(push_frame(frame, z, "exp").projector().mat - direct).max() <= 1e-10

    def test_pairwise_cubic_agreement(self, rng):
        _, frame = random_lag_projector(3, 9)
        z = random_symmetric(rng, 3)
        z /= np.linalg.norm(z)
        eps_values = (1e-1, 1e-2, 1e-3)
        for a, b in (("exp", "qr"), ("exp", "cayley"), ("qr", "cayley")):
            diffs = [
                np.abs(push_frame(frame, e * z, a).projector().mat
                       - push_frame(frame, e * z, b).projector().mat).max()
                for e in eps_values
            ]
            slope = np.polyfit(np.log(eps_values), np.log(diffs), 1)[0]
            assert slope >= 2.9, (a, b, slope)

    def test_param_round_trip(self, rng):
        _, frame = random_lag_projector(3, 11)
        z = random_symmetric(rng, 3)
        xi = tangent_from_param(frame, z).mat
        assert_allclose(param_from_tangent(frame, xi), z, atol=1e-12)


class TestEmbedding:
    def test_tangent_is_j_invariant(self, rng):
        _, frame = random_lag_projector(3, 12)
        z = random_symmetric(rng, 3)
        xi = tangent_from_param(frame, z).mat
        j = sympl_form(3)
        assert np.abs(j @ xi @ j - xi).max() <= 1e-10

    def test_geodesics_stay_lagrangian(self, rng):
        p, frame = random_lag_projector(2, 13)
        z = random_symmetric(rng, 2)
        xi = tangent_from_param(frame, z).mat
        j = sympl_form(2)
        for t in (0.25, 0.8, 1.5):
            g = geodesic(p.as_projector(), xi, t)
            assert np.abs(g.mat @ j @ g.mat).max() <= 1e-9

    def test_geodesic_matches_lg_exp_chart(self, rng):
        p, frame = random_lag_projector(3, 14)
        z = random_symmetric(rng, 3)
        xi = tangent_from_param(frame, z).mat
        for t in (0.3, 1.0):
            a = geodesic(p.as_projector(), xi, t).mat
            b = push_frame(frame, t * z, "exp").projector().mat
            assert np.abs(a - b).max() <= 1e-9

    def test_distance_works_on_embedded_points(self):
        p, _ = random_lag_projector(2, 15)
        q, _ = random_lag_projector(2, 16)
        d = distance(p.as_projector(), q.as_projector())
        assert d >= 0.0
        assert abs(distance(p.as_projector(), p.as_projector())) <= 1e-12


class TestFrameConstruction:
    def test_frame_from_basis(self):
        p, frame = random_lag_projector(3, 17)
        rebuilt = symplectic_frame_from_basis(frame.theta[: frame.rank].T)
        assert np.abs(rebuilt.projector().mat - p.mat).max() <= 1e-10

    def test_push_frame_preserves_structure(self, rng):
        _, frame = random_lag_projector(2, 19)
        for chart in LG_CHARTS:
            z = random_symmetric(rng, 2, 0.3)
            frame = push_frame(frame, z, chart)
        assert frame.symplecticity_residual() <= 1e-12
