"""Geometry tests: projections, geodesics, distance, and the three charts."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from projnewton.decomp import qr_positive
from projnewton.errors import (
    BadRank,
    DimensionMismatch,
    NotAProjector,
    SingularInput,
)
from projnewton.grassmann import (
    CHART_NAMES,
    _distance,
    OrthoFrame,
    Projector,
    frame_distance,
    frame_distances,
    push_frame,
    random_projector,
)

from conftest import random_symmetric
from oracles import (
    cayley_transform,
    chart_second_derivative_check,
    commutator,
    distance,
    distance_via_cosines,
    distance_via_sines,
    frame_from_projector,
    geodesic,
    param_from_tangent,
    random_lag_projector,
    tangent_from_param,
    tangent_project,
)


def _frame(n, m, seed=0):
    return random_projector(n, m, seed)[1]


class TestTangentProject:
    def test_block_formula_at_standard_point(self, rng):
        n, m = 5, 2
        p = Projector(np.diag([1.0] * m + [0.0] * (n - m)), m)
        x = random_symmetric(rng, n)
        out = tangent_project(p, x).mat
        expected = np.zeros((n, n))
        expected[:m, m:] = x[:m, m:]
        expected[m:, :m] = x[m:, :m]
        assert_allclose(out, expected, atol=1e-14)

    def test_tangent_fixed_point(self, rng):
        p, frame = random_projector(6, 2, 3)
        xi = tangent_from_param(frame, rng.standard_normal((2, 4)))
        out = tangent_project(p, xi.mat).mat
        assert np.abs(out - xi.mat).max() <= 1e-10

    def test_orthogonal_split(self, rng):
        p, _ = random_projector(5, 2, 1)
        x = random_symmetric(rng, 5)
        pi_x = tangent_project(p, x).mat
        assert abs(np.trace(pi_x @ (x - pi_x))) <= 1e-10

    def test_idempotent_and_self_adjoint(self, rng):
        p, _ = random_projector(6, 3, 2)
        x = random_symmetric(rng, 6)
        y = random_symmetric(rng, 6)
        pi_x = tangent_project(p, x).mat
        assert np.abs(tangent_project(p, pi_x).mat - pi_x).max() <= 1e-10
        lhs = np.trace(pi_x @ y)
        rhs = np.trace(x @ tangent_project(p, y).mat)
        assert abs(lhs - rhs) <= 1e-10

    def test_dimension_mismatch(self):
        p, _ = random_projector(4, 2, 0)
        with pytest.raises(DimensionMismatch):
            tangent_project(p, np.zeros((3, 3)))


class TestRandomProjector:
    def test_invariants(self):
        p, frame = random_projector(2, 1, 0)
        assert p.rank == 1
        assert np.linalg.norm(p.mat @ p.mat - p.mat) <= 1e-12

    def test_determinism(self):
        p1, f1 = random_projector(5, 2, 42)
        p2, f2 = random_projector(5, 2, 42)
        assert_allclose(p1.mat, p2.mat, atol=0)
        assert_allclose(f1.theta, f2.theta, atol=0)

    def test_trace(self):
        p, _ = random_projector(5, 2, 7)
        assert abs(np.trace(p.mat) - 2.0) <= 1e-12

    def test_bad_rank(self):
        with pytest.raises(BadRank):
            random_projector(4, 0, 0)
        with pytest.raises(BadRank):
            random_projector(4, 4, 0)


class TestFrameFromProjector:
    def test_standard_point(self):
        p = Projector(np.diag([1.0, 1.0, 0.0]), 2)
        frame = frame_from_projector(p)
        assert np.abs(frame.projector().mat - p.mat).max() <= 1e-12

    def test_half_half(self):
        p = Projector(np.array([[0.5, 0.5], [0.5, 0.5]]), 1)
        frame = frame_from_projector(p)
        assert np.abs(frame.projector().mat - p.mat).max() <= 1e-12
        assert_allclose(np.abs(frame.theta[0]), [np.sqrt(0.5)] * 2, atol=1e-12)

    def test_random_reconstruction(self):
        for seed in range(6):
            p, _ = random_projector(7, 3, seed)
            frame = frame_from_projector(p)
            assert np.abs(frame.projector().mat - p.mat).max() <= 1e-9
            assert abs(np.linalg.det(frame.theta) - 1.0) <= 1e-9


class TestGeodesic:
    def test_at_zero(self, rng):
        p, frame = random_projector(5, 2, 0)
        xi = tangent_from_param(frame, rng.standard_normal((2, 3)))
        assert np.abs(geodesic(p, xi, 0.0).mat - p.mat).max() <= 1e-14

    def test_ode_residual(self, rng):
        h = 1e-3
        p, frame = random_projector(5, 2, 1)
        z = rng.standard_normal((2, 3))
        z *= 0.5 / (np.sqrt(2.0) * np.linalg.norm(z))
        xi = tangent_from_param(frame, z)
        for t in (0.0, 0.7):
            plus = geodesic(p, xi, t + h).mat
            mid = geodesic(p, xi, t).mat
            minus = geodesic(p, xi, t - h).mat
            acc = (plus - 2 * mid + minus) / h**2
            vel = (plus - minus) / (2 * h)
            assert np.linalg.norm(acc + commutator(vel, commutator(vel, mid))) <= 1e-6

    def test_quarter_turn_on_line(self):
        p = Projector(np.diag([1.0, 0.0]), 1)
        frame = frame_from_projector(p)
        xi = tangent_from_param(frame, np.array([[1.0]]))
        out = geodesic(p, xi, np.pi / 2)
        assert_allclose(out.mat, np.diag([0.0, 1.0]), atol=1e-12)

    def test_matches_exp_chart_along_rays(self, rng):
        p, frame = random_projector(6, 2, 5)
        z = rng.standard_normal((2, 4))
        xi = tangent_from_param(frame, z)
        for t in (0.2, 0.9, 1.7):
            a = geodesic(p, xi, t).mat
            b = push_frame(frame, t * z, "exp").projector().mat
            assert np.abs(a - b).max() <= 1e-10


class TestDistance:
    def test_self_distance(self):
        p, _ = random_projector(5, 2, 0)
        assert distance(p, p) <= 1e-12

    def test_antipodal_line(self):
        p = Projector(np.diag([1.0, 0.0]), 1)
        q = Projector(np.diag([0.0, 1.0]), 1)
        assert abs(distance(p, q) - np.sqrt(2.0) * np.pi / 2) <= 1e-12
        assert abs(distance_via_cosines(p, q) - np.sqrt(2.0) * np.pi / 2) <= 1e-12

    @pytest.mark.parametrize("n,m", [(5, 2), (4, 3)])
    def test_cosine_sine_agreement(self, n, m):
        for seed in range(10):
            p, _ = random_projector(n, m, 2 * seed)
            q, _ = random_projector(n, m, 2 * seed + 1)
            assert abs(distance_via_cosines(p, q) - distance_via_sines(p, q)) <= 1e-9
            assert abs(distance(p, q) - distance_via_cosines(p, q)) <= 1e-9

    def test_symmetry(self):
        p, _ = random_projector(6, 2, 11)
        q, _ = random_projector(6, 2, 12)
        assert abs(distance(p, q) - distance(q, p)) <= 1e-9

    def test_squared_half_distance_formula(self):
        # (1/2) dist^2 = tr arccos^2 (Y^T P Y)^(1/2) for Q = Y Y^T
        from projnewton.decomp import sym_eig

        for seed in range(5):
            p, _ = random_projector(5, 2, 100 + seed)
            q, fq = random_projector(5, 2, 200 + seed)
            y = fq.theta[: fq.rank].T
            w, v = sym_eig(y.T @ p.mat @ y)
            w = np.clip(w, 0.0, 1.0)
            half_sq = np.sum(np.arccos(np.sqrt(w)) ** 2)
            assert abs(half_sq - 0.5 * distance(p, q) ** 2) <= 1e-8

    def test_frame_independence(self):
        # distance computed after an arbitrary orthogonal change of basis agrees
        p, _ = random_projector(5, 2, 31)
        q, _ = random_projector(5, 2, 32)
        rot, _ = qr_positive(np.random.default_rng(33).standard_normal((5, 5)))
        p2 = Projector(rot.T @ p.mat @ rot, 2)
        q2 = Projector(rot.T @ q.mat @ rot, 2)
        assert abs(distance(p, q) - distance(p2, q2)) <= 1e-9

    def test_small_distance_accuracy(self, rng):
        # hybrid evaluation keeps full precision near zero separation
        p, frame = random_projector(6, 3, 8)
        z = rng.standard_normal((3, 3))
        for eps in (1e-3, 1e-7, 1e-11):
            zz = z * (eps / (np.sqrt(2.0) * np.linalg.norm(z)))
            q = push_frame(frame, zz, "exp").projector()
            d = distance(p, q)
            assert abs(d - eps) <= 1e-4 * eps + 1e-15

    @pytest.mark.parametrize("n,m", [(5, 2), (6, 3), (7, 5), (9, 8), (12, 3)])
    @pytest.mark.parametrize("angles", ["near-zero", "generic", "near-right"])
    def test_frame_distance_matches_oracles(self, n, m, angles):
        # the angles are the singular values of Z in the exponential chart
        for seed in range(5):
            rng = np.random.default_rng(seed)
            p, frame = random_projector(n, m, seed)
            r = min(m, n - m)
            if angles == "near-zero":
                sigma = 1e-9 * rng.uniform(0.5, 1.0, r)
            elif angles == "near-right":
                sigma = np.pi / 2 - 1e-9 * rng.uniform(0.5, 1.0, r)
            else:
                sigma = rng.uniform(0.1, 1.4, r)
            u = np.linalg.qr(rng.standard_normal((m, r)))[0]
            v = np.linalg.qr(rng.standard_normal((n - m, r)))[0]
            target = push_frame(frame, u @ np.diag(sigma) @ v.T, "exp")
            q = target.projector()
            d = frame_distance(frame, q.mat)
            assert abs(d - np.sqrt(2.0) * np.linalg.norm(sigma)) <= 1e-14
            assert abs(d - distance(p, q)) <= 1e-14
            # the eigenvalue routes read cos^2 and sin^2, so near 0 and pi/2
            # they keep only half the digits
            tol = 1e-12 if angles == "generic" else 1e-6
            assert abs(d - distance_via_cosines(p, q)) <= tol
            assert abs(d - distance_via_sines(p, q)) <= tol

    def test_frame_distance_is_distance_to_the_range(self):
        # the projector of any orthonormal basis of the target gives the same distance
        p, frame = random_projector(7, 3, 4)
        q, target = random_projector(7, 3, 5)
        rot = qr_positive(np.random.default_rng(6).standard_normal((3, 3)))[0]
        expected = distance(p, q)
        assert abs(frame_distance(frame, q.mat) - expected) <= 1e-14
        rebuilt = frame_from_projector(q)
        for u in (target.theta[:3].T, target.theta[:3].T @ rot, rebuilt.theta[:3].T):
            assert abs(frame_distance(frame, u @ u.T) - expected) <= 1e-14

    @pytest.mark.parametrize("case", ["m<n/2", "m>n/2", "symplectic"])
    def test_stacked_distances_match_per_frame_distances(self, case):
        # run_newton takes every iterate's distance in one stacked pass; the
        # oracle is one _distance call per frame on its own row blocks
        rng = np.random.default_rng(8)
        if case == "symplectic":
            target = random_lag_projector(4, 99)[1]
            frames = [random_lag_projector(4, seed)[1] for seed in range(5)]
            z = rng.standard_normal((4, 4))
            z = z + z.T
        else:
            n, m = (9, 2) if case == "m<n/2" else (9, 7)
            target = random_projector(n, m, 99)[1]
            frames = [random_projector(n, m, seed)[1] for seed in range(5)]
            z = rng.standard_normal((m, n - m))
        # the target itself, and tiny and near-right angles from it
        frames += [target] + [push_frame(target, t * z / np.linalg.norm(z, 2), "exp")
                              for t in (1e-9, 1e-3, np.pi / 2 - 1e-9)]
        m, p = target.rank, target.projector().mat
        stacked = frame_distances(frames, p)
        assert stacked.shape == (len(frames),)
        for dist, frame in zip(stacked, frames):
            lead = frame.theta[:m]
            assert abs(dist - _distance(lead @ p, lead - lead @ p)) <= 1e-15
            assert abs(dist - frame_distance(frame, p)) <= 1e-15


def _two_svd_distance(cos_mat, sin_mat):
    """The reference for ``_distance``: both SVDs always, and an arcsine
    wherever the cosine clears cos(pi/4)."""
    cos = np.clip(np.linalg.svd(cos_mat, compute_uv=False), 0.0, 1.0)
    sin = np.clip(np.linalg.svd(sin_mat, compute_uv=False), 0.0, 1.0)[..., ::-1]
    theta = np.where(cos > np.cos(np.pi / 4), np.arcsin(sin), np.arccos(cos))
    return np.sqrt(2.0 * np.sum(theta * theta, axis=-1))


def _turned(frame, angles, seed):
    """``frame`` pushed by exp through the principal ``angles`` (as many as
    min(m, n - m)), in directions drawn from ``seed``; symmetric on a
    symplectic frame, where the angles are |eigenvalues| of Z."""
    rng = np.random.default_rng(seed)
    m, k = frame.rank, frame.dim - frame.rank
    u = np.linalg.qr(rng.standard_normal((m, len(angles))))[0]
    if frame.symmetric_steps:
        return push_frame(frame, u @ np.diag(angles) @ u.T, "exp")
    v = np.linalg.qr(rng.standard_normal((k, len(angles))))[0]
    return push_frame(frame, u @ np.diag(angles) @ v.T, "exp")


class TestOneSvdDistance:
    """``_distance`` decomposes the cosines only when a sine passes 0.7, and
    its distances equal those of both decompositions, bit for bit."""

    @staticmethod
    def _batch(case, largest, seed=0):
        if case == "symplectic":
            target = random_lag_projector(4, 99)[1]
        else:
            target = random_projector(*{"m<n/2": (9, 2), "m>n/2": (9, 7)}[case], 99)[1]
        r = min(target.rank, target.dim - target.rank)
        rng = np.random.default_rng(seed)
        frames = [target]
        for i, top in enumerate(largest):
            angles = np.concatenate([[top], rng.uniform(0.0, min(top, 0.6), r - 1)])
            frames.append(_turned(target, angles, 10 * seed + i))
        return frames, target.rank, target.projector().mat

    @staticmethod
    def _counted(monkeypatch, frames, m, p):
        svd, calls = np.linalg.svd, []

        def counting(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return svd(*args, **kwargs)

        lead = np.stack([frame.theta[:m] for frame in frames])
        cos_mat = lead @ p
        expected = _two_svd_distance(cos_mat, lead - cos_mat)
        monkeypatch.setattr(np.linalg, "svd", counting)
        got = _distance(cos_mat, lead - cos_mat)
        monkeypatch.undo()
        assert np.array_equal(got, expected)
        assert np.array_equal(frame_distances(frames, p), expected)
        return calls

    @pytest.mark.parametrize("case", ["m<n/2", "m>n/2", "symplectic"])
    def test_sines_up_to_07_take_one_svd(self, monkeypatch, case):
        frames, m, p = self._batch(case, [1e-12, 1e-3, 0.3, np.arcsin(0.69)])
        calls = self._counted(monkeypatch, frames, m, p)
        assert calls == [(len(frames), m, p.shape[0])]  # the sine blocks only

    @pytest.mark.parametrize("case", ["m<n/2", "m>n/2", "symplectic"])
    @pytest.mark.parametrize("top", [np.pi / 4 + 1e-3, np.pi / 2 - 1e-9],
                             ids=["just-past", "near-right"])
    def test_an_angle_past_pi_over_4_takes_the_cosines(self, monkeypatch, case, top):
        frames, m, p = self._batch(case, [1e-12, 0.3, top])
        calls = self._counted(monkeypatch, frames, m, p)
        assert calls == [(len(frames), m, p.shape[0])] * 2

    @pytest.mark.parametrize("case", ["m<n/2", "m>n/2", "symplectic"])
    @pytest.mark.parametrize("offset", [-1e-12, -1e-13, 0.0, 1e-13, 1e-12])
    def test_sines_near_07(self, monkeypatch, case, offset):
        # either branch may run at the threshold; the bits are the same
        frames, m, p = self._batch(case, [np.arcsin(0.7 + offset)] * 3, seed=1)
        assert len(self._counted(monkeypatch, frames, m, p)) in (1, 2)

    def test_single_frames_and_the_p_coordinate_oracle(self):
        # one frame, unbatched, with m > n/2: the (m, n) sine matrix has
        # as many singular values as the cosine matrix, n - m of them nonzero
        frames, m, p = self._batch("m>n/2", [0.5, 1.2])
        basis = frames[0].theta[:m].T  # frames[0] is the target
        for frame in frames:
            cos_mat = frame.theta[:m] @ p
            sin_mat = frame.theta[:m] - cos_mat
            assert _distance(cos_mat, sin_mat) == _two_svd_distance(cos_mat, sin_mat)
            # the oracle's (n, m) cosine matrix P U: as many sines as cosines
            puq = frame.projector().mat @ basis
            assert _distance(puq, basis - puq) == _two_svd_distance(puq, basis - puq)


def _factor(z, chart):
    """The chart's orthogonal hat-space factor M at Z: the pushed frame is
    M^T Theta, so M is the transposed push of the identity frame."""
    m, k = np.shape(z)
    return push_frame(OrthoFrame(np.eye(m + k), m), z, chart).theta.T


def _inv_sqrt(s):
    values, vectors = np.linalg.eigh(s)
    return (vectors / np.sqrt(values)) @ vectors.T


class TestCharts:
    @pytest.mark.parametrize("m,k", [(2, 3), (1, 4), (4, 1)])
    def test_factor_matches_dense_closed_form(self, m, k):
        # qr: the polar factor [[R, -Z S], [Z^T R, S]], R = (I + Z Z^T)^(-1/2),
        # S = (I + Z^T Z)^(-1/2); Cayley: (2I + K)(2I - K)^(-1), K the hat
        # commutator [[0, -Z], [Z^T, 0]]
        z = np.random.default_rng(m + 10 * k).standard_normal((m, k))
        r, s = _inv_sqrt(np.eye(m) + z @ z.T), _inv_sqrt(np.eye(k) + z.T @ z)
        polar = np.block([[r, -z @ s], [z.T @ r, s]])
        assert np.abs(_factor(z, "qr") - polar).max() <= 1e-14
        k_hat = np.block([[np.zeros((m, m)), -z], [z.T, np.zeros((k, k))]])
        assert np.abs(_factor(z, "cayley") - cayley_transform(k_hat)).max() <= 1e-14

    def test_long_step_factor_is_formed(self):
        # I + Z Z^T loses its identity to round-off at this length; the
        # rotation the push applies does not form it
        z = np.full((1, 2), 1e9)
        for chart in CHART_NAMES:
            f = _factor(z, chart)
            assert np.abs(f.T @ f - np.eye(3)).max() <= 1e-15
        # the graph chart at Z is span [1; Z^T]: its first column
        graph = np.array([1.0, 1e9, 1e9]) / np.sqrt(1.0 + 2e18)
        assert np.abs(_factor(z, "qr")[:, 0] - graph).max() <= 1e-15

    @pytest.mark.parametrize("chart", CHART_NAMES)
    def test_overflowing_gram_blocks_raise_a_library_error(self, chart):
        # Z Z^T overflows: sigma_max^2 is not finite
        z = np.full((1, 2), 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularInput, match="overflow"):
                push_frame(_frame(3, 1), z, chart)

    def test_overlong_step_factor_raises_a_library_error(self):
        # an infinite or NaN step has no factor
        for bad in (np.inf, -np.inf, np.nan):
            z = np.array([[1.0, bad]])
            for chart in CHART_NAMES:
                with pytest.raises(SingularInput, match="non-finite"):
                    push_frame(_frame(3, 1), z, chart)

    @pytest.mark.parametrize("chart", CHART_NAMES)
    def test_zero_returns_base(self, chart):
        p, frame = random_projector(5, 2, 0)
        out = push_frame(frame, np.zeros((2, 3)), chart).projector()
        assert np.abs(out.mat - p.mat).max() <= 1e-12

    @pytest.mark.parametrize("chart", CHART_NAMES)
    def test_derivative_identity(self, chart, rng):
        _, frame = random_projector(5, 2, 1)
        z = rng.standard_normal((2, 3))
        xi = tangent_from_param(frame, z).mat
        h = 1e-4
        plus = push_frame(frame, h * z, chart).projector().mat
        minus = push_frame(frame, -h * z, chart).projector().mat
        deriv = (plus - minus) / (2 * h)
        assert np.abs(deriv - xi).max() <= 1e-6

    @pytest.mark.parametrize("chart", CHART_NAMES)
    def test_returns_valid_projector(self, chart, rng):
        _, frame = random_projector(6, 2, 2)
        z = rng.standard_normal((2, 4))
        out = push_frame(frame, z, chart).projector()
        assert np.linalg.norm(out.mat @ out.mat - out.mat) <= 1e-10
        assert abs(np.trace(out.mat) - 2.0) <= 1e-10

    def test_exp_equals_geodesic_time_one(self, rng):
        p, frame = random_projector(5, 2, 3)
        z = rng.standard_normal((2, 3))
        xi = tangent_from_param(frame, z)
        out = push_frame(frame, z, "exp").projector()
        assert np.abs(out.mat - geodesic(p, xi, 1.0).mat).max() <= 1e-10

    def test_qr_closed_form_equals_generic_route(self, rng):
        # closed form via Cholesky factors against positive-QR of I + [xi, P]
        # in the frame
        p, frame = random_projector(5, 2, 4)
        z = rng.standard_normal((2, 3))
        xi = tangent_from_param(frame, z).mat
        k_hat = frame.theta @ commutator(xi, p.mat) @ frame.theta.T
        q, _ = qr_positive(np.eye(5) + k_hat)
        direct = frame.theta.T @ q @ np.diag([1.0, 1.0, 0, 0, 0]) @ q.T @ frame.theta
        assert np.abs(push_frame(frame, z, "qr").projector().mat - direct).max() <= 1e-10
        assert abs(np.linalg.det(q) - 1.0) <= 1e-10

    def test_cayley_closed_form_equals_direct_product(self, rng):
        p, frame = random_projector(6, 3, 5)
        z = rng.standard_normal((3, 3))
        xi = tangent_from_param(frame, z).mat
        k = commutator(xi, p.mat)
        cay = cayley_transform(k)
        direct = cay @ p.mat @ cayley_transform(-k)
        assert np.abs(push_frame(frame, z, "cayley").projector().mat - direct).max() <= 1e-10

    def test_chart_factors_orthogonal(self, rng):
        z = rng.standard_normal((2, 4))
        for chart in CHART_NAMES:
            f = _factor(z, chart)
            assert np.abs(f.T @ f - np.eye(6)).max() <= 1e-12


class TestSecondDerivative:
    def test_zero_parameter(self):
        _, frame = random_projector(4, 2, 0)
        out = chart_second_derivative_check(frame, np.zeros((2, 2)), "exp")
        assert np.abs(out).max() <= 1e-12

    def test_analytic_line_case(self):
        # on the projective line the second derivative is
        # Theta^T diag(-2 z^2, 2 z^2) Theta for every chart
        _, frame = random_projector(2, 1, 3)
        z = np.array([[0.8]])
        target = frame.theta.T @ np.diag([-2 * 0.64, 2 * 0.64]) @ frame.theta
        for chart in CHART_NAMES:
            approx = chart_second_derivative_check(frame, z, chart)
            assert np.abs(approx - target).max() <= 1e-4

    def test_all_charts_agree(self, rng):
        _, frame = random_projector(5, 2, 6)
        z = rng.standard_normal((2, 3))
        z /= np.linalg.norm(z)
        outs = [chart_second_derivative_check(frame, z, c) for c in CHART_NAMES]
        for other in outs[1:]:
            assert np.abs(outs[0] - other).max() <= 1e-4

    def test_matches_block_formula(self, rng):
        n, m = 6, 2
        _, frame = random_projector(n, m, 7)
        z = rng.standard_normal((m, n - m))
        z /= np.linalg.norm(z)
        target = np.zeros((n, n))
        target[:m, :m] = -2.0 * z @ z.T
        target[m:, m:] = 2.0 * z.T @ z
        target = frame.theta.T @ target @ frame.theta
        for chart in CHART_NAMES:
            approx = chart_second_derivative_check(frame, z, chart)
            assert np.abs(approx - target).max() <= 1e-4


class TestChartAgreementOrder:
    def test_pairwise_cubic_order(self, rng):
        # equal first and second derivatives make chart differences O(eps^3)
        _, frame = random_projector(5, 2, 9)
        z = rng.standard_normal((2, 3))
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


class TestMetricEquality:
    def test_commutator_metric(self, rng):
        for seed in range(5):
            p, frame = random_projector(6, 2, seed)
            z1 = rng.standard_normal((2, 4))
            z2 = rng.standard_normal((2, 4))
            xi1 = tangent_from_param(frame, z1).mat
            xi2 = tangent_from_param(frame, z2).mat
            om1 = commutator(xi1, p.mat)
            om2 = commutator(xi2, p.mat)
            assert abs(np.trace(xi1.T @ xi2) - np.trace(om1.T @ om2)) <= 1e-10 * max(
                1.0, abs(np.trace(xi1.T @ xi2))
            )


class TestFrameAdvance:
    def test_orthogonality_over_pushes(self, rng):
        # push_frame does not re-orthogonalize; 45 pushes stay orthogonal
        _, frame = random_projector(4, 2, 0)
        for i in range(45):
            z = 0.01 * rng.standard_normal((2, 2))
            frame = push_frame(frame, z, "qr")
        assert np.abs(frame.theta @ frame.theta.T - np.eye(4)).max() <= 1e-12

    @pytest.mark.parametrize("chart", ["qr", "cayley"])
    def test_long_step_stays_orthogonal(self, chart):
        # a 1e4-long step, which the chart factors formed from I + Z Z^T
        # pushed off the orthogonality floor, stays at round-off
        frame = _frame(6, 2)
        z = 1e4 * np.random.default_rng(0).standard_normal((2, 4))
        pushed = push_frame(frame, z, chart)
        assert np.abs(pushed.theta @ pushed.theta.T - np.eye(6)).max() <= 1e-14

    def test_constructor_checks_orthogonality(self):
        theta = _frame(5, 2).theta
        with pytest.raises(NotAProjector, match="orthogonality"):
            OrthoFrame(1.001 * theta, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_constructor_rejects_non_finite_frames(self, bad):
        # a NaN orthogonality defect would pass a "defect > tol" test
        theta = _frame(5, 2).theta.copy()
        theta[1, 3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotAProjector, match="non-finite"):
                OrthoFrame(theta, 2)

    def test_constructor_requires_square_rows(self):
        # a row-orthonormal (2, 3) theta passes theta theta^T = I
        from projnewton.lagrange import SymplecticFrame

        for theta in (np.eye(2, 3), np.eye(3, 2), np.ones(3), np.float64(1.0), np.ones((1, 2, 2))):
            with pytest.raises(DimensionMismatch, match="square"):
                OrthoFrame(theta, 1)
        for theta in (np.eye(2, 4), np.eye(4, 2), np.ones(4), np.float64(1.0)):
            with pytest.raises(DimensionMismatch, match="square"):
                SymplecticFrame(theta)

    @pytest.mark.parametrize("kind", ["grassmann", "symplectic"])
    def test_with_theta_keeps_the_frame_and_checks_nothing(self, monkeypatch, kind):
        from projnewton.lagrange import SymplecticFrame

        frame = _frame(6, 2) if kind == "grassmann" else random_lag_projector(3, 0)[1]
        rows = frame.theta.copy()
        new = 1.5 * frame.theta  # not orthogonal: only an entry check would notice

        def forbidden(self):
            raise AssertionError("a frame was checked")

        monkeypatch.setattr(type(frame), "__post_init__", forbidden)
        out = frame._with_theta(new)
        assert type(out) is type(frame)
        assert isinstance(out, SymplecticFrame) == (kind == "symplectic")
        assert out.rank == frame.rank and out.symmetric_steps == frame.symmetric_steps
        assert out.theta is new and out.theta is not frame.theta
        assert np.array_equal(frame.theta, rows)
        assert vars(out) is not vars(frame) and vars(out).keys() == vars(frame).keys()
        with pytest.raises(AttributeError):
            out.theta = rows  # still frozen

    def test_param_round_trip(self, rng):
        _, frame = random_projector(5, 2, 1)
        z = rng.standard_normal((2, 3))
        xi = tangent_from_param(frame, z)
        assert_allclose(param_from_tangent(frame, xi), z, atol=1e-12)
