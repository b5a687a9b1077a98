"""Kernel tests: the conventions the LAPACK wrappers add (positive QR
diagonal, descending eigenvalues, error types),
checked against references that do not call the wrapped routine:
modified Gram-Schmidt for QR, scipy's syevr driver for eigh."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from projnewton.costs import HamiltonianRayleighCost, RayleighCost
from projnewton.decomp import frobenius_norm, qr_positive, sym_eig, symmetrize
from projnewton.errors import NotSymmetric, SingularInput
from projnewton.grassmann import OrthoFrame, push_frame


def _modified_gram_schmidt(m):
    """Reference QR: Q with orthonormal columns and upper R with positive
    diagonal, M = Q R, by modified Gram-Schmidt (no LAPACK)."""
    q = np.array(m, dtype=float)
    p = q.shape[1]
    r = np.zeros((p, p))
    for j in range(p):
        r[j, j] = np.sqrt(q[:, j] @ q[:, j])
        q[:, j] /= r[j, j]
        r[j, j + 1:] = q[:, j] @ q[:, j + 1:]
        q[:, j + 1:] -= np.outer(q[:, j], r[j, j + 1:])
    return q, r


class TestQrPositive:
    def test_identity(self):
        q, r = qr_positive(np.eye(4))
        assert_allclose(q, np.eye(4), atol=1e-14)
        assert_allclose(r, np.eye(4), atol=1e-14)

    def test_sign_fix_on_diagonal(self):
        q, r = qr_positive(np.diag([-2.0, 3.0]))
        assert_allclose(q, np.diag([-1.0, 1.0]), atol=1e-14)
        assert_allclose(r, np.diag([2.0, 3.0]), atol=1e-14)

    def test_reconstruction(self, rng):
        m = rng.standard_normal((5, 5)) + 3.0 * np.eye(5)
        q, r = qr_positive(m)
        assert np.linalg.norm(m - q @ r) <= 1e-12 * np.linalg.norm(m)
        assert np.abs(q.T @ q - np.eye(5)).max() <= 1e-12
        assert np.all(np.diag(r) > 0)

    def test_uniqueness_against_lapack(self, rng):
        # positive-diagonal QR is unique, so an independent route must agree
        for seed in range(5):
            m = np.random.default_rng(seed).standard_normal((6, 6))
            q1, r1 = qr_positive(m)
            q2, r2 = np.linalg.qr(m)
            signs = np.sign(np.diag(r2))
            q2 = q2 * signs
            r2 = (r2.T * signs).T
            assert_allclose(q1, q2, atol=1e-10)
            assert_allclose(r1, r2, atol=1e-10)

    @pytest.mark.parametrize("shape", [(6, 6), (8, 3)], ids=["square", "tall"])
    def test_against_gram_schmidt(self, shape):
        # well-conditioned inputs, where Gram-Schmidt is accurate
        for seed in range(5):
            m = np.random.default_rng(seed).standard_normal(shape) + 4.0 * np.eye(*shape)
            q, r = qr_positive(m)
            q_ref, r_ref = _modified_gram_schmidt(m)
            p = shape[1]
            assert_allclose(q[:, :p], q_ref, atol=1e-12)
            assert_allclose(r[:p], r_ref, atol=1e-12)
            assert_allclose(r[p:], 0.0, atol=0)

    def test_singular_input(self):
        m = np.ones((3, 3))
        with pytest.raises(SingularInput):
            qr_positive(m)

    def test_tall_input(self, rng):
        y = rng.standard_normal((6, 2))
        q, r = qr_positive(y)
        assert_allclose(q @ r, y, atol=1e-12)
        assert np.abs(q.T @ q - np.eye(6)).max() <= 1e-12
        # leading columns span the same subspace as y
        proj = q[:, :2] @ q[:, :2].T
        assert_allclose(proj @ y, y, atol=1e-12)


class TestSymEig:
    def test_diagonal_descending(self):
        values, vectors = sym_eig(np.diag([1.0, 4.0, 2.0]))
        assert_allclose(values, [4.0, 2.0, 1.0], atol=1e-14)
        # permutation of identity columns, up to sign
        assert_allclose(np.abs(vectors), np.eye(3)[:, [1, 2, 0]], atol=1e-12)

    def test_analytic_2x2(self):
        values, vectors = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert_allclose(values, [1.0, -1.0], atol=1e-14)
        s = 1.0 / np.sqrt(2.0)
        assert_allclose(np.abs(vectors), np.array([[s, s], [s, s]]), atol=1e-12)

    def test_residual_random(self, rng):
        s = rng.standard_normal((6, 6))
        s = 0.5 * (s + s.T)
        values, vectors = sym_eig(s)
        assert np.linalg.norm(s @ vectors - vectors @ np.diag(values)) <= 1e-10 * np.linalg.norm(s)
        assert np.abs(vectors.T @ vectors - np.eye(6)).max() <= 1e-12

    def test_against_lapack(self, rng):
        for seed in range(4):
            s = np.random.default_rng(seed).standard_normal((7, 7))
            s = 0.5 * (s + s.T)
            values, _ = sym_eig(s)
            ref = np.sort(np.linalg.eigvalsh(s))[::-1]
            assert_allclose(values, ref, atol=1e-10 * max(1.0, np.linalg.norm(s)))

    def test_entries_near_the_overflow_threshold(self):
        # M/2 + M^T/2 stays finite where M + M^T overflows (warnings are errors here)
        a = np.diag([1e308, 1.0])
        assert np.array_equal(symmetrize(a), a)
        values, vectors = sym_eig(a)
        assert np.array_equal(values, [1e308, 1.0])
        assert np.array_equal(np.abs(vectors), np.eye(2))
        cost = RayleighCost(a)
        assert np.ldexp(cost.scale, cost.units) == 1e308

    def test_symmetrize_keeps_the_bits_of_the_halved_sum(self, rng):
        # away from overflow and subnormals, halving is exact either side of the sum
        s = rng.standard_normal((7, 7)) * np.logspace(-100, 100, 7)
        assert np.array_equal(symmetrize(s), 0.5 * (s + s.T))

    def test_against_scipy_evr(self):
        # scipy's relatively robust representations driver (syevr), not the
        # divide-and-conquer driver (syevd) that numpy's eigh calls
        for seed in range(4):
            s = np.random.default_rng(seed).standard_normal((7, 7))
            s = 0.5 * (s + s.T)
            values, vectors = sym_eig(s)
            ref_values, ref_vectors = scipy.linalg.eigh(s, driver="evr")
            ref_values, ref_vectors = ref_values[::-1], ref_vectors[:, ::-1]
            scale = max(1.0, np.linalg.norm(s))
            assert_allclose(values, ref_values, atol=1e-12 * scale)
            gap = np.min(-np.diff(ref_values))
            signs = np.sign(np.sum(vectors * ref_vectors, axis=0))
            assert_allclose(vectors * signs, ref_vectors, atol=1e-12 * scale / gap)
            assert np.linalg.norm(s @ vectors - vectors * values) <= 1e-12 * scale
            assert np.linalg.norm(vectors.T @ vectors - np.eye(7)) <= 1e-12


class TestNonFiniteRejected:
    """A NaN or inf entry makes the symmetry defect NaN, which no threshold
    test rejects; ``require_symmetric`` rejects it by name instead.  The
    calls are the entries of the data that the Sylvester solve of Algorithms
    1 and 2 takes, as that solver checks nothing."""

    CALLS = {
        "sym_eig": sym_eig,
        "RayleighCost": RayleighCost,
        "HamiltonianRayleighCost": HamiltonianRayleighCost,
        "HamiltonianRayleighCost.from_blocks-S": lambda a: HamiltonianRayleighCost.from_blocks(a, np.zeros_like(a)),
        "HamiltonianRayleighCost.from_blocks-T": lambda a: HamiltonianRayleighCost.from_blocks(np.eye(3), a),
    }

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_raises_without_a_warning(self, call, bad):
        a = np.diag([3.0, 2.0, 1.0])
        a[0, 2] = a[2, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotSymmetric, match="non-finite entry"):
                self.CALLS[call](a)


class TestFrobeniusNorm:
    def test_bit_identical_to_numpy_below_overflow(self, rng):
        for c in (1e-300, 1e-8, 1.0, 1e8, 1e150):
            a = c * rng.standard_normal((7, 9))
            for view in (a, a.T, a[1:5, ::2], np.asfortranarray(a)):
                assert frobenius_norm(view) == np.linalg.norm(view)

    def test_overflowing_sum_of_squares_is_rescaled(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = frobenius_norm(np.full((2, 3), 1e200))
        assert norm == pytest.approx(np.sqrt(6.0) * 1e200, rel=1e-15)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_entries_without_a_warning(self, bad):
        a = np.ones((2, 2))
        a[0, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = frobenius_norm(a)
        assert np.isnan(norm) if np.isnan(bad) else norm == np.inf


def exp_skew_pair(z):
    """exp([[0, Z], [-Z^T, 0]]): the exp push of the identity frame by Z."""
    m, k = np.shape(z)
    return push_frame(OrthoFrame(np.eye(m + k), m), z, "exp").theta


class TestExpSkewPair:
    """The paired-skew exponential the exp chart applies, read off the
    push of the identity frame."""

    def test_zero(self):
        assert_allclose(exp_skew_pair(np.zeros((2, 3))), np.eye(5), atol=1e-15)

    def test_scalar_quarter_turn(self):
        out = exp_skew_pair(np.array([[np.pi / 2]]))
        assert_allclose(out, np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-15)

    def test_against_series_oracle(self, rng):
        z = rng.standard_normal((2, 3))
        block = np.zeros((5, 5))
        block[:2, 2:] = z
        block[2:, :2] = -z.T
        assert np.abs(exp_skew_pair(z) - scipy.linalg.expm(block)).max() <= 1e-10

    def test_special_orthogonal(self, rng):
        for seed in range(6):
            gen = np.random.default_rng(seed)
            z = gen.standard_normal((3, 4))
            z *= gen.uniform(0.1, 10.0) / np.linalg.norm(z)
            out = exp_skew_pair(z)
            assert np.abs(out.T @ out - np.eye(7)).max() <= 1e-10
            assert abs(np.linalg.det(out) - 1.0) <= 1e-8

    def test_one_parameter_group(self, rng):
        z = rng.standard_normal((2, 2))
        for t, s in ((0.3, 0.5), (-1.2, 0.7), (2.0, -0.4)):
            lhs = exp_skew_pair(t * z) @ exp_skew_pair(s * z)
            rhs = exp_skew_pair((t + s) * z)
            assert np.abs(lhs - rhs).max() <= 1e-9


class TestQrCholeskyRoundTrip:
    def test_block_closed_form(self, rng):
        # the positive-QR factor of [[I, Z], [-Z^T, I]] equals the closed form
        # built from the Cholesky factors of I + Z Z^T and I + Z^T Z
        for seed in range(5):
            gen = np.random.default_rng(seed)
            m, k = 2, 3
            z = gen.standard_normal((m, k))
            x = np.block([[np.eye(m), z], [-z.T, np.eye(k)]])
            q, r = qr_positive(x)
            r11 = np.linalg.cholesky(np.eye(m) + z @ z.T).T
            r22 = np.linalg.cholesky(np.eye(k) + z.T @ z).T
            xq = np.block(
                [
                    [np.linalg.solve(r11.T, np.eye(m)).T, z @ np.linalg.inv(r22)],
                    [-z.T @ np.linalg.inv(r11), np.linalg.inv(r22)],
                ]
            )
            xr = np.zeros((m + k, m + k))
            xr[:m, :m] = r11
            xr[m:, m:] = r22
            assert np.abs(q - xq).max() <= 1e-10
            assert np.abs(r - xr).max() <= 1e-10
            assert abs(np.linalg.det(q) - 1.0) <= 1e-10
