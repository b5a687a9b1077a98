"""Matrix-equation solver tests against brute-force vectorized oracles.

The solvers check nothing: each test hands them blocks it builds, or
symmetrizes with ``require_symmetric``, itself."""

import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import projnewton
import projnewton.solvers
from projnewton.config import TOL
from projnewton.decomp import eigh_descending, require_symmetric, sym_eig, symmetrize
from projnewton.errors import DimensionMismatch, SingularOperator, SpectralOverlap
from projnewton.solvers import (
    _checked_inverse,
    _pair,
    certify_invariant_newton,
    four_term_floor,
    invariant_newton_operator,
    invariant_newton_rhs,
    solve_dense,
    solve_invariant_newton,
    solve_sylvester,
)

from conftest import random_symmetric


def _sylvester_kron_oracle(a11, a22, c):
    """Independent route: Kronecker assembly + LAPACK solve (row-major vec)."""
    m, k = c.shape
    op = np.kron(a11, np.eye(k)) - np.kron(np.eye(m), a22.T)
    return np.linalg.solve(op, c.reshape(-1)).reshape(m, k)


def _invariant_lhs(z, a11, a12, a21, a22):
    w = a11.T @ z - z @ a22.T
    return (
        a11 @ w
        - w @ a22
        - a21.T @ (z.T @ a12 + a21 @ z)
        - (a12 @ z.T + z @ a21) @ a21.T
    )


def _invariant_oracle(a11, a12, a21, a22):
    """Brute force: apply the equation map to every basis matrix."""
    m, k = a12.shape
    d = m * k
    op = np.zeros((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = 1.0
        op[:, j] = _invariant_lhs(e.reshape(m, k), a11, a12, a21, a22).reshape(-1)
    rhs = invariant_newton_rhs(a11, a21, a22).reshape(-1)
    return np.linalg.solve(op, rhs).reshape(m, k)


class TestSylvester:
    def test_scalar(self):
        z, gap = solve_sylvester(np.array([[3.0]]), np.array([[1.0]]), np.array([[2.0]]))
        assert_allclose(z, np.array([[1.0]]), atol=1e-14)
        assert gap == 2.0

    def test_zero_rhs(self, rng):
        a11 = random_symmetric(rng, 3) + 4.0 * np.eye(3)
        a22 = random_symmetric(rng, 2) - 4.0 * np.eye(2)
        z = solve_sylvester(a11, a22, np.zeros((3, 2)))[0]
        assert_allclose(z, np.zeros((3, 2)), atol=1e-14)

    def test_against_kron_oracle(self, rng):
        for seed in range(6):
            gen = np.random.default_rng(seed)
            a11 = random_symmetric(gen, 3) + 3.0 * np.eye(3)
            a22 = random_symmetric(gen, 4) - 3.0 * np.eye(4)
            c = gen.standard_normal((3, 4))
            z = solve_sylvester(a11, a22, c)[0]
            assert np.abs(z - _sylvester_kron_oracle(a11, a22, c)).max() <= 1e-9
            residual = np.linalg.norm(a11 @ z - z @ a22 - c)
            scale = np.linalg.norm(a11) * np.linalg.norm(z) + np.linalg.norm(c)
            assert residual <= 1e-9 * scale

    def test_spectral_overlap(self, rng):
        a = random_symmetric(rng, 3)
        with pytest.raises(SpectralOverlap) as info:
            solve_sylvester(a, a, np.ones((3, 3)))
        assert info.value.min_gap <= 1e-12

    @pytest.mark.parametrize("m,k", [(1, 1), (1, 4), (4, 1), (3, 5)])
    def test_returns_the_separation_it_measured(self, m, k):
        # the gap is min |lambda_i - mu_j| over the two spectra, on an (m, k) Z
        gen = np.random.default_rng(10 * m + k)
        a11 = random_symmetric(gen, m) + 4.0 * np.eye(m)
        a22 = random_symmetric(gen, k) - 4.0 * np.eye(k)
        c = gen.standard_normal((m, k))
        z, gap = solve_sylvester(a11, a22, c)
        spectra = np.linalg.eigvalsh(a11)[:, None] - np.linalg.eigvalsh(a22)[None, :]
        assert z.shape == (m, k)
        assert abs(gap - np.abs(spectra).min()) <= 1e-13 * (np.linalg.norm(a11) + np.linalg.norm(a22))
        assert gap > 0.0


def _lyapunov(a11, c):
    """A11 Z + Z A11 = C: the Sylvester solve at A22 = -A11."""
    return solve_sylvester(a11, -a11, c)


class TestLyapunov:
    def test_identity(self):
        z, gap = _lyapunov(np.eye(2), 2.0 * np.eye(2))
        assert_allclose(z, np.eye(2), atol=1e-14)
        assert gap == 2.0

    def test_diagonal_case(self):
        a11 = np.diag([1.0, 2.0])
        c = np.array([[2.0, 3.0], [3.0, 8.0]])
        assert_allclose(_lyapunov(a11, c)[0], np.array([[1.0, 1.0], [1.0, 2.0]]), atol=1e-13)

    def test_against_kron_oracle(self, rng):
        for seed in range(6):
            gen = np.random.default_rng(seed)
            a11 = random_symmetric(gen, 4) + 3.0 * np.eye(4)
            c = random_symmetric(gen, 4)
            z = _lyapunov(a11, c)[0]
            oracle = _sylvester_kron_oracle(a11, -a11, c)
            assert np.abs(z - oracle).max() <= 1e-9

    def test_symmetry_preserved(self, rng):
        a11 = random_symmetric(rng, 5) + 4.0 * np.eye(5)
        c = random_symmetric(rng, 5)
        z = _lyapunov(a11, c)[0]
        assert np.abs(z - z.T).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_only_a_symmetric_right_hand_side_gives_a_symmetric_solution(self, n):
        gen = np.random.default_rng(20 + n)
        a11 = random_symmetric(gen, n) + 4.0 * np.eye(n)
        c = random_symmetric(gen, n)
        z = _lyapunov(a11, c)[0]
        assert np.array_equal(z, z.T)
        # a C that is not symmetric: Z solves its own equation, unsymmetrized
        c += np.triu(gen.standard_normal((n, n)), 1)
        z = _lyapunov(a11, c)[0]
        assert not np.array_equal(z, z.T)
        assert np.abs(a11 @ z + z @ a11 - c).max() <= 1e-13 * np.abs(c).max()

    def test_overlap_on_opposite_pair(self):
        with pytest.raises(SpectralOverlap):
            _lyapunov(np.diag([1.0, -1.0]), np.eye(2))

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_returns_the_separation_it_measured(self, n):
        # the gap is min |lambda_i + lambda_j| over pairs of eigenvalues of A11
        gen = np.random.default_rng(n)
        a11 = random_symmetric(gen, n) + 4.0 * np.eye(n)
        z, gap = _lyapunov(a11, random_symmetric(gen, n))
        lam = np.linalg.eigvalsh(a11)
        assert z.shape == (n, n)
        assert abs(gap - np.abs(lam[:, None] + lam[None, :]).min()) <= 1e-13 * np.linalg.norm(a11)
        assert gap > 0.0


def _sylvester_sym_eig_oracle(a11, a22, c):
    """Double diagonalization through the public ``sym_eig``, which checks
    each block again."""
    lam, u = sym_eig(require_symmetric(a11))
    mu, v = sym_eig(require_symmetric(a22))
    return u @ ((u.T @ c @ v) / (lam[:, None] - mu[None, :])) @ v.T


def _lyapunov_sym_eig_oracle(a11, c):
    """One diagonalization of A11 serves both blocks: U [ (U^T C U)_ij /
    (lambda_i + lambda_j) ] U^T, symmetrized for a symmetric C."""
    lam, u = sym_eig(require_symmetric(a11))
    c = require_symmetric(c)
    return symmetrize(u @ ((u.T @ c @ u) / (lam[:, None] + lam[None, :])) @ u.T)


def _near_symmetric(gen, n, shift):
    """Symmetric block plus an asymmetric defect within the entry check."""
    return random_symmetric(gen, n) + shift * np.eye(n) + 1e-14 * gen.standard_normal((n, n))


class TestBlocksCheckedOnce:
    # the caller checks each block once (here require_symmetric) and the
    # solvers diagonalize it without re-checking; the arithmetic is that of
    # the checking route
    @pytest.mark.parametrize("seed", range(6))
    def test_sylvester_matches_sym_eig_route(self, seed):
        gen = np.random.default_rng(seed)
        m, k = (int(d) for d in gen.integers(1, 8, 2))
        a11, a22 = _near_symmetric(gen, m, 4.0), _near_symmetric(gen, k, -4.0)
        c = gen.standard_normal((m, k))
        z = solve_sylvester(require_symmetric(a11), require_symmetric(a22), c)[0]
        assert np.array_equal(z, _sylvester_sym_eig_oracle(a11, a22, c))

    @pytest.mark.parametrize("seed", range(6))
    def test_lyapunov_matches_sym_eig_route(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(1, 8))
        a11, c = _near_symmetric(gen, n, 4.0), _near_symmetric(gen, n, 0.0)
        z = _lyapunov(require_symmetric(a11), require_symmetric(c))[0]
        assert np.array_equal(z, _lyapunov_sym_eig_oracle(a11, c))


class TestEigendecompositionReuse:
    # solve_sylvester diagonalizes A11 once and, where A22 is exactly -A11,
    # takes mu, V = -lambda, U for A22; any other A22 is diagonalized itself
    @staticmethod
    def _eigh_calls(monkeypatch):
        seen = []

        def counting(a):
            seen.append(a.shape)
            return eigh_descending(a)

        monkeypatch.setattr(projnewton.solvers, "eigh_descending", counting)
        return seen

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_negated_block_is_diagonalized_once(self, monkeypatch, n):
        gen = np.random.default_rng(n)
        a11, c = random_symmetric(gen, n) + 4.0 * np.eye(n), random_symmetric(gen, n)
        seen = self._eigh_calls(monkeypatch)
        z, gap = solve_sylvester(a11, -a11, c)
        assert seen == [(n, n)]
        # the same Z and separation as the route that diagonalizes -A11 itself
        lam, u = sym_eig(a11)
        mu, v = sym_eig(-a11)
        gaps = lam[:, None] - mu[None, :]
        two_eig = u @ ((u.T @ c @ v) / gaps) @ v.T
        assert np.abs(z - two_eig).max() <= 1e-13 * np.abs(two_eig).max()
        assert abs(gap - np.abs(gaps).min()) <= 1e-13 * gap

    @pytest.mark.parametrize("m,k", [(2, 3), (3, 2), (1, 4), (3, 3)])
    def test_any_other_block_is_diagonalized_itself(self, monkeypatch, m, k):
        gen = np.random.default_rng(10 * m + k)
        a11 = random_symmetric(gen, m) + 4.0 * np.eye(m)
        a22 = random_symmetric(gen, k) - 4.0 * np.eye(k)
        if m == k:
            a22 = -a11.copy()
            a22[0, 0] = np.nextafter(a22[0, 0], 0.0)  # one ulp from -A11
        seen = self._eigh_calls(monkeypatch)
        solve_sylvester(a11, a22, gen.standard_normal((m, k)))
        assert seen == [(m, m), (k, k)]


def _four_term_step(b, m):
    """Z of the four-term solver on B with its right-hand side; the operator
    it hands on is dropped."""
    return solve_invariant_newton(b, invariant_newton_rhs(b[:m, :m], b[m:, :m], b[m:, m:]))[0]


def _solve_certified(a11, a12, a21, a22):
    """Z of the four-term solver on B = [[A11, A12], [A21, A22]], returned once
    ``certify_invariant_newton`` certifies its operator at ||B||_F^2."""
    b, m = np.block([[a11, a12], [a21, a22]]), a11.shape[0]
    z = _four_term_step(b, m)
    certify_invariant_newton(b, m, np.vdot(b, b))
    return z


class TestInvariantDirect:
    def test_homogeneous(self, rng):
        a11 = random_symmetric(rng, 2) + 3.0 * np.eye(2)
        a22 = random_symmetric(rng, 2) - 3.0 * np.eye(2)
        z = _solve_certified(a11, rng.standard_normal((2, 2)), np.zeros((2, 2)), a22)
        assert np.abs(z).max() <= 1e-12

    def test_block_diagonal_critical_point(self, rng):
        # A21 = 0 makes the right side vanish: the point is already critical
        a11 = rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
        a22 = rng.standard_normal((2, 2)) - 3.0 * np.eye(2)
        a12 = rng.standard_normal((2, 2))
        z = _solve_certified(a11, a12, np.zeros((2, 2)), a22)
        assert np.abs(z).max() <= 1e-12

    def test_against_brute_force_oracle(self, rng):
        for seed in range(6):
            gen = np.random.default_rng(seed)
            a11 = gen.standard_normal((2, 2)) + 3.0 * np.eye(2)
            a22 = gen.standard_normal((2, 2)) - 3.0 * np.eye(2)
            a12 = gen.standard_normal((2, 2))
            a21 = 0.3 * gen.standard_normal((2, 2))
            z = _solve_certified(a11, a12, a21, a22)
            assert np.abs(z - _invariant_oracle(a11, a12, a21, a22)).max() <= 1e-9
            # Z is one LU solve with the operator, bit for bit
            op = invariant_newton_operator(a11, a12, a21, a22)
            rhs = invariant_newton_rhs(a11, a21, a22).reshape(-1)
            assert z.tobytes() == np.linalg.solve(op, rhs).reshape(2, 2).tobytes()
            residual = _invariant_lhs(z, a11, a12, a21, a22) - invariant_newton_rhs(a11, a21, a22)
            assert np.linalg.norm(residual) <= 1e-8 * max(1.0, np.linalg.norm(z))

    @pytest.mark.parametrize("m,k", [(1, 1), (1, 5), (5, 1), (2, 3), (4, 2)])
    def test_solves_the_matrix_equation_on_every_block_shape(self, m, k):
        # A12 is m x k and A21 k x m: Z comes back m x k and solves the
        # equation written with matrix products, not with the Kronecker operator
        gen = np.random.default_rng(10 * m + k)
        a11 = gen.standard_normal((m, m)) + 3.0 * np.eye(m)
        a22 = gen.standard_normal((k, k)) - 3.0 * np.eye(k)
        a12, a21 = gen.standard_normal((m, k)), 0.3 * gen.standard_normal((k, m))
        z = _solve_certified(a11, a12, a21, a22)
        assert z.shape == (m, k)
        residual = _invariant_lhs(z, a11, a12, a21, a22) - invariant_newton_rhs(a11, a21, a22)
        assert np.linalg.norm(residual) <= 1e-8 * max(1.0, np.linalg.norm(z))
        assert np.abs(z - _invariant_oracle(a11, a12, a21, a22)).max() <= 1e-9

    def test_shared_spectrum_is_singular(self, rng):
        # A11 = A22 symmetric and no coupling: L = (A11 (x) I - I (x) A11)^2,
        # whose kernel holds every Z that commutes with A11
        a = random_symmetric(rng, 3)
        with pytest.raises(SingularOperator):
            _solve_certified(a, np.zeros((3, 3)), np.zeros((3, 3)), a)

    def test_singular_on_small_separation_despite_eigenvalue_gap(self):
        # eigenvalues 1 and 0 / -0.5 are well apart, but with no coupling L is
        # S^T S for S(Z) = A11^T Z - Z A22^T, which these strongly non-normal
        # blocks put within 1e-8 ||A||_F of singular: the solve raises
        a11 = np.array([[1.0, 1e5], [0.0, 1.0]])
        a22 = np.array([[0.0, 1e5], [0.0, -0.5]])
        gaps = np.abs(np.linalg.eigvals(a11)[:, None] - np.linalg.eigvals(a22)[None, :])
        assert gaps.min() >= 0.5
        s = np.kron(a11.T, np.eye(2)) - np.kron(np.eye(2), a22)
        assert np.linalg.svd(s, compute_uv=False)[-1] <= 1e-8 * np.linalg.norm(a11)
        with pytest.raises(SingularOperator):
            _solve_certified(a11, np.zeros((2, 2)), np.zeros((2, 2)), a22)

    def test_certificate_has_no_units(self):
        # blocks times c = 2^j scale L, the right-hand side and the
        # certificate's shift by c^2 exactly: the step keeps its bits and the
        # certificate its outcome
        outcomes = set()
        for blocks in _four_term_cases(200, 3):
            b, m = np.block([blocks[:2], blocks[2:]]), blocks[0].shape[0]
            z, outcome = _core_outcome(b, m)
            outcomes.add(outcome)
            for j in (-20, -1, 1, 20):
                c = 2.0 ** j
                z_scaled, scaled = _core_outcome(c * b, m)
                assert scaled == outcome
                assert z_scaled.tobytes() == z.tobytes()
        assert outcomes == {"cholesky", "solve", "singular"}

    def test_fully_degenerate(self):
        # every subspace of the identity is invariant: zero operator
        eye = np.eye(2)
        with pytest.raises(SingularOperator):
            _solve_certified(eye[:1, :1], np.zeros((1, 1)), np.zeros((1, 1)), eye[:1, :1])


def _four_term_cases(count, seed):
    """Random blocks with (m, k) <= 4, scaled 1e-3 to 1e3, from near-scalar A,
    shared eigenvalues of A11 and A22, rank one plus noise, and generic A; the
    noise level eps spreads the direct operator's condition across 1 / TOL.pivot."""
    gen = np.random.default_rng(seed)
    for case in range(count):
        m, k = (int(d) for d in gen.integers(1, 5, 2))
        n, kind, eps = m + k, case % 4, 10.0 ** gen.uniform(-9.0, -2.0)
        noise = gen.standard_normal((n, n))
        if kind == 0:
            a = np.eye(n) + eps * noise
        elif kind == 1:
            # block diagonal up to eps, A11 and A22 sharing one eigenvalue
            lam = gen.standard_normal(n)
            lam[m] = lam[0]
            q1, q2 = (np.linalg.qr(gen.standard_normal((d, d)))[0] for d in (m, k))
            a = eps * noise
            a[:m, :m] += (q1 * lam[:m]) @ q1.T
            a[m:, m:] += (q2 * lam[m:]) @ q2.T
        elif kind == 2:
            a = np.outer(gen.standard_normal(n), gen.standard_normal(n)) + eps * noise
        else:
            a = noise
        a *= 10.0 ** gen.uniform(-3.0, 3.0)
        # contiguous copies: a matmul on a strided view may sum in another order
        yield [np.array(b) for b in (a[:m, :m], a[:m, m:], a[m:, :m], a[m:, m:])]


def _direct_outcome(blocks):
    try:
        return _solve_certified(*blocks)
    except SingularOperator:
        return None


def _core_outcome(b, m):
    """The core's Z (NaN where LU finds the operator exactly singular) and the
    certificate's outcome at ||B||_F^2, "singular" for ``SingularOperator``."""
    try:
        z = _four_term_step(b, m)
    except SingularOperator:
        z = np.full((m, b.shape[0] - m), np.nan)
    try:
        return z, certify_invariant_newton(b, m, np.vdot(b, b))
    except SingularOperator:
        return z, "singular"


class TestDirectSingularity:
    """The certified four-term solve's one singularity test: LAPACK's exact
    singularity, or max(||L||_1, data scale) ||L^-1||_1 >= 1 / TOL.pivot, the
    data scale being max ||A_ij||_1^2."""

    def test_outcome_is_scale_invariant(self):
        # a power-of-two scale c of the blocks scales L by c^2 and L^-1 and the
        # right-hand side exactly: the status and the bits of Z do not change
        gen = np.random.default_rng(11)
        singular = 0
        for blocks in _four_term_cases(400, 1):
            z = _direct_outcome(blocks)
            singular += z is None
            for j in gen.integers(-20, 21, 5):
                z_scaled = _direct_outcome([2.0 ** j * b for b in blocks])
                assert (z is None) == (z_scaled is None)
                assert z is None or np.array_equal(z, z_scaled)
        assert 0 < singular < 400

    def test_raises_exactly_on_the_criterion(self):
        outcomes, by_scale = set(), 0
        for blocks in _four_term_cases(1000, 2):
            op = invariant_newton_operator(*blocks)
            data_scale = max(np.linalg.norm(b, 1) for b in blocks) ** 2
            try:
                inv_norm = np.linalg.norm(np.linalg.inv(op), 1)
            except np.linalg.LinAlgError:
                singular = True
            else:
                op_norm = np.linalg.norm(op, 1)
                singular = max(op_norm, data_scale) * inv_norm * TOL.pivot >= 1.0
                by_scale += singular and op_norm * inv_norm * TOL.pivot < 1.0
            assert (_direct_outcome(blocks) is None) == singular
            outcomes.add(singular)
        # both outcomes occur, and the data scale decides some of them
        assert outcomes == {True, False}
        assert by_scale > 0


class TestSolveDense:
    def test_identity(self, rng):
        g = rng.standard_normal(4)
        assert_allclose(solve_dense(np.eye(4), g), g, atol=1e-14)

    @pytest.mark.parametrize("h", [
        np.ones((3, 3)),
        np.diag([1.0, 1e-13]),
        np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]),
    ], ids=["ones", "tiny-pivot", "near-rank-one"])
    def test_singular(self, h):
        # a bare LAPACK solve returns finite answers for the last two; the
        # relative floor must still flag them
        with pytest.raises(SingularOperator):
            solve_dense(h, np.ones(h.shape[0]))

    def test_spd_residual(self, rng):
        a = rng.standard_normal((8, 8))
        h = a @ a.T + np.eye(8)
        g = rng.standard_normal(8)
        x = solve_dense(h, g)
        assert np.linalg.norm(h @ x - g) <= 1e-10 * max(1.0, np.linalg.norm(g))

    def test_against_lapack(self, rng):
        h = rng.standard_normal((6, 6)) + 3.0 * np.eye(6)
        g = rng.standard_normal(6)
        assert_allclose(solve_dense(h, g), np.linalg.solve(h, g), atol=1e-10)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("operand", ["H", "g"])
    def test_rejects_non_finite_entries(self, operand, value):
        # LAPACK inverts eye(3) with one NaN without an error: x would be [nan, 1, 1]
        h, g = np.eye(3), np.ones(3)
        (h if operand == "H" else g)[0] = value
        with pytest.raises(DimensionMismatch, match="finite"):
            solve_dense(h, g)

    def test_nan_condition_number_is_singular(self):
        # the floor reads "not below 1 / TOL.pivot", so a NaN scale cannot pass it
        with pytest.raises(SingularOperator):
            _checked_inverse(np.eye(2), np.nan)


class TestOperatorFactorizations:
    """The four-term solve factors its operator once per step, by LU, and its
    certificate once more, by Cholesky; it inverts the operator only where
    the Cholesky fails, and takes no SVD."""

    @pytest.mark.parametrize("kind", ["generic", "near-scalar"])
    def test_direct_one_factorization_each(self, monkeypatch, kind):
        make = self._blocks if kind == "generic" else self._near_scalar_blocks
        calls, svds = [], []
        for name in ("solve", "cholesky", "inv"):
            def counted(a, *args, _name=name, _call=getattr(np.linalg, name)):
                calls.append((_name, a.shape))
                return _call(a, *args)
            monkeypatch.setattr(np.linalg, name, counted)
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: svds.append(1) or svd(*a, **kw))
        _solve_certified(*make(2, 3))
        assert calls == [("solve", (6, 6)), ("cholesky", (6, 6))]
        assert svds == []
        # blocks whose operator is indefinite: the inverse decides
        calls.clear()
        _solve_certified(*make(8, 16))
        assert [name for name, _ in calls] == (["solve", "cholesky", "inv"] if kind == "generic"
                                               else ["solve", "cholesky"])

    @staticmethod
    def _blocks(m, k):
        gen = np.random.default_rng(10 * m + k)
        return (gen.standard_normal((m, m)) + 3.0 * np.eye(m), gen.standard_normal((m, k)),
                0.1 * gen.standard_normal((k, m)), gen.standard_normal((k, k)) - 3.0 * np.eye(k))

    @staticmethod
    def _near_scalar_blocks(m, k):
        """A close to diag(3 I, 3.5 I): L is about (1/2)^2 I, so the data scale
        max ||A_ij||_1^2, read in A22's rows, sets the singularity test's scale."""
        gen = np.random.default_rng(10 * m + k)
        return (3.0 * np.eye(m) + 1e-2 * gen.standard_normal((m, m)), 1e-2 * gen.standard_normal((m, k)),
                1e-2 * gen.standard_normal((k, m)), 3.5 * np.eye(k) + 1e-2 * gen.standard_normal((k, k)))

    @pytest.mark.parametrize("kind", ["generic", "near-scalar"])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("m,k", [(1, 1), (2, 3), (3, 5), (6, 10), (8, 16)])
    def test_direct_solve_keeps_its_bits(self, monkeypatch, m, k, scale, kind):
        # the step on B = [[A11, A12], [A21, A22]] is one LU solve with the
        # operator of the blocks, bit for bit, and does not write to B.  Where
        # the Cholesky fails, the inverse sees the operator with its diagonal
        # restored bit for bit, and judges it against max(||L||_1, max ||A_ij||_1^2)
        make = self._blocks if kind == "generic" else self._near_scalar_blocks
        blocks = [scale * b for b in make(m, k)]
        b = np.block([blocks[:2], blocks[2:]])
        copies = [x.copy() for x in (*blocks, b)]
        rhs = invariant_newton_rhs(blocks[0], blocks[2], blocks[3])
        z, solved = solve_invariant_newton(b, rhs)
        op = invariant_newton_operator(*blocks)
        assert z.tobytes() == np.linalg.solve(op, rhs.reshape(-1)).reshape(m, k).tobytes()
        # the operator handed on is the one the LU solve read, left as it was
        assert solved.tobytes() == op.tobytes()
        assert all(np.array_equal(x, c) for x, c in zip((*blocks, b), copies))
        seen, checked_inverse = [], projnewton.solvers._checked_inverse
        monkeypatch.setattr(projnewton.solvers, "_checked_inverse", lambda a, a_norm:
                            seen.append((a.tobytes(), a_norm)) or checked_inverse(a, a_norm))

        def failing(a):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        assert certify_invariant_newton(b, m, np.vdot(b, b)) == "solve"
        data_scale = max(np.linalg.norm(x, 1) for x in blocks)
        assert seen == [(op.tobytes(), max(np.linalg.norm(op, 1), data_scale ** 2))]
        assert kind == "generic" or data_scale ** 2 > np.linalg.norm(op, 1)
        assert all(np.array_equal(x, c) for x, c in zip((*blocks, b), copies))

    @pytest.mark.parametrize("kind", ["generic", "near-scalar"])
    def test_each_public_call_builds_the_operator_once(self, monkeypatch, kind):
        # the solver and the certificate each build the operator once, and the
        # certificate factors and inverts that one, whether the Cholesky
        # certifies it or the inverse does
        make = self._blocks if kind == "generic" else self._near_scalar_blocks
        blocks = make(8, 16)
        b, built = np.block([list(blocks[:2]), list(blocks[2:])]), []
        monkeypatch.setattr(projnewton.solvers, "invariant_newton_operator",
                            lambda *a: built.append(1) or invariant_newton_operator(*a))
        for call in (lambda: _four_term_step(b, 8),
                     lambda: certify_invariant_newton(b, 8, np.vdot(b, b))):
            built.clear()
            call()
            assert len(built) == 1

    @pytest.mark.parametrize("m,k", [(2, 3), (8, 16)])
    def test_direct_solve_takes_no_absolute_copy_of_its_operators(self, monkeypatch, m, k):
        # the step and a Cholesky certificate that succeeds read no 1-norm:
        # no |L| or |L^-1| of d x d, in a buffer or not
        d, copies = m * k, []
        absolute = np.abs

        def watched(x, *args, **kwargs):
            if np.shape(x) == (d, d):
                copies.append(x)
            return absolute(x, *args, **kwargs)

        monkeypatch.setattr(np, "abs", watched)
        _solve_certified(*self._near_scalar_blocks(m, k))
        blocks = self._blocks(m, k)
        _four_term_step(np.block([list(blocks[:2]), list(blocks[2:])]), m)
        assert copies == []

    @pytest.mark.parametrize("kind", ["generic", "near-scalar"])
    def test_direct_solve_holds_only_its_operator_when_it_factors(self, monkeypatch, kind):
        # each factorization (the step's LU, the certificate's Cholesky and,
        # where that fails, the inverse) sees the operator and no spent d x d
        # temporary; the step and a successful certificate peak at the
        # assembly's 2.52 arrays.  At d = 128 these arrays are 128 KiB,
        # glibc's mmap and trim threshold, where a higher peak put the
        # benchmark's (24, 8) solve in a slow mode
        import tracemalloc

        make = self._blocks if kind == "generic" else self._near_scalar_blocks
        blocks, size, held = make(8, 16), 128 * 128 * 8, []
        for name in ("solve", "cholesky", "inv"):
            def watched(a, *args, _name=name, _call=getattr(np.linalg, name)):
                held.append((_name, tracemalloc.get_traced_memory()[0] - base))
                return _call(a, *args)
            monkeypatch.setattr(np.linalg, name, watched)
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _solve_certified(*blocks)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        names = ["solve", "cholesky", "inv"] if kind == "generic" else ["solve", "cholesky"]
        assert [name for name, _ in held] == names
        assert all(size <= memory < 1.5 * size for _, memory in held)
        assert kind == "generic" or peak <= 2.6 * size

    def test_operator_assembly_takes_no_iterator_buffers(self):
        # a product of two broadcast views makes numpy's iterator buffer about
        # one more d x d array: the assembly would peak at 3.02 of them
        import tracemalloc

        blocks, size = self._blocks(8, 16), 128 * 128 * 8
        invariant_newton_operator(*blocks)
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            invariant_newton_operator(*blocks)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert 2 * size <= peak <= 2.6 * size

    def test_dense_solve_leaves_its_operator(self, rng):
        h = rng.standard_normal((6, 6)) + 3.0 * np.eye(6)
        rows, g = h.copy(), rng.standard_normal(6)
        x = solve_dense(h, g)
        assert h.tobytes() == rows.tobytes()
        assert np.array_equal(x, np.linalg.inv(rows) @ g)


class TestCholeskyCertificate:
    """A Cholesky certificate holds lambda_min(L) above sqrt(d) four_term_floor,
    which keeps the separation 1/||L^-1||_1 of the dense inverse's test above
    the floor: ||X||_1 and ||X||_2 are within sqrt(d) of each other."""

    @staticmethod
    def _blocks(kind, gen):
        """A11 (3 x 3) and A22 (4 x 4) random, or Q T Q^T with T upper
        triangular whose strict upper part is 0 (normal) or 30 times Gaussian
        (far from normal); coupling blocks 0.1 N(0, 1)."""
        if kind == "random":
            a11, a22 = gen.standard_normal((3, 3)) + 3.0 * np.eye(3), gen.standard_normal((4, 4)) - 3.0 * np.eye(4)
        else:
            coupling = 30.0 if kind == "non-normal" else 0.0
            diagonal = []
            for size, shift in ((3, 2.0), (4, -2.0)):
                t = np.triu(coupling * gen.standard_normal((size, size)), 1)
                t += np.diag(shift + gen.uniform(0.0, 1.0, size))
                q, _ = np.linalg.qr(gen.standard_normal((size, size)))
                diagonal.append(q @ t @ q.T)
            a11, a22 = diagonal
        return a11, 0.1 * gen.standard_normal((3, 4)), 0.1 * gen.standard_normal((4, 3)), a22

    @pytest.mark.parametrize("kind", ["random", "normal", "non-normal"])
    def test_inverse_norm_within_sqrt_d_of_lambda_min(self, kind):
        root_d, certified = np.sqrt(12.0), 0
        for seed in range(5):
            blocks = self._blocks(kind, np.random.default_rng(seed))
            b = np.block([list(blocks[:2]), list(blocks[2:])])
            scale = np.vdot(b, b)
            op = invariant_newton_operator(*blocks)
            sigma_min = np.linalg.svd(op, compute_uv=False)[-1]
            sep = 1.0 / np.linalg.norm(np.linalg.inv(op), 1)
            assert sigma_min / root_d <= sep <= root_d * sigma_min
            lam = np.linalg.eigvalsh(op).min()
            if certify_invariant_newton(b, 3, scale) == "cholesky":
                certified += 1
                assert lam > root_d * four_term_floor(3, 4, scale)
                assert sigma_min >= lam * (1.0 - 1e-12)
                assert sep > four_term_floor(3, 4, scale)
            else:
                assert lam < 0.0
        # the far from normal blocks' coupling outweighs S S^T: saddles, which
        # the inverse certifies
        assert certified == (0 if kind == "non-normal" else 5)


@pytest.mark.parametrize("m,k", [(1, 1), (1, 6), (6, 1), (2, 5), (4, 4)])
@pytest.mark.parametrize("kind", ["random", "rank-one", "near-diagonal"])
def test_four_term_certificate_inequalities(kind, m, k):
    # the inequalities behind certify_invariant_newton's shift and
    # four_term_floor, with |L|_+ the operator of the |A_ij| with every sign +
    # and L* the operator assembled in extended precision:
    #   |L - L*| <= gamma_{max(m,k)+6} |L|_+ < 8 d u |L|_+ entrywise,
    #   ||L||_1 <= || |L|_+ ||_1 = || |L|_+ ||_inf <= 3 sqrt(d) ||A||_F^2,
    #   max ||A_ij||_1^2 <= max(m, k) ||A||_F^2,
    # and so four_term_floor >= TOL.pivot max(||L||_1, max ||A_ij||_1^2)
    gen = np.random.default_rng([m, k, len(kind)])
    n, d, u = m + k, m * k, np.finfo(float).eps / 2
    nu = (max(m, k) + 6) * u
    extended = np.finfo(np.longdouble).eps < 1e-18

    def blocks(a):
        return a[:m, :m], a[:m, m:], a[m:, :m], a[m:, m:]

    worst = np.zeros(3)
    for _ in range(40):
        if kind == "random":
            a = gen.standard_normal((n, n))
        elif kind == "rank-one":
            a = np.outer(gen.standard_normal(n), gen.standard_normal(n))
        else:
            a = np.diag(gen.standard_normal(n)) + 1e-3 * gen.standard_normal((n, n))
        a *= 10.0 ** gen.uniform(-3.0, 3.0)
        op = invariant_newton_operator(*blocks(a))
        plus = _invariant_operator_kron_oracle(*blocks(abs(a)), plus=True)
        assert_allclose(plus, plus.T, rtol=1e-13)
        assert nu / (1.0 - nu) < 8 * d * u
        if extended:
            exact = _invariant_operator_kron_oracle(*blocks(a.astype(np.longdouble)))
            assert np.all(np.abs(op - exact) <= nu / (1.0 - nu) * plus)
        assert np.all(np.abs(op - op.T) <= 2.0 * nu / (1.0 - nu) * plus)
        scale = np.linalg.norm(a) ** 2
        largest_block = max(np.linalg.norm(b, 1) for b in blocks(a)) ** 2
        worst = np.maximum(worst, [np.linalg.norm(op, 1) / np.linalg.norm(plus, 1),
                                   np.linalg.norm(plus, 1) / (3.0 * np.sqrt(d) * scale),
                                   largest_block / (max(m, k) * scale)])
        assert four_term_floor(m, k, scale) >= TOL.pivot * max(np.linalg.norm(op, 1), largest_block)
    assert np.all(worst <= 1.0), worst


def _invariant_operator_kron_oracle(a11, a12, a21, a22, plus=False):
    """The four-term operator assembled with ``np.kron``, term by term in
    the library's order (G kron I, I kron H, then the four products), so equal
    products give a bit-identical sum; with ``plus``, every sign +."""
    m, k = a12.shape
    sign = 1.0 if plus else -1.0
    im, ik = np.eye(m, dtype=a11.dtype), np.eye(k, dtype=a11.dtype)
    perm = np.arange(m * k).reshape(k, m).T.reshape(-1)
    op = np.kron(a11 @ a11.T + sign * (a21.T @ a21), ik)
    op += np.kron(im, a22.T @ a22 + sign * (a21 @ a21.T))
    op += sign * np.kron(a11, a22)
    op += sign * np.kron(a11.T, a22.T)
    op += sign * np.kron(a21.T, a12.T)[:, perm]
    op += sign * np.kron(a12, a21)[:, perm]
    return op


@pytest.mark.parametrize("m,k", [(3, 4), (1, 4), (3, 1)], ids=["m3-k4", "m1", "k1"])
def test_kron_helper_operator_is_bit_identical(m, k):
    gen = np.random.default_rng(10 * m + k)
    blocks = [gen.standard_normal(shape) for shape in ((m, m), (m, k), (k, m), (k, k))]
    assert np.array_equal(invariant_newton_operator(*blocks), _invariant_operator_kron_oracle(*blocks))
    a, b = blocks[0], blocks[3]
    assert np.array_equal(np.multiply(*_pair(a, b)).reshape(m * k, m * k), np.kron(a, b))


@pytest.mark.parametrize("m,k", [(1, 1), (1, 5), (4, 1), (3, 5), (8, 16)])
def test_in_place_operator_matches_the_kron_oracle(m, k):
    # the terms are summed in place in the oracle's order: equal bits,
    # signed zeros included
    gen = np.random.default_rng(100 * m + k)
    blocks = [gen.standard_normal(shape) for shape in ((m, m), (m, k), (k, m), (k, k))]
    op = invariant_newton_operator(*blocks)
    oracle = _invariant_operator_kron_oracle(*blocks)
    assert np.array_equal(op, oracle)
    assert op.tobytes() == oracle.tobytes()


class TestOverlapDetection:
    def test_kron_smallest_singular_value_criterion(self):
        # crafted degenerate instance: identical blocks give a singular
        # Sylvester operator; the raise matches sigma_min == 0
        a = np.diag([1.0, 2.0])
        op = np.kron(a, np.eye(2)) - np.kron(np.eye(2), a.T)
        assert np.linalg.svd(op, compute_uv=False)[-1] <= 1e-12
        with pytest.raises(SpectralOverlap):
            solve_sylvester(a, a, np.ones((2, 2)))


_NO_SCIPY_SCRIPT = """
import sys
import numpy as np
import projnewton
from projnewton.solvers import certify_invariant_newton, invariant_newton_rhs, solve_invariant_newton
gen = np.random.default_rng(0)
b = np.block([[gen.standard_normal((2, 2)) + 3.0 * np.eye(2), gen.standard_normal((2, 3))],
              [0.1 * gen.standard_normal((3, 2)), gen.standard_normal((3, 3)) - 3.0 * np.eye(3)]])
solve_invariant_newton(b, invariant_newton_rhs(b[:2, :2], b[2:, :2], b[2:, 2:]))
certify_invariant_newton(b, 2, np.vdot(b, b))
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_solvers_run_without_scipy():
    # scipy is a test-only extra: importing it would cost set-up time and
    # memory in every process that imports projnewton
    src = os.path.dirname(os.path.dirname(projnewton.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
