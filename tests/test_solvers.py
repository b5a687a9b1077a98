"""Matrix-equation solver tests against brute-force vectorized oracles."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from projnewton.errors import NoConvergence, SingularOperator, SpectralOverlap
from projnewton.grassmann import random_projector
from projnewton.solvers import (
    invariant_newton_rhs,
    solve_dense,
    solve_invariant_newton_direct,
    solve_invariant_newton_recursive,
    solve_lyapunov,
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
        z = solve_sylvester(np.array([[3.0]]), np.array([[1.0]]), np.array([[2.0]]))
        assert_allclose(z, np.array([[1.0]]), atol=1e-14)

    def test_zero_rhs(self, rng):
        a11 = random_symmetric(rng, 3) + 4.0 * np.eye(3)
        a22 = random_symmetric(rng, 2) - 4.0 * np.eye(2)
        z = solve_sylvester(a11, a22, np.zeros((3, 2)))
        assert_allclose(z, np.zeros((3, 2)), atol=1e-14)

    def test_against_kron_oracle(self, rng):
        for seed in range(6):
            gen = np.random.default_rng(seed)
            a11 = random_symmetric(gen, 3) + 3.0 * np.eye(3)
            a22 = random_symmetric(gen, 4) - 3.0 * np.eye(4)
            c = gen.standard_normal((3, 4))
            z = solve_sylvester(a11, a22, c)
            assert np.abs(z - _sylvester_kron_oracle(a11, a22, c)).max() <= 1e-9
            residual = np.linalg.norm(a11 @ z - z @ a22 - c)
            scale = np.linalg.norm(a11) * np.linalg.norm(z) + np.linalg.norm(c)
            assert residual <= 1e-9 * scale

    def test_spectral_overlap(self, rng):
        a = random_symmetric(rng, 3)
        with pytest.raises(SpectralOverlap) as info:
            solve_sylvester(a, a, np.ones((3, 3)))
        assert info.value.report.min_gap <= 1e-12
        assert not info.value.report.solvable


class TestLyapunov:
    def test_identity(self):
        z = solve_lyapunov(np.eye(2), 2.0 * np.eye(2))
        assert_allclose(z, np.eye(2), atol=1e-14)

    def test_diagonal_case(self):
        a11 = np.diag([1.0, 2.0])
        c = np.array([[2.0, 3.0], [3.0, 8.0]])
        assert_allclose(solve_lyapunov(a11, c), np.array([[1.0, 1.0], [1.0, 2.0]]), atol=1e-13)

    def test_against_kron_oracle(self, rng):
        for seed in range(6):
            gen = np.random.default_rng(seed)
            a11 = random_symmetric(gen, 4) + 3.0 * np.eye(4)
            c = random_symmetric(gen, 4)
            z = solve_lyapunov(a11, c)
            oracle = _sylvester_kron_oracle(a11, -a11, c)
            assert np.abs(z - oracle).max() <= 1e-9

    def test_symmetry_preserved(self, rng):
        a11 = random_symmetric(rng, 5) + 4.0 * np.eye(5)
        c = random_symmetric(rng, 5)
        z = solve_lyapunov(a11, c)
        assert np.abs(z - z.T).max() <= 1e-12

    def test_overlap_on_opposite_pair(self):
        with pytest.raises(SpectralOverlap):
            solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))


class TestInvariantDirect:
    def test_homogeneous(self, rng):
        a11 = random_symmetric(rng, 2) + 3.0 * np.eye(2)
        a22 = random_symmetric(rng, 2) - 3.0 * np.eye(2)
        z = solve_invariant_newton_direct(a11, rng.standard_normal((2, 2)), np.zeros((2, 2)), a22)
        assert np.abs(z).max() <= 1e-12

    def test_block_diagonal_critical_point(self, rng):
        # A21 = 0 makes the right side vanish: the point is already critical
        a11 = rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
        a22 = rng.standard_normal((2, 2)) - 3.0 * np.eye(2)
        a12 = rng.standard_normal((2, 2))
        z = solve_invariant_newton_direct(a11, a12, np.zeros((2, 2)), a22)
        assert np.abs(z).max() <= 1e-12

    def test_against_brute_force_oracle(self, rng):
        for seed in range(6):
            gen = np.random.default_rng(seed)
            a11 = gen.standard_normal((2, 2)) + 3.0 * np.eye(2)
            a22 = gen.standard_normal((2, 2)) - 3.0 * np.eye(2)
            a12 = gen.standard_normal((2, 2))
            a21 = 0.3 * gen.standard_normal((2, 2))
            z = solve_invariant_newton_direct(a11, a12, a21, a22)
            assert np.abs(z - _invariant_oracle(a11, a12, a21, a22)).max() <= 1e-9
            residual = _invariant_lhs(z, a11, a12, a21, a22) - invariant_newton_rhs(a11, a21, a22)
            assert np.linalg.norm(residual) <= 1e-8 * max(1.0, np.linalg.norm(z))

    def test_fully_degenerate(self):
        # every subspace of the identity is invariant: zero operator
        eye = np.eye(2)
        with pytest.raises(SingularOperator):
            solve_invariant_newton_direct(eye[:1, :1], np.zeros((1, 1)), np.zeros((1, 1)), eye[:1, :1])


class TestInvariantRecursive:
    def test_zero_rhs_one_sweep(self, rng):
        a11 = rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
        a22 = rng.standard_normal((2, 2)) - 3.0 * np.eye(2)
        z = solve_invariant_newton_recursive(a11, rng.standard_normal((2, 2)), np.zeros((2, 2)), a22)
        assert np.abs(z).max() <= 1e-12

    def test_agrees_with_direct(self, rng):
        for seed in range(6):
            gen = np.random.default_rng(seed)
            a11 = gen.standard_normal((2, 2)) + 3.0 * np.eye(2)
            a22 = gen.standard_normal((3, 3)) - 3.0 * np.eye(3)
            a12 = gen.standard_normal((2, 3))
            a21 = 0.2 * gen.standard_normal((3, 2))
            z_rec = solve_invariant_newton_recursive(a11, a12, a21, a22)
            z_dir = solve_invariant_newton_direct(a11, a12, a21, a22)
            assert np.abs(z_rec - z_dir).max() <= 1e-6 * max(1.0, np.abs(z_dir).max())

    def test_no_convergence_reported(self, rng):
        # strong coupling defeats the contraction
        a11 = np.eye(2) * 2.0
        a22 = -np.eye(2) * 2.0
        a12 = 10.0 * np.ones((2, 2))
        a21 = 10.0 * np.ones((2, 2))
        with pytest.raises(NoConvergence) as info:
            solve_invariant_newton_recursive(a11, a12, a21, a22, max_sweeps=20)
        assert info.value.residual is not None

    def test_stops_at_the_first_overflowing_sweep(self):
        # a Gaussian 6 x 6 matrix at a random start: the sweeps grow until
        # the update norm overflows, long before max_sweeps
        a = np.random.default_rng(1).standard_normal((6, 6))
        theta = random_projector(6, 2, 1)[1].theta
        b = theta @ a @ theta.T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergence, match="overflowed") as info:
                solve_invariant_newton_recursive(b[:2, :2], b[:2, 2:], b[2:, :2], b[2:, 2:])
        assert np.isfinite(info.value.residual)

    def test_spectral_overlap(self, rng):
        a = rng.standard_normal((2, 2))
        with pytest.raises(SpectralOverlap):
            solve_invariant_newton_recursive(a, np.zeros((2, 2)), np.zeros((2, 2)), a)


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


class TestOperatorInverses:
    """Each dense operator is inverted once per solve: two inverses per
    recursive solve whatever its sweep count, one per direct solve."""

    @staticmethod
    def _blocks(coupling):
        gen = np.random.default_rng(7)
        a11 = gen.standard_normal((2, 2)) + 3.0 * np.eye(2)
        a22 = gen.standard_normal((3, 3)) - 3.0 * np.eye(3)
        a12 = gen.standard_normal((2, 3))
        a21 = coupling * gen.standard_normal((3, 2))
        return a11, a12, a21, a22

    @staticmethod
    def _sweeps(blocks):
        for sweeps in range(1, 100):
            try:
                solve_invariant_newton_recursive(*blocks, max_sweeps=sweeps)
                return sweeps
            except NoConvergence:
                pass
        raise AssertionError("recursion did not settle in 99 sweeps")

    @staticmethod
    def _count_inverses(monkeypatch):
        calls = []
        inv = np.linalg.inv

        def counting(a):
            calls.append(a.shape)
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counting)
        return calls

    def test_recursive_two_per_solve(self, monkeypatch):
        couplings = (0.01, 0.1, 0.5)
        sweeps = [self._sweeps(self._blocks(c)) for c in couplings]
        assert len(set(sweeps)) == len(couplings) and min(sweeps) > 1
        calls = self._count_inverses(monkeypatch)
        for coupling in couplings:
            calls.clear()
            solve_invariant_newton_recursive(*self._blocks(coupling))
            assert calls == [(6, 6), (6, 6)]

    def test_direct_one_per_solve(self, monkeypatch):
        calls = self._count_inverses(monkeypatch)
        solve_invariant_newton_direct(*self._blocks(0.1))
        assert calls == [(6, 6)]


class TestOverlapDetection:
    def test_kron_smallest_singular_value_criterion(self):
        # crafted degenerate instance: identical blocks give a singular
        # Sylvester operator; the raise matches sigma_min == 0
        a = np.diag([1.0, 2.0])
        op = np.kron(a, np.eye(2)) - np.kron(np.eye(2), a.T)
        assert np.linalg.svd(op, compute_uv=False)[-1] <= 1e-12
        with pytest.raises(SpectralOverlap):
            solve_sylvester(a, a, np.ones((2, 2)))
