"""Matrix-equation solver tests against brute-force vectorized oracles."""

import inspect
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import projnewton
import projnewton.solvers
from projnewton.config import TOL
from projnewton.decomp import require_symmetric, sym_eig, symmetrize
from projnewton.errors import NoConvergence, NotSymmetric, SingularOperator, SpectralOverlap
from projnewton.grassmann import random_projector
from projnewton.solvers import (
    _kron_sum,
    _pair,
    invariant_newton_operator,
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


def _sylvester_sym_eig_oracle(a11, a22, c):
    """Double diagonalization through the public ``sym_eig``, which checks
    each block again."""
    lam, u = sym_eig(require_symmetric(a11))
    mu, v = sym_eig(require_symmetric(a22))
    return u @ ((u.T @ c @ v) / (lam[:, None] - mu[None, :])) @ v.T


def _lyapunov_sym_eig_oracle(a11, c):
    lam, u = sym_eig(require_symmetric(a11))
    c = require_symmetric(c)
    return symmetrize(u @ ((u.T @ c @ u) / (lam[:, None] + lam[None, :])) @ u.T)


def _near_symmetric(gen, n, shift):
    """Symmetric block plus an asymmetric defect within the entry check."""
    return random_symmetric(gen, n) + shift * np.eye(n) + 1e-14 * gen.standard_normal((n, n))


class TestBlocksCheckedOnce:
    # the solvers check each block at entry and then diagonalize it without
    # re-checking; the arithmetic is that of the checking route
    @pytest.mark.parametrize("seed", range(6))
    def test_sylvester_matches_sym_eig_route(self, seed):
        gen = np.random.default_rng(seed)
        m, k = (int(d) for d in gen.integers(1, 8, 2))
        a11, a22 = _near_symmetric(gen, m, 4.0), _near_symmetric(gen, k, -4.0)
        c = gen.standard_normal((m, k))
        assert np.array_equal(solve_sylvester(a11, a22, c), _sylvester_sym_eig_oracle(a11, a22, c))

    @pytest.mark.parametrize("seed", range(6))
    def test_lyapunov_matches_sym_eig_route(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(1, 8))
        a11, c = _near_symmetric(gen, n, 4.0), _near_symmetric(gen, n, 0.0)
        assert np.array_equal(solve_lyapunov(a11, c), _lyapunov_sym_eig_oracle(a11, c))

    @pytest.mark.parametrize("block", ["A11", "A22"])
    def test_sylvester_rejects_an_asymmetric_block(self, rng, block):
        blocks = {"A11": random_symmetric(rng, 3) + 4.0 * np.eye(3),
                  "A22": random_symmetric(rng, 2) - 4.0 * np.eye(2)}
        blocks[block] = blocks[block] + 1e-6 * np.triu(np.ones_like(blocks[block]), 1)
        with pytest.raises(NotSymmetric, match=block):
            solve_sylvester(blocks["A11"], blocks["A22"], np.ones((3, 2)))

    @pytest.mark.parametrize("operand", ["A11", "right-hand side"])
    def test_lyapunov_rejects_an_asymmetric_operand(self, rng, operand):
        a11, c = random_symmetric(rng, 3) + 4.0 * np.eye(3), random_symmetric(rng, 3)
        skew = 1e-6 * np.triu(np.ones((3, 3)), 1)
        if operand == "A11":
            a11 = a11 + skew
        else:
            c = c + skew
        with pytest.raises(NotSymmetric, match=operand):
            solve_lyapunov(a11, c)


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
    def test_sweep_limits_come_from_config(self):
        params = inspect.signature(solve_invariant_newton_recursive).parameters
        assert params["tol"].default == TOL.recursive_tol == 1e-12
        assert params["max_sweeps"].default == TOL.recursive_max_sweeps == 100

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
    """Each dense operator is inverted once per solve, whatever the sweep
    count: the recursion's second half-sweep uses the transpose of its one
    inverse, and its separation estimate needs no SVD."""

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

    def test_recursive_one_per_solve(self, monkeypatch):
        couplings = (0.01, 0.1, 0.5)
        sweeps = [self._sweeps(self._blocks(c)) for c in couplings]
        assert len(set(sweeps)) == len(couplings) and min(sweeps) > 1
        calls = self._count_inverses(monkeypatch)
        svds = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: svds.append(1) or svd(*a, **kw))
        for coupling in couplings:
            calls.clear()
            solve_invariant_newton_recursive(*self._blocks(coupling))
            assert calls == [(6, 6)]
        assert svds == []

    def test_direct_one_per_solve(self, monkeypatch):
        calls = self._count_inverses(monkeypatch)
        solve_invariant_newton_direct(*self._blocks(0.1))
        assert calls == [(6, 6)]


class TestSeparationEstimate:
    """The recursion's gap is sep = 1 / ||op^-1||_1 of its Sylvester
    operator op = A11 (x) I - I (x) A22^T, within sqrt(d) of sigma_min."""

    @staticmethod
    def _operator(a11, a22):
        m, k = a11.shape[0], a22.shape[0]
        return np.kron(a11, np.eye(k)) - np.kron(np.eye(m), a22.T)

    @staticmethod
    def _blocks(kind, gen):
        """Random blocks, or Q T Q^T with T upper triangular whose strict
        upper part is 0 (normal) or 30 times Gaussian (far from normal)."""
        if kind == "random":
            return gen.standard_normal((3, 3)) + 3.0 * np.eye(3), gen.standard_normal((4, 4)) - 3.0 * np.eye(4)
        coupling = 30.0 if kind == "non-normal" else 0.0
        blocks = []
        for size, shift in ((3, 2.0), (4, -2.0)):
            t = np.triu(coupling * gen.standard_normal((size, size)), 1)
            t += np.diag(shift + gen.uniform(0.0, 1.0, size))
            q, _ = np.linalg.qr(gen.standard_normal((size, size)))
            blocks.append(q @ t @ q.T)
        return blocks

    @pytest.mark.parametrize("kind", ["random", "normal", "non-normal"])
    def test_within_sqrt_d_of_sigma_min(self, kind):
        for seed in range(5):
            op = self._operator(*self._blocks(kind, np.random.default_rng(seed)))
            sigma_min = np.linalg.svd(op, compute_uv=False)[-1]
            sep = 1.0 / np.linalg.norm(np.linalg.inv(op), 1)
            root_d = np.sqrt(op.shape[0])
            assert sigma_min / root_d <= sep <= root_d * sigma_min

    def test_overlap_raised_on_small_sep_despite_eigenvalue_gap(self):
        # eigenvalues 1 and 0 / -0.5 are well apart, but the strongly
        # non-normal blocks put the Sylvester operator near singularity
        a11 = np.array([[1.0, 1e5], [0.0, 1.0]])
        a22 = np.array([[0.0, 1e5], [0.0, -0.5]])
        gaps = np.abs(np.linalg.eigvals(a11)[:, None] - np.linalg.eigvals(a22)[None, :])
        assert gaps.min() >= 0.5
        scale = max(np.linalg.norm(a11), np.linalg.norm(a22))
        sigma_min = np.linalg.svd(self._operator(a11, a22), compute_uv=False)[-1]
        assert sigma_min <= 1e-8 * scale
        with pytest.raises(SpectralOverlap) as info:
            solve_invariant_newton_recursive(a11, np.zeros((2, 2)), np.zeros((2, 2)), a22)
        # the reported separation is the 1-norm one, within sqrt(d) = 2
        assert sigma_min / 2.0 <= info.value.report.min_gap <= 2.0 * sigma_min

    def test_condition_floor_still_raises_singular_operator(self, monkeypatch):
        # with the default floors the gap test fires first at any size that
        # fits in memory; a coarse pivot floor reaches the condition test
        monkeypatch.setattr(projnewton.solvers, "TOL", replace(TOL, pivot=1e-3))
        a11 = np.diag([10.0, 1e-3])
        with pytest.raises(SingularOperator, match="condition number"):
            solve_invariant_newton_recursive(a11, np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((1, 1)))

    def test_overlap_raised_on_identical_blocks(self):
        a = np.diag([1.0, 2.0])
        with pytest.raises(SpectralOverlap) as info:
            solve_invariant_newton_recursive(a, np.zeros((2, 2)), np.zeros((2, 2)), a)
        assert info.value.report.min_gap == 0.0


def _invariant_operator_kron_oracle(a11, a12, a21, a22):
    """The four-term operator assembled with ``np.kron``, term by term in
    the library's order, so equal products give a bit-identical sum."""
    m, k = a12.shape
    im, ik = np.eye(m), np.eye(k)
    perm = np.arange(m * k).reshape(k, m).T.reshape(-1)
    op = np.kron(a11 @ a11.T, ik)
    op -= np.kron(a11, a22)
    op -= np.kron(a11.T, a22.T)
    op += np.kron(im, a22.T @ a22)
    op -= np.kron(a21.T @ a21, ik)
    op -= np.kron(im, a21 @ a21.T)
    op -= np.kron(a21.T, a12.T)[:, perm]
    op -= np.kron(a12, a21)[:, perm]
    return op


@pytest.mark.parametrize("m,k", [(3, 4), (1, 4), (3, 1)], ids=["m3-k4", "m1", "k1"])
def test_kron_helper_operator_is_bit_identical(m, k):
    gen = np.random.default_rng(10 * m + k)
    blocks = [gen.standard_normal(shape) for shape in ((m, m), (m, k), (k, m), (k, k))]
    assert np.array_equal(invariant_newton_operator(*blocks), _invariant_operator_kron_oracle(*blocks))
    a, b = blocks[0], blocks[3]
    assert np.array_equal(_kron_sum(m, k, ((1, *_pair(a, b)),)), np.kron(a, b))


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


@pytest.mark.parametrize("m,k", [(1, 1), (1, 5), (4, 1), (3, 5), (8, 16)])
def test_recursive_sylvester_operator_matches_the_kron_oracle(monkeypatch, m, k):
    # the one operator the recursion inverts, against an independent np.kron assembly
    gen = np.random.default_rng(200 * m + k)
    a11 = gen.standard_normal((m, m)) + 4.0 * np.eye(m)
    a22 = gen.standard_normal((k, k)) - 4.0 * np.eye(k)
    inverted = []
    inv = np.linalg.inv

    def recording_inv(a):
        inverted.append(np.array(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", recording_inv)
    solve_invariant_newton_recursive(a11, np.zeros((m, k)), np.zeros((k, m)), a22)
    oracle = np.kron(a11, np.eye(k)) - np.kron(np.eye(m), a22.T)
    assert len(inverted) == 1
    assert np.array_equal(inverted[0], oracle)


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
from projnewton.solvers import solve_invariant_newton_direct, solve_invariant_newton_recursive
gen = np.random.default_rng(0)
blocks = (gen.standard_normal((2, 2)) + 3.0 * np.eye(2), gen.standard_normal((2, 3)),
          0.1 * gen.standard_normal((3, 2)), gen.standard_normal((3, 3)) - 3.0 * np.eye(3))
solve_invariant_newton_recursive(*blocks)
solve_invariant_newton_direct(*blocks)
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
