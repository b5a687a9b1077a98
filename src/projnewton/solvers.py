"""Linear matrix-equation solvers backing the Newton steps.

Sylvester and Lyapunov equations with symmetric coefficient blocks are
solved by double diagonalization, which yields the exact spectral-gap
diagnostics for free; the Lyapunov equation is the Sylvester kernel at
A22 = -A11.  The four-term matrix equation of the invariant-subspace Newton
step is solved either densely (Kronecker assembly on the m(n-m)-dimensional
parameter space) or by the alternating-Sylvester recursion, which factors
one Sylvester operator (the other half-sweep's is its transpose) and takes
the 1-norm separation 1/||op^-1||_1 as its gap; it has an explicit
no-convergence outcome, as nothing guarantees it converges.  Both four-term
solves check the block shapes where they enter.  Dense operators are inverted
once by LAPACK behind the relative singularity floor ``TOL.pivot``, the direct
four-term solve's one singularity test (``solve_dense`` for one vector).
``separation_floor`` is the one floor of the Sylvester, Lyapunov and
recursive solves' separations, which the costs' ``separation_bound`` read too.

``solve_sylvester`` and ``solve_lyapunov`` check their blocks where they
enter (``require_symmetric``, shapes); ``solve_sylvester_unchecked`` and
``solve_lyapunov_unchecked`` are the same solves without the checks, for
blocks their caller has just symmetrized, as the costs' Newton solves do.
They and the recursive solver return the separation they measured too.
"""

from __future__ import annotations

import sys

import numpy as np

from .config import TOL
from .decomp import eigh_descending, frobenius_norm, require_symmetric, symmetrize
from .errors import (
    DimensionMismatch,
    NoConvergence,
    SingularOperator,
    SpectralOverlap,
)

__all__ = [
    "separation_floor",
    "solve_sylvester",
    "solve_lyapunov",
    "solve_invariant_newton_direct",
    "solve_invariant_newton_recursive",
    "invariant_newton_operator",
    "invariant_newton_rhs",
    "solve_dense",
]


def separation_floor(*blocks):
    """The floor at or below which a Newton solve on the coefficient
    ``blocks`` raises ``SpectralOverlap``: ``TOL.spectral_gap`` times the
    largest ||block||_F, at least ``tiny``.  The solves and the costs'
    ``separation_bound`` read it here."""
    return TOL.spectral_gap * max(*map(frobenius_norm, blocks), sys.float_info.min)


def solve_sylvester(a11, a22, c):
    """Solve A11 Z - Z A22 = C for symmetric A11, A22.

    Both blocks are diagonalized; the solution is U [ (U^T C V)_ij /
    (lambda_i - mu_j) ] V^T.

    Raises
    ------
    NotSymmetric, DimensionMismatch
        If a block fails the entry checks.
    SpectralOverlap
        If min |lambda_i - mu_j| is at or below ``separation_floor(A11,
        A22)``; carries it as ``min_gap``.
    """
    a11 = require_symmetric(a11, what="A11")
    a22 = require_symmetric(a22, what="A22")
    c = np.atleast_2d(np.asarray(c, dtype=float))
    if c.shape != (a11.shape[0], a22.shape[0]):
        raise DimensionMismatch(
            f"right-hand side shape {c.shape} does not match blocks "
            f"{a11.shape[0]}x{a22.shape[0]}"
        )
    return solve_sylvester_unchecked(a11, a22, c)[0]


def solve_sylvester_unchecked(a11, a22, c):
    """``solve_sylvester`` on exactly symmetric finite blocks, unchecked; returns (Z, min_gap)."""
    return _spectral_solve(*eigh_descending(a11), *eigh_descending(a22), c,
                           separation_floor(a11, a22))


def _spectral_solve(lam, u, mu, v, c, floor):
    """U [ (U^T C V)_ij / (lambda_i - mu_j) ] V^T and min |lambda_i - mu_j|,
    which must clear ``floor`` (``SpectralOverlap`` otherwise)."""
    gaps = lam[:, None] - mu[None, :]
    min_gap = float(np.abs(gaps).min())
    if min_gap <= floor:
        raise SpectralOverlap(f"spectra overlap: min gap {min_gap:.3e} at or below the floor "
                              f"{floor:.3e}", min_gap)
    return u @ ((u.T @ c @ v) / gaps) @ v.T, min_gap


def solve_lyapunov(a11, c):
    """Solve A11 Z + Z A11 = C for symmetric A11 and symmetric C.

    The solution is symmetric (enforced on output).

    Raises
    ------
    NotSymmetric, DimensionMismatch
        If a block fails the entry checks.
    SpectralOverlap
        If min |lambda_i + lambda_j| over the eigenvalues of A11 is at or
        below ``separation_floor(A11)``; carries it as ``min_gap``.
    """
    a11 = require_symmetric(a11, what="A11")
    c = require_symmetric(c, what="Lyapunov right-hand side")
    if c.shape != a11.shape:
        raise DimensionMismatch("right-hand side shape mismatch")
    return solve_lyapunov_unchecked(a11, c)[0]


def solve_lyapunov_unchecked(a11, c):
    """``solve_lyapunov`` on exactly symmetric finite blocks, unchecked; returns (Z, min_gap):
    the Sylvester kernel at A22 = -A11 (lambda_i - (-lambda_j) rounds as lambda_i + lambda_j)."""
    lam, u = eigh_descending(a11)
    z, min_gap = _spectral_solve(lam, u, -lam, u, c, separation_floor(a11))
    return symmetrize(z), min_gap


def invariant_newton_operator(a11, a12, a21, a22):
    """Dense operator of the invariant-subspace Newton equation on vec(Z).

    Row-major vectorization: vec(A Z B) = (A kron B^T) vec(Z), whose entry
    (i k + j, p k + q) is A[i, p] B^T[j, q]; a Z^T term reads Z[q, p], so
    its factors pair (i, q) with (j, p).  The equation reads

        A11 (A11^T Z - Z A22^T) - (A11^T Z - Z A22^T) A22
        - A21^T (Z^T A12 + A21 Z) - (A12 Z^T + Z A21) A21^T  =  C.
    """
    m = a11.shape[0]
    k = a22.shape[0]
    im = np.eye(m)
    ik = np.eye(k)
    return _kron_sum(m, k, (
        (1, *_pair(a11 @ a11.T, ik)),
        (-1, *_pair(a11, a22)),
        (-1, *_pair(a11.T, a22.T)),
        (1, *_pair(im, a22.T @ a22)),
        (-1, *_pair(a21.T @ a21, ik)),
        (-1, *_pair(im, a21 @ a21.T)),
        (-1, a21.T[:, None, None, :], a12.T[None, :, :, None]),
        (-1, a12[:, None, None, :], a21[None, :, :, None]),
    ))


def _pair(a, b):
    """The factors A[i, p] and B[j, q] of A kron B in an (m, k, m, k) view."""
    return a[:, None, :, None], b[None, :, None, :]


def _kron_sum(m, k, terms):
    """The d x d operator, d = m k, that sums the products of the 4-D factor
    pairs ``(sign, x, y)`` in order, in place, with one reused temporary."""
    op = np.empty((m * k, m * k))
    out, tmp = op.reshape(m, k, m, k), np.empty((m, k, m, k))
    np.multiply(*terms[0][1:], out=out)
    for sign, x, y in terms[1:]:
        (np.add if sign > 0 else np.subtract)(out, np.multiply(x, y, out=tmp), out=out)
    return op


def invariant_newton_rhs(a11, a21, a22):
    """Right-hand side A21^T A22 - A11 A21^T of the Newton equation."""
    return a21.T @ a22 - a11 @ a21.T


def solve_invariant_newton_direct(a11, a12, a21, a22):
    """Solve the four-term Newton equation densely on the parameter space.

    Raises
    ------
    DimensionMismatch
        If the block shapes are not (m, m), (m, k), (k, m), (k, k).
    SingularOperator
        If the operator is singular, or max(||op||_1, max ||A_ij||_1^2)
        ||op^-1||_1 reaches 1 / ``TOL.pivot`` (degenerate Hessian).
    """
    a11, a12, a21, a22 = _four_term_blocks(a11, a12, a21, a22)
    op = invariant_newton_operator(a11, a12, a21, a22)
    # the operator is quadratic in the blocks; judged against at least that data scale,
    # an operator that collapsed to round-off (every subspace invariant) is degenerate
    data_scale = max(_norm_1(a11), _norm_1(a22), _norm_1(a12), _norm_1(a21)) ** 2
    inv = _checked_inverse(op, max(_norm_1(op), data_scale))
    return (inv @ invariant_newton_rhs(a11, a21, a22).reshape(-1)).reshape(a12.shape)


def _four_term_blocks(*blocks):
    """The blocks as floats shaped (m, m), (m, k), (k, m), (k, k); else ``DimensionMismatch``."""
    a11, a12, a21, a22 = (np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks)
    m, k = a12.shape[0], a12.shape[-1]
    if a12.shape != (m, k) or a11.shape != (m, m) or a22.shape != (k, k) or a21.shape != (k, m):
        raise DimensionMismatch("inconsistent block shapes")
    return a11, a12, a21, a22


def solve_invariant_newton_recursive(a11, a12, a21, a22):
    """Solve the four-term Newton equation by alternating Sylvester sweeps.

    Each sweep moves the coupling terms to the right-hand side at the
    previous iterate and solves

        A11 X - X A22     = C + A21^T (Z'^T A12 + A21 Z') + (A12 Z'^T + Z' A21) A21^T
        A11^T Z - Z A22^T = X

    starting from Z' = 0.  A fixed point satisfies the direct equation.
    The sweeps contract when the coupling blocks are small (near an
    invariant subspace); otherwise ``NoConvergence`` is raised, which ends
    the Newton run.  Returns Z and the separation.

    Raises
    ------
    DimensionMismatch
        If the block shapes are not (m, m), (m, k), (k, m), (k, k).
    SpectralOverlap
        If the separation 1/||op^-1||_1 of the Sylvester operator (far
        below the eigenvalue gap for non-normal blocks) is at or below
        ``separation_floor(A11, A22)``; carries it as ``min_gap``.
    NoConvergence
        If no relative update of the first ``TOL.recursive_max_sweeps`` sweeps
        falls to ``TOL.recursive_tol``, or at the first sweep whose update is
        not finite; carries the last finite relative update.
    """
    a11, a12, a21, a22 = _four_term_blocks(a11, a12, a21, a22)
    m, k = a12.shape
    c = invariant_newton_rhs(a11, a21, a22)
    # op1 = A11 (x) I - I (x) A22^T; op1^T is the second half-sweep's A11^T (x) I - I (x) A22
    op1 = np.zeros((m * k, m * k))
    op1.reshape(m, k, m, k)[:, np.arange(k), :, np.arange(k)] = a11
    op1.reshape(m, k, m, k)[np.arange(m), :, np.arange(m), :] -= a22.T
    try:
        inv1 = np.linalg.inv(op1)
        gap = 1.0 / _norm_1(inv1)
    except np.linalg.LinAlgError:
        gap = 0.0
    del op1  # the sweeps need only its inverse: free the d x d operator before them
    floor = separation_floor(a11, a22)
    if gap <= floor:
        raise SpectralOverlap(f"Sylvester operator nearly singular: separation {gap:.3e} "
                              f"at or below the floor {floor:.3e}", gap)
    z = np.zeros((m, k))
    residual = np.inf
    for sweep in range(1, TOL.recursive_max_sweeps + 1):
        rhs = c + a21.T @ (z.T @ a12 + a21 @ z) + (a12 @ z.T + z @ a21) @ a21.T
        z_new = (inv1.T @ (inv1 @ rhs.reshape(-1))).reshape(m, k)
        # a diverging sweep overflows in these norms first; stop on it below
        with np.errstate(over="ignore", invalid="ignore"):
            update = np.linalg.norm(z_new - z) / max(np.linalg.norm(z_new), np.finfo(float).tiny)
        if not np.isfinite(update):
            raise NoConvergence(
                f"recursive sweep {sweep} overflowed, last finite relative update {residual:.3e}",
                residual,
            )
        residual = update
        z = z_new
        if residual <= TOL.recursive_tol:
            return z, gap
    raise NoConvergence(
        f"recursive sweeps did not settle, last relative update {residual:.3e}",
        residual,
    )


def solve_dense(h, g):
    """Solve H x = g through LAPACK's LU-based inverse of H.

    Raises
    ------
    SingularOperator
        If H is exactly singular, or its condition number
        ||H||_1 ||H^-1||_1 reaches 1 / ``TOL.pivot`` (the relative
        singularity floor); signals a degenerate Newton system.
    """
    a = np.asarray(h, dtype=float)
    b = np.asarray(g, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"operator must be square, got {a.shape}")
    d = a.shape[0]
    if b.shape != (d,):
        raise DimensionMismatch(f"right-hand side must have shape ({d},)")
    return _checked_inverse(a, _norm_1(a)) @ b


def _checked_inverse(a, a_norm):
    """LAPACK inverse of a square operator of 1-norm (or scale) ``a_norm``, behind the
    relative singularity floor: ``SingularOperator`` if ``a`` is exactly singular or
    ``a_norm`` ||a^-1||_1 reaches 1 / ``TOL.pivot``."""
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularOperator(f"operator is singular: {exc}") from exc
    cond = a_norm * _norm_1(inv)
    if cond * TOL.pivot >= 1.0:
        raise SingularOperator(
            f"condition number {cond:.3e} reaches 1 / {TOL.pivot:.1e}"
        )
    return inv


def _norm_1(x):
    """||x||_1, the largest column sum of |x|: np.linalg.norm's sum without its dispatch."""
    return np.abs(x).sum(axis=0).max()
