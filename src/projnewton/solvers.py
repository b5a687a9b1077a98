"""Linear matrix-equation solvers backing the Newton steps.

Sylvester and Lyapunov equations with symmetric coefficient blocks are
solved by double diagonalization, which yields the exact spectral-gap
diagnostics for free.  The four-term matrix equation of the invariant-
subspace Newton step is solved either densely (Kronecker assembly on the
m(n-m)-dimensional parameter space) or by the alternating-Sylvester
recursion, which factors one Sylvester operator (the other half-sweep's is
its transpose) and takes the 1-norm separation 1/||op^-1||_1 as its gap;
it has an explicit no-convergence outcome, as nothing guarantees it
converges.  Dense operators are inverted once by LAPACK behind the
library's relative singularity floor (``solve_dense`` for one vector).

``solve_sylvester`` and ``solve_lyapunov`` check their blocks where they
enter (``require_symmetric``, shapes); ``solve_sylvester_unchecked`` and
``solve_lyapunov_unchecked`` are the same solves without the checks, for
blocks their caller has just symmetrized, as the costs' Newton solves do.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "SpectralGapReport",
    "solve_sylvester",
    "solve_lyapunov",
    "solve_invariant_newton_direct",
    "solve_invariant_newton_recursive",
    "invariant_newton_operator",
    "invariant_newton_rhs",
    "solve_dense",
]


@dataclass(frozen=True)
class SpectralGapReport:
    """The minimal spectral separation that a ``SpectralOverlap`` reports."""

    min_gap: float


def solve_sylvester(a11, a22, c):
    """Solve A11 Z - Z A22 = C for symmetric A11, A22.

    Both blocks are diagonalized; the solution is U [ (U^T C V)_ij /
    (lambda_i - mu_j) ] V^T.

    Raises
    ------
    NotSymmetric, DimensionMismatch
        If a block fails the entry checks.
    SpectralOverlap
        If the spectra of A11 and A22 are closer than the relative gap
        tolerance; carries a ``SpectralGapReport``.
    """
    a11 = require_symmetric(a11, what="A11")
    a22 = require_symmetric(a22, what="A22")
    c = np.atleast_2d(np.asarray(c, dtype=float))
    if c.shape != (a11.shape[0], a22.shape[0]):
        raise DimensionMismatch(
            f"right-hand side shape {c.shape} does not match blocks "
            f"{a11.shape[0]}x{a22.shape[0]}"
        )
    return solve_sylvester_unchecked(a11, a22, c)


def solve_sylvester_unchecked(a11, a22, c):
    """``solve_sylvester`` on exactly symmetric finite blocks, unchecked."""
    lam, u = eigh_descending(a11)
    mu, v = eigh_descending(a22)
    gaps = np.abs(lam[:, None] - mu[None, :])
    min_gap = float(gaps.min())
    scale = max(frobenius_norm(a11), frobenius_norm(a22), np.finfo(float).tiny)
    if min_gap <= TOL.spectral_gap * scale:
        raise SpectralOverlap(
            f"spectra of A11 and A22 overlap: min gap {min_gap:.3e}",
            SpectralGapReport(min_gap),
        )
    z = u @ ((u.T @ c @ v) / (lam[:, None] - mu[None, :])) @ v.T
    return z


def solve_lyapunov(a11, c):
    """Solve A11 Z + Z A11 = C for symmetric A11 and symmetric C.

    The solution is symmetric (enforced on output).

    Raises
    ------
    NotSymmetric, DimensionMismatch
        If a block fails the entry checks.
    SpectralOverlap
        If some eigenvalue pair of A11 nearly sums to zero.
    """
    a11 = require_symmetric(a11, what="A11")
    c = require_symmetric(c, what="Lyapunov right-hand side")
    if c.shape != a11.shape:
        raise DimensionMismatch("right-hand side shape mismatch")
    return solve_lyapunov_unchecked(a11, c)


def solve_lyapunov_unchecked(a11, c):
    """``solve_lyapunov`` on exactly symmetric finite blocks, unchecked."""
    lam, u = eigh_descending(a11)
    sums = np.abs(lam[:, None] + lam[None, :])
    min_gap = float(sums.min())
    scale = max(frobenius_norm(a11), np.finfo(float).tiny)
    if min_gap <= TOL.spectral_gap * scale:
        raise SpectralOverlap(
            f"eigenvalue pair of A11 sums to {min_gap:.3e}",
            SpectralGapReport(min_gap),
        )
    z = u @ ((u.T @ c @ u) / (lam[:, None] + lam[None, :])) @ u.T
    return symmetrize(z)


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
    SingularOperator
        If the assembled operator is singular or its condition estimate
        exceeds the configured ceiling (degenerate Hessian).
    """
    a11, a12, a21, a22 = (np.atleast_2d(np.asarray(b, dtype=float)) for b in (a11, a12, a21, a22))
    m, k = a12.shape
    if a11.shape != (m, m) or a22.shape != (k, k) or a21.shape != (k, m):
        raise DimensionMismatch("inconsistent block shapes")
    op = invariant_newton_operator(a11, a12, a21, a22)
    rhs = invariant_newton_rhs(a11, a21, a22).reshape(-1)
    # the operator is quadratic in the blocks; conditioning is judged
    # against that data scale, so an operator that collapsed to round-off
    # (every subspace invariant) counts as degenerate
    data_scale = max(
        np.linalg.norm(a11, 1), np.linalg.norm(a22, 1),
        np.linalg.norm(a12, 1), np.linalg.norm(a21, 1),
    ) ** 2
    data_scale = max(data_scale, np.finfo(float).tiny)
    op_norm = np.linalg.norm(op, 1)
    if op_norm <= TOL.pivot * data_scale:
        raise SingularOperator("Newton operator vanished at the data scale")
    inv, inv_norm = _checked_inverse(op, op_norm)
    sol = inv @ rhs
    cond = data_scale * inv_norm
    if cond > TOL.condition_limit:
        raise SingularOperator(
            f"Newton operator condition estimate {cond:.3e} exceeds limit"
        )
    return sol.reshape(m, k)


def solve_invariant_newton_recursive(a11, a12, a21, a22, max_sweeps=TOL.recursive_max_sweeps,
                                     tol=TOL.recursive_tol):
    """Solve the four-term Newton equation by alternating Sylvester sweeps.

    Each sweep moves the coupling terms to the right-hand side at the
    previous iterate and solves

        A11 X - X A22     = C + A21^T (Z'^T A12 + A21 Z') + (A12 Z'^T + Z' A21) A21^T
        A11^T Z - Z A22^T = X

    starting from Z' = 0.  A fixed point satisfies the direct equation.
    The sweeps contract when the coupling blocks are small (near an
    invariant subspace); otherwise ``NoConvergence`` is raised and the
    caller may fall back to the direct solver.

    Raises
    ------
    SpectralOverlap
        If the separation 1/||op^-1||_1 of the Sylvester operator (far
        below the eigenvalue gap for non-normal blocks) is below the floor.
    NoConvergence
        If the sweep limit is reached before the update stabilizes, or at
        the first sweep whose update is not finite; carries the last finite
        relative update.
    """
    a11, a12, a21, a22 = (np.atleast_2d(np.asarray(b, dtype=float)) for b in (a11, a12, a21, a22))
    m, k = a12.shape
    c = invariant_newton_rhs(a11, a21, a22)
    # op1 = A11 (x) I - I (x) A22^T; op1^T is the second half-sweep's A11^T (x) I - I (x) A22
    op1 = np.zeros((m * k, m * k))
    op1.reshape(m, k, m, k)[:, np.arange(k), :, np.arange(k)] = a11
    op1.reshape(m, k, m, k)[np.arange(m), :, np.arange(m), :] -= a22.T
    try:
        inv1 = np.linalg.inv(op1)
        gap = 1.0 / np.linalg.norm(inv1, 1)
    except np.linalg.LinAlgError:
        gap = 0.0
    scale = max(np.linalg.norm(a11), np.linalg.norm(a22), np.finfo(float).tiny)
    if gap <= TOL.spectral_gap * scale:
        raise SpectralOverlap(
            f"Sylvester operator nearly singular: separation {gap:.3e}",
            SpectralGapReport(gap),
        )
    # the 1-norm condition number is ||op1||_1 / gap: the singularity floor
    if gap <= TOL.pivot * np.linalg.norm(op1, 1):
        raise SingularOperator(f"condition number reaches 1 / {TOL.pivot:.1e}")
    z = np.zeros((m, k))
    residual = np.inf
    for sweep in range(1, max_sweeps + 1):
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
        if residual <= tol:
            return z
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
    return _checked_inverse(a, np.linalg.norm(a, 1))[0] @ b


def _checked_inverse(a, a_norm):
    """LAPACK inverse of a square operator of 1-norm ``a_norm``, and its 1-norm, behind
    the relative singularity floor: ``SingularOperator`` if ``a`` is exactly
    singular or its 1-norm condition number reaches 1 / ``TOL.pivot``."""
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularOperator(f"operator is singular: {exc}") from exc
    inv_norm = np.linalg.norm(inv, 1)
    cond = a_norm * inv_norm
    if cond * TOL.pivot >= 1.0:
        raise SingularOperator(
            f"condition number {cond:.3e} reaches 1 / {TOL.pivot:.1e}"
        )
    return inv, inv_norm
