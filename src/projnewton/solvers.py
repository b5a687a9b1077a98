"""Linear matrix-equation solvers backing the Newton steps.

Sylvester and Lyapunov equations with symmetric coefficient blocks are
solved by double diagonalization, which yields the exact spectral-gap
diagnostics for free.  The four-term matrix equation of the invariant-
subspace Newton step is solved either densely (Kronecker assembly on the
m(n-m)-dimensional parameter space) or by the alternating-Sylvester
recursion; the recursion carries an explicit no-convergence outcome since
no general guarantee exists for it.  Dense operators are inverted once
each by LAPACK behind the library's relative singularity floor
(``solve_dense`` for a single right-hand side).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TOL
from .decomp import require_symmetric, sym_eig, symmetrize
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
    """Minimal eigenvalue separation behind a solvability decision."""

    min_gap: float
    solvable: bool


def solve_sylvester(a11, a22, c):
    """Solve A11 Z - Z A22 = C for symmetric A11, A22.

    Both blocks are diagonalized; the solution is U [ (U^T C V)_ij /
    (lambda_i - mu_j) ] V^T.

    Raises
    ------
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
    lam, u = sym_eig(a11)
    mu, v = sym_eig(a22)
    gaps = np.abs(lam[:, None] - mu[None, :])
    min_gap = float(gaps.min())
    scale = max(np.linalg.norm(a11), np.linalg.norm(a22), np.finfo(float).tiny)
    if min_gap <= TOL.spectral_gap * scale:
        raise SpectralOverlap(
            f"spectra of A11 and A22 overlap: min gap {min_gap:.3e}",
            SpectralGapReport(min_gap, False),
        )
    z = u @ ((u.T @ c @ v) / (lam[:, None] - mu[None, :])) @ v.T
    return z


def solve_lyapunov(a11, c):
    """Solve A11 Z + Z A11 = C for symmetric A11 and symmetric C.

    The solution is symmetric (enforced on output).

    Raises
    ------
    SpectralOverlap
        If some eigenvalue pair of A11 nearly sums to zero.
    """
    a11 = require_symmetric(a11, what="A11")
    c = require_symmetric(c, what="Lyapunov right-hand side")
    if c.shape != a11.shape:
        raise DimensionMismatch("right-hand side shape mismatch")
    lam, u = sym_eig(a11)
    sums = np.abs(lam[:, None] + lam[None, :])
    min_gap = float(sums.min())
    scale = max(np.linalg.norm(a11), np.finfo(float).tiny)
    if min_gap <= TOL.spectral_gap * scale:
        raise SpectralOverlap(
            f"eigenvalue pair of A11 sums to {min_gap:.3e}",
            SpectralGapReport(min_gap, False),
        )
    z = u @ ((u.T @ c @ u) / (lam[:, None] + lam[None, :])) @ u.T
    return symmetrize(z)


def invariant_newton_operator(a11, a12, a21, a22):
    """Dense operator of the invariant-subspace Newton equation on vec(Z).

    Row-major vectorization; assembled from Kronecker identities
    vec(A Z B) = (A kron B^T) vec(Z) and a column permutation for the
    Z^T terms.  The equation reads

        A11 (A11^T Z - Z A22^T) - (A11^T Z - Z A22^T) A22
        - A21^T (Z^T A12 + A21 Z) - (A12 Z^T + Z A21) A21^T  =  C.
    """
    m = a11.shape[0]
    k = a22.shape[0]
    im = np.eye(m)
    ik = np.eye(k)
    op = np.kron(a11 @ a11.T, ik)
    op -= np.kron(a11, a22)
    op -= np.kron(a11.T, a22.T)
    op += np.kron(im, a22.T @ a22)
    op -= np.kron(a21.T @ a21, ik)
    op -= np.kron(im, a21 @ a21.T)
    # the Z^T terms act on vec_r(Z^T), whose entry j*m + i is Z[i, j],
    # entry i*k + j of vec_r(Z)
    perm = np.arange(m * k).reshape(k, m).T.reshape(-1)
    op -= np.kron(a21.T, a12.T)[:, perm]
    op -= np.kron(a12, a21)[:, perm]
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
    if np.linalg.norm(op, 1) <= TOL.pivot * data_scale:
        raise SingularOperator("Newton operator vanished at the data scale")
    inv = _checked_inverse(op)
    sol = inv @ rhs
    cond = data_scale * np.linalg.norm(inv, 1)
    if cond > TOL.condition_limit:
        raise SingularOperator(
            f"Newton operator condition estimate {cond:.3e} exceeds limit"
        )
    return sol.reshape(m, k)


def solve_invariant_newton_recursive(a11, a12, a21, a22, z0=None, max_sweeps=100, tol=1e-12):
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
        If A11 and A22 have (numerically) intersecting spectra, in which
        case neither Sylvester equation is solvable.
    NoConvergence
        If the sweep limit is reached before the update stabilizes, or at
        the first sweep whose update is not finite; carries the last finite
        relative update.
    """
    a11, a12, a21, a22 = (np.atleast_2d(np.asarray(b, dtype=float)) for b in (a11, a12, a21, a22))
    m, k = a12.shape
    c = invariant_newton_rhs(a11, a21, a22)
    ik = np.eye(k)
    op1 = np.kron(a11, ik) - np.kron(np.eye(m), a22.T)
    op2 = np.kron(a11.T, ik) - np.kron(np.eye(m), a22)
    gap = min(_min_singular_estimate(op1), _min_singular_estimate(op2))
    scale = max(np.linalg.norm(a11), np.linalg.norm(a22), np.finfo(float).tiny)
    if gap <= TOL.spectral_gap * scale:
        raise SpectralOverlap(
            f"Sylvester operator nearly singular: estimate {gap:.3e}",
            SpectralGapReport(gap, False),
        )
    # both Sylvester operators are the same in every sweep: invert them once
    inv1 = _checked_inverse(op1)
    inv2 = _checked_inverse(op2)
    z = np.zeros((m, k)) if z0 is None else np.asarray(z0, dtype=float).reshape(m, k).copy()
    residual = np.inf
    for sweep in range(1, max_sweeps + 1):
        rhs = c + a21.T @ (z.T @ a12 + a21 @ z) + (a12 @ z.T + z @ a21) @ a21.T
        z_new = (inv2 @ (inv1 @ rhs.reshape(-1))).reshape(m, k)
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


def _min_singular_estimate(op):
    """Smallest singular value of a dense operator (exact at desk scale)."""
    return float(np.linalg.svd(op, compute_uv=False)[-1])


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
    return _checked_inverse(a) @ b


def _checked_inverse(a):
    """LAPACK inverse of a square operator behind the relative singularity
    floor: ``SingularOperator`` if ``a`` is exactly singular or its 1-norm
    condition number reaches 1 / ``TOL.pivot``."""
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularOperator(f"operator is singular: {exc}") from exc
    cond = np.linalg.norm(a, 1) * np.linalg.norm(inv, 1)
    if cond * TOL.pivot >= 1.0:
        raise SingularOperator(
            f"condition number {cond:.3e} reaches 1 / {TOL.pivot:.1e}"
        )
    return inv
