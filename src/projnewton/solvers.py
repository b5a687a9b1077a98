"""Linear matrix-equation solvers backing the Newton steps: one per equation.

Sylvester and Lyapunov equations with symmetric coefficient blocks are
solved by double diagonalization, which yields the exact spectral-gap
diagnostics for free; the Lyapunov equation is the Sylvester kernel at
A22 = -A11.  The four-term equation of the invariant-subspace Newton step is
solved densely: Kronecker assembly on the m(n-m)-dimensional parameter space
and one LU solve.  Its operator, a symmetric Hessian, is certified by one
Cholesky factorization, of the last step's operator where Weyl's inequality
allows, else by its inverse behind the relative singularity floor
``TOL.pivot`` (``solve_dense``'s test too).  ``separation_floor`` is the
one floor of the Sylvester and Lyapunov separations, ``four_term_floor`` the
one of the four-term operator's.

Data is checked where it enters the library: the costs, the frames and the
CLI.  The solvers take the blocks of B that the costs' Newton solves cut
from it and do not check them again; a caller outside the loop checks its
blocks itself (``decomp.require_symmetric``).  The Sylvester and Lyapunov
solvers return the separation they measured too.
"""

from __future__ import annotations

import sys

import numpy as np

from .config import TOL
from .decomp import eigh_descending, frobenius_norm, symmetrize
from .errors import DimensionMismatch, SingularOperator, SpectralOverlap

__all__ = [
    "separation_floor",
    "four_term_floor",
    "solve_sylvester",
    "solve_lyapunov",
    "solve_invariant_newton",
    "certify_invariant_newton",
    "invariant_newton_operator",
    "invariant_newton_rhs",
    "solve_dense",
]


def separation_floor(*blocks):
    """The floor at or below which a Sylvester or Lyapunov solve on the
    coefficient ``blocks`` raises ``SpectralOverlap``: ``TOL.spectral_gap``
    times the largest ||block||_F, at least ``tiny``.  The solves and the
    trace cost's ``separation_bound`` read it here."""
    return TOL.spectral_gap * max(*map(frobenius_norm, blocks), sys.float_info.min)


def four_term_floor(m, k, scale):
    """The floor ``TOL.pivot`` max(3 sqrt(d), max(m, k)) ``scale`` of the
    four-term operator's separation 1/||L^-1||_1, d = m k, for blocks of
    A = [[A11, A12], [A21, A22]] with ||A||_F^2 = ``scale``.  It is at least
    the inverse's singularity test TOL.pivot max(||L||_1, max ||A_ij||_1^2),
    as ||L||_1 <= 3 sqrt(d) ||A||_F^2 and ||A_ij||_1^2 <= max(m, k) ||A||_F^2:
    a separation above it is one that test accepts."""
    return TOL.pivot * max(3.0 * np.sqrt(m * k), max(m, k)) * scale


def solve_sylvester(a11, a22, c):
    """Solve A11 Z - Z A22 = C for symmetric A11, A22; returns (Z, min_gap).

    Both blocks are diagonalized; the solution is U [ (U^T C V)_ij /
    (lambda_i - mu_j) ] V^T.  The caller checks the blocks: float arrays of
    shapes (m, m), (k, k) and (m, k), A11 and A22 exactly symmetric (as
    ``require_symmetric`` returns them), every entry finite.

    Raises
    ------
    SpectralOverlap
        If min |lambda_i - mu_j| is at or below ``separation_floor(A11,
        A22)``; carries it as ``min_gap``.
    """
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
    """Solve A11 Z + Z A11 = C for symmetric A11 and C; returns (Z, min_gap).

    The Sylvester kernel at A22 = -A11 (lambda_i - (-lambda_j) rounds as
    lambda_i + lambda_j); Z is symmetric (enforced on output).  The caller
    checks the blocks: exactly symmetric finite float arrays of one shape.

    Raises
    ------
    SpectralOverlap
        If min |lambda_i + lambda_j| over the eigenvalues of A11 is at or
        below ``separation_floor(A11)``; carries it as ``min_gap``.
    """
    lam, u = eigh_descending(a11)
    z, min_gap = _spectral_solve(lam, u, -lam, u, c, separation_floor(a11))
    return symmetrize(z), min_gap


def invariant_newton_operator(a11, a12, a21, a22):
    """Dense operator of the invariant-subspace Newton equation on vec(Z).

    Row-major vectorization: vec(A Z B) = (A kron B^T) vec(Z), whose entry
    (i k + j, p k + q) is A[i, p] B^T[j, q]; a Z^T term reads Z[q, p], so
    its factors pair (i, q) with (j, p).  The equation reads

        A11 (A11^T Z - Z A22^T) - (A11^T Z - Z A22^T) A22
        - A21^T (Z^T A12 + A21 Z) - (A12 Z^T + Z A21) A21^T  =  C,

    so the operator is G kron I + I kron H - A11 kron A22 - A11^T kron A22^T
    less the two Z^T terms, with G = A11 A11^T - A21^T A21 and H = A22^T A22
    - A21 A21^T.  G kron I and I kron H are written onto block diagonals; the
    other four are subtracted in place, in that order, with one temporary.
    """
    m = a11.shape[0]
    k = a22.shape[0]
    op = np.zeros((m * k, m * k))
    out, tmp = op.reshape(m, k, m, k), np.empty((m, k, m, k))
    out[:, np.arange(k), :, np.arange(k)] = a11 @ a11.T - a21.T @ a21
    out[np.arange(m), :, np.arange(m), :] += a22.T @ a22 - a21 @ a21.T
    for x, y in (_pair(a11, a22), _pair(a11.T, a22.T),
                 (a21.T[:, None, None, :], a12.T[None, :, :, None]),
                 (a12[:, None, None, :], a21[None, :, :, None])):
        # x broadcast into tmp first: two broadcast operands make numpy buffer the product
        tmp[...] = x
        np.subtract(out, np.multiply(tmp, y, out=tmp), out=out)
    return op


def _pair(a, b):
    """The factors A[i, p] and B[j, q] of A kron B in an (m, k, m, k) view."""
    return a[:, None, :, None], b[None, :, None, :]


def invariant_newton_rhs(a11, a21, a22):
    """Right-hand side A21^T A22 - A11 A21^T of the Newton equation."""
    return a21.T @ a22 - a11 @ a21.T


def solve_invariant_newton(b, c):
    """Solve the four-term Newton equation L(Z) = C of B = [[A11, A12], [A21, A22]],
    with C m x k (``invariant_newton_rhs``), A11 m x m, by one LU solve; returns Z,
    uncertified, and the operator L the solve read, which it leaves as it was:
    ``certify_invariant_newton`` may factor it at the next iterate.  The caller
    checks B: a square float array with finite entries, 0 < m < its size.

    Raises
    ------
    SingularOperator
        Only if the operator is exactly singular.
    """
    op = invariant_newton_operator(*_blocks(b, c.shape[0]))
    try:
        z = np.linalg.solve(op, c.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise SingularOperator(f"operator is singular: {exc}") from exc
    return z.reshape(c.shape), op


def certify_invariant_newton(b, m, scale, last=None):
    """Certify the four-term operator L of a finite B (blocks as above, d = m k,
    ``scale`` = ||B||_F^2): "cholesky" if a Cholesky factorization of L - tau I
    succeeds, else "solve" if the inverse's singularity test passes (a saddle, or
    L near f = ``four_term_floor``), else ``SingularOperator``.  With u = eps / 2,
    nu = (d + 1) u, gamma_{d+1} = nu / (1 - nu) and eta = 2^-1074 in Rump's margin,

    tau = sqrt(d) (f + 16 u 3 d scale) + nu sum|L_ii| / (1 - 2 nu) + 4 eta (2 (d + 1) + max|L_ii|).

    L* of B, the Hessian of ||(I - P) A P||^2, is symmetric.  An entry of L rounds at most
    max(m, k) + 6 < 8 d times, so |L - L*| <= 8 d u |L|_+, the operator of the |A_ij| with
    all signs +, whose 1-, inf- and 2-norms are at most 3 sqrt(d) scale: the second term
    bounds the 2-norm of sym(L) - L*, and of the error of the shifted lower triangle that
    LAPACK factors.  A Cholesky of M that runs to completion factors M + dM with ||dM||_2
    below the last two terms (Rump 2006, "Verification of positive definiteness", BIT 46).
    So success puts lambda_min(L*), lambda_min(sym L) and sigma_min(L) above sqrt(d) f:
    ||L^-1||_1 <= sqrt(d) ||L^-1||_2 < 1 / f, and f >= TOL.pivot max(||L||_1, max ||A_ij||_1^2)
    passes the inverse's test, which judges L against at least that data scale.

    ``last`` is (B', L'), the B of the last step and the operator L' its solve read.
    Given it, the Cholesky factors L' - (tau' + s) I first, tau' the shift above from the
    diagonal of L', s >= ||L*(B) - L*(B')||_2 (``_operator_change``): by Weyl's inequality
    success proves the same of L*(B), and assembles no L.  Otherwise s = 0 with L of B."""
    if last is not None and _shifted_cholesky(last[1], m, scale, _operator_change(b, last[0], m)):
        return "cholesky"
    op = invariant_newton_operator(*_blocks(b, m))
    if _shifted_cholesky(op, m, scale, 0.0):
        return "cholesky"
    data_scale = max(np.linalg.norm(b[:m], 1), np.linalg.norm(b[m:], 1)) ** 2
    _checked_inverse(op, max(np.linalg.norm(op, 1), data_scale))
    return "solve"


def _shifted_cholesky(op, m, scale, slack):
    """Whether a Cholesky of ``op`` - (tau + ``slack``) I runs to completion, tau the shift
    of ``certify_invariant_newton`` from ``op``'s diagonal; ``op`` is left as it was."""
    d, diagonal = op.shape[0], op.diagonal().copy()
    nu, size = (d + 1) * sys.float_info.epsilon / 2, np.abs(diagonal)
    tau = np.sqrt(d) * (four_term_floor(m, d // m, scale) + TOL.separation_roundoff * 3 * d * scale)
    tau += nu / (1.0 - 2.0 * nu) * size.sum() + 4 * 5e-324 * (2 * (d + 1) + size.max())
    op.flat[:: d + 1] -= tau + slack
    try:
        np.linalg.cholesky(op)
        return True
    except np.linalg.LinAlgError:
        return False
    finally:
        op.flat[:: d + 1] = diagonal


def _operator_change(b, last_b, m):
    """s >= ||L*(B) - L*(B')||_2.  L* sums eight products of blocks X and Y (four in G
    and H, the two Kronecker terms, the two Z^T terms), each of 2-norm <= ||X||_F ||Y||_F,
    and XY - X'Y' = (dX (Y + Y') + (X + X') dY) / 2.  With d_ij = ||B_ij - B'_ij||_F and
    s_ij = ||B_ij + B'_ij||_F, s = (d11 + d22) (s11 + s22) + d21 (2 s21 + s12) + d12 s21,
    at most 16 ||dB||_F ||A||_F; 1 + 16 u n^2 covers its round-off, barring underflow.
    The norms are taken of halves, whose squares are at most ||A||_F^2: none overflows."""
    halves = np.stack((b - last_b, b + last_b)) * 0.5
    sums = np.add.reduceat(np.add.reduceat(halves * halves, [0, m], axis=1), [0, m], axis=2)
    (d11, d12), (d21, d22), (s11, s12), (s21, s22) = np.sqrt(sums).reshape(4, 2).tolist()
    slack = 4.0 * ((d11 + d22) * (s11 + s22) + d21 * (2.0 * s21 + s12) + d12 * s21)
    return slack * (1.0 + TOL.separation_roundoff * b.shape[0] ** 2)


def _blocks(b, m):
    """A11, A12, A21 and A22 of B, A11 m x m."""
    return b[:m, :m], b[:m, m:], b[m:, :m], b[m:, m:]


def solve_dense(h, g):
    """Solve H x = g for a square H and g of its size, through LAPACK's
    LU-based inverse of H.

    Raises
    ------
    DimensionMismatch
        If an entry of H or g is not finite: a cost's Hessian or gradient.
    SingularOperator
        If H is exactly singular, or its condition number
        ||H||_1 ||H^-1||_1 reaches 1 / ``TOL.pivot`` (the relative
        singularity floor); signals a degenerate Newton system.
    """
    if not (np.isfinite(h).all() and np.isfinite(g).all()):
        raise DimensionMismatch("operator and right-hand side must have finite entries")
    return _checked_inverse(h, np.linalg.norm(h, 1)) @ g


def _checked_inverse(a, a_norm):
    """LAPACK inverse of a square operator of 1-norm (or scale) ``a_norm``, behind
    the relative singularity floor: ``SingularOperator`` if ``a`` is exactly
    singular or ``a_norm`` ||a^-1||_1 reaches 1 / ``TOL.pivot`` or is NaN."""
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularOperator(f"operator is singular: {exc}") from exc
    cond = a_norm * np.linalg.norm(inv, 1)
    if not cond * TOL.pivot < 1.0:
        raise SingularOperator(
            f"condition number {cond:.3e} reaches 1 / {TOL.pivot:.1e}"
        )
    return inv
