"""Dense linear-algebra kernels with the exact conventions the geometry needs.

LAPACK (through ``numpy.linalg``) does the factorizations; these wrappers
fix the conventions on top.  The QR factorization has positive diagonal
entries of R (which makes the factorization unique and the Q-factor a
smooth function of the input), and the symmetric eigensolver orders
eigenvalues descending with an orthogonal eigenvector matrix.  LAPACK
failures surface as the library's own error types.  All kernels
are pure functions of ndarray values and are safe to call concurrently.
"""

from __future__ import annotations

import math

import numpy as np

from .config import TOL
from .errors import ConvergenceFailure, DimensionMismatch, NotSymmetric, SingularInput

__all__ = [
    "qr_positive",
    "sym_eig",
    "eigh_descending",
    "frobenius_norm",
    "binary_scaled",
    "symmetrize",
    "require_symmetric",
]


def frobenius_norm(mat):
    """||M||_F, bit for bit as ``np.linalg.norm`` computes it, except that a
    sum of squares that overflows on finite entries is rescaled by max|M|."""
    x = np.asarray(mat, dtype=float).ravel(order="K")
    sq = np.vdot(x, x)  # the BLAS dot of x.dot(x), which warns on overflow; vdot does not
    if sq == np.inf and np.isfinite(x).all():
        peak = np.abs(x).max()
        with np.errstate(over="ignore"):
            return float(peak * np.linalg.norm(x / peak))
    return math.sqrt(sq)


def binary_scaled(mat):
    """(M 2^-e, e), e the exponent of max|M| (0 if it is zero or not finite): max|M 2^-e| is
    in [1/2, 1), the scaling exact while M 2^-e has normal entries.  The costs' and CLI's units."""
    e = math.frexp(np.abs(mat).max(initial=0.0))[1]
    return np.ldexp(np.asarray(mat, dtype=float), -e), e


def symmetrize(mat):
    """Return M/2 + M^T/2, finite for any finite M; hygiene after commutator algebra."""
    half = 0.5 * mat
    return half + half.T


def require_symmetric(mat, what="matrix", tol=TOL.symmetry):
    """Validate finiteness and the symmetry defect max|M - M^T| against ``tol``
    max(1, max|M|); return the symmetrized copy.  The floor 1 admits the
    round-off of computed matrices with no units of their own."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got shape {mat.shape}")
    scale = np.abs(mat).max()
    if not np.isfinite(scale):  # a NaN defect would pass the test below
        i, j = np.argwhere(~np.isfinite(mat))[0]
        raise NotSymmetric(f"{what} has a non-finite entry {mat[i, j]} at ({i}, {j})")
    defect = np.abs(mat - mat.T).max()
    if defect > tol * max(1.0, scale):
        raise NotSymmetric(f"{what} symmetry defect {defect:.3e} exceeds {tol:.1e} relative")
    return symmetrize(mat)


def qr_positive(mat):
    """QR factorization with positive diagonal of R.

    LAPACK's Householder QR followed by a diagonal sign fix; the sign fix
    delivers the unique factorization with diag(R) > 0 while keeping the
    numerical robustness of Householder over Gram-Schmidt.

    Parameters
    ----------
    mat : (n, n) or (n, m) array
        Square invertible matrix, or a tall full-column-rank matrix.  For a
        tall input the full n-by-n Q is returned and the positivity
        convention applies to the first m diagonal entries of R.

    Returns
    -------
    q : (n, n) ndarray, orthogonal
    r : ndarray, same shape as ``mat``, upper triangular with positive
        leading diagonal

    Raises
    ------
    SingularInput
        If a diagonal entry of R falls below ``TOL.pivot`` relative to the
        norm of the input.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] < a.shape[1]:
        raise DimensionMismatch(f"qr_positive expects a square or tall matrix, got {a.shape}")
    n, m = a.shape
    q, r = np.linalg.qr(a, mode="complete")
    scale = max(np.linalg.norm(a), np.finfo(float).tiny)
    diag = np.diag(r)
    if np.any(np.abs(diag) <= TOL.pivot * scale):
        raise SingularInput(
            f"rank deficiency detected: |R[i,i]| <= {TOL.pivot:.1e} * ||M||"
        )
    signs = np.ones(n)
    signs[:m] = np.sign(diag)
    return q * signs, (r.T * signs).T


def sym_eig(mat):
    """Eigendecomposition of a symmetric matrix (LAPACK ``eigh``).

    Returns
    -------
    values : (n,) ndarray, sorted descending
    vectors : (n, n) ndarray, orthogonal, columns are eigenvectors

    Raises
    ------
    NotSymmetric
        If ``mat`` fails ``require_symmetric``, the check at this entry.
    ConvergenceFailure
        If the LAPACK eigensolver does not converge.
    """
    return eigh_descending(require_symmetric(mat, what="sym_eig input"))


def eigh_descending(a):
    """``sym_eig`` of a matrix its caller has checked with ``require_symmetric``."""
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"symmetric eigensolver did not converge: {exc}") from exc
    return values[::-1], vectors[:, ::-1]
