"""The Lagrange Grassmannian: Lagrangian subspaces of R^{2n} as projectors.

A Lagrangian projector is a rank-n projector P on R^{2n} with P J P = 0 for
the standard symplectic form J; ``LagProjector`` is a ``Projector`` and
``SymplecticFrame`` an ``OrthoFrame`` that is also symplectic.  Tangent
parameters are symmetric n-by-n blocks.  The submanifold is totally
geodesic, so geodesics and distances are the Grassmann ones, and so are the
three chart pushes: at a symmetric Z the singular vectors pair up as
W = U diag(sign) and the rotation the push applies has the
commuting-with-J block form [[X, -Y], [Y, X]], so a pushed frame stays
symplectic to round-off with no correction step.  The J-corrected
tangent projection is needed only in frame coordinates.  On a Lagrangian P,
tr(A P) = tr(H P) + tr(A) / 2 with H = (A + J A J) / 2, and on a symplectic
frame Theta H Theta^T is the Hamiltonian part of B = Theta A Theta^T
(``hamiltonian_part``): the trace cost's Newton equation there is the Grassmann
one on that part, and its gradient block the symmetric part of B12
(``RayleighCost.frame_terms``).  This module alone builds J, and holds the tests
of structure in it: ``require_hamiltonian`` (J H J = H) and
``lagrangian_residual`` (X^T J X = 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .config import TOL
from .errors import DimensionMismatch, NotAProjector, NotSymmetric
from .grassmann import OrthoFrame, Projector

__all__ = [
    "require_hamiltonian",
    "hamiltonian_part",
    "lagrangian_residual",
    "LagProjector",
    "SymplecticFrame",
    "symplectic_frame_from_basis",
]


@cache
def _sympl_form(n):
    """J on R^{2n}, built once per n and read-only: the one this module uses."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    j.flags.writeable = False
    return j


def require_hamiltonian(h, what, tol):
    """J H J of a symmetric H of even dimension whose defect max|J H J - H| is at
    most ``tol`` max(1, max|H|): H = [[S, T], [T, -S]] to that tolerance;
    else ``DimensionMismatch`` (odd dimension) or ``NotSymmetric``."""
    if h.shape[0] % 2:
        raise DimensionMismatch(f"{what} must have even dimension 2n, got {h.shape[0]}")
    j = _sympl_form(h.shape[0] // 2)
    jhj = j @ h @ j
    defect = np.abs(jhj - h).max()
    if defect > tol * max(1.0, np.abs(h).max()):
        raise NotSymmetric(f"{what} JHJ - H defect {defect:.3e} exceeds {tol:.1e} relative; "
                           "not symmetric Hamiltonian [[S, T], [T, -S]]")
    return jhj


def hamiltonian_part(b):
    """(B + J B J) / 2 = [[M, G], [G, -M]] of an exactly symmetric finite B on R^{2n},
    with M = (B11 - B22) / 2 and G = (B12 + B21) / 2 = sym(B12).  J B J =
    [[-B22, B21], [B12, -B11]] is exact (each entry one product by +-1, the rest
    zeros), so the part is exactly symmetric and its B22 exactly -B11."""
    j = _sympl_form(b.shape[0] // 2)
    return 0.5 * (b + j @ b @ j)


def lagrangian_residual(x):
    """max |X^T J X| of a 2n-row X: 0 where its columns span an isotropic subspace."""
    return float(np.abs(x.T @ _sympl_form(x.shape[0] // 2) @ x).max())


class LagProjector(Projector):
    """Rank-n projector on R^{2n} with P J P = 0."""

    def as_projector(self) -> Projector:
        """The point itself: a Lagrangian projector is a Grassmannian one."""
        return self


@dataclass(frozen=True)
class SymplecticFrame(OrthoFrame):
    """Orthogonal symplectic frame with P = Theta^T diag(I_n, 0) Theta; the
    rank n is half the dimension of Theta."""

    rank: int = field(init=False)
    symmetric_steps = True

    def __post_init__(self):
        n2 = np.shape(self.theta)[0] if np.ndim(self.theta) == 2 else 0  # OrthoFrame rejects it
        if n2 % 2:
            raise DimensionMismatch("symplectic frame must have even dimension")
        object.__setattr__(self, "rank", n2 // 2)
        super().__post_init__()
        symp = self.symplecticity_residual()
        if symp > TOL.lagrangian:
            raise NotAProjector(f"frame symplecticity defect {symp:.3e}")

    def projector(self) -> LagProjector:
        n = self.rank
        return LagProjector(self.theta[:n].T @ self.theta[:n], n)

    def symplecticity_residual(self):
        j = _sympl_form(self.rank)
        return float(np.abs(self.theta.T @ j @ self.theta - j).max())


def symplectic_frame_from_basis(basis) -> SymplecticFrame:
    """Orthogonal-symplectic frame for a Lagrangian subspace given an
    orthonormal basis U: Theta^T = [U, -J U]."""
    u = np.asarray(basis, dtype=float)
    if u.ndim != 2 or u.shape[0] != 2 * u.shape[1]:
        raise DimensionMismatch(f"expected a (2n, n) basis, got {u.shape}")
    j = _sympl_form(u.shape[1])
    return SymplecticFrame(np.hstack([u, -j @ u]).T)
