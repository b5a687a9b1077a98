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
tangent projection is needed only in frame coordinates, where it is the
symmetric part of the gradient block (``RayleighCost.frame_terms``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import TOL
from .errors import DimensionMismatch, NotAProjector
from .grassmann import OrthoFrame, Projector

__all__ = [
    "sympl_form",
    "LagProjector",
    "SymplecticFrame",
    "random_lag_projector",
    "symplectic_frame_from_basis",
    "lag_frame_from_projector",
]


def sympl_form(n):
    """The standard symplectic form J = [[0, I], [-I, 0]] on R^{2n}."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


class LagProjector(Projector):
    """Rank-n projector on R^{2n} with P J P = 0."""

    def as_projector(self) -> Projector:
        """The point itself: a Lagrangian projector is a Grassmannian one."""
        return self

    @classmethod
    def from_matrix(cls, mat):
        base = Projector.from_matrix(mat)
        n2 = base.dim
        if n2 % 2 or base.rank != n2 // 2:
            raise NotAProjector(
                f"Lagrangian projector needs rank n in dimension 2n, got rank "
                f"{base.rank} in dimension {n2}"
            )
        n = n2 // 2
        residual = np.abs(base.mat @ sympl_form(n) @ base.mat).max()
        if residual > TOL.lagrangian:
            raise NotAProjector(f"PJP residual {residual:.3e} violates the Lagrangian condition")
        return cls(base.mat, n)


@dataclass(frozen=True)
class SymplecticFrame(OrthoFrame):
    """Orthogonal symplectic frame with P = Theta^T diag(I_n, 0) Theta; the
    rank n is half the dimension of Theta."""

    rank: int = field(init=False)

    def __post_init__(self):
        n2 = np.shape(self.theta)[0]
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
        j = sympl_form(self.rank)
        return float(np.abs(self.theta.T @ j @ self.theta - j).max())


def random_lag_projector(n, seed):
    """Seeded random Lagrangian point from the orthogonal-symplectic frame
    [[X, -Y], [Y, X]] of a random unitary X + iY: the Q-factor, with its
    phases fixed, of the complex QR of a Gaussian matrix."""
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, r = np.linalg.qr(gauss)
    u = u * (np.diag(r) / np.abs(np.diag(r)))
    x, y = u.real, u.imag
    frame = SymplecticFrame(np.block([[x, -y], [y, x]]))
    return frame.projector(), frame


def symplectic_frame_from_basis(basis) -> SymplecticFrame:
    """Orthogonal-symplectic frame for a Lagrangian subspace given an
    orthonormal basis U: Theta^T = [U, -J U]."""
    u = np.asarray(basis, dtype=float)
    if u.ndim != 2 or u.shape[0] != 2 * u.shape[1]:
        raise DimensionMismatch(f"expected a (2n, n) basis, got {u.shape}")
    j = sympl_form(u.shape[1])
    return SymplecticFrame(np.hstack([u, -j @ u]).T)


def lag_frame_from_projector(p: LagProjector) -> SymplecticFrame:
    """Recover an orthogonal-symplectic frame from a Lagrangian projector."""
    if not isinstance(p, LagProjector):
        p = LagProjector.from_matrix(p)
    return symplectic_frame_from_basis(p.basis())
