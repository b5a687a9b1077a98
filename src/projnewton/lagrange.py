"""The Lagrange Grassmannian: Lagrangian subspaces of R^{2n} as projectors.

A Lagrangian projector is a rank-n projector P on R^{2n} with P J P = 0 for
the standard symplectic form J; ``LagProjector`` is a ``Projector`` and
``SymplecticFrame`` an ``OrthoFrame`` that is also symplectic.  Tangent
parameters are symmetric n-by-n blocks.  The submanifold is totally
geodesic, so geodesics and distances are the Grassmann ones, and so are the
three charts: at a symmetric Z their factors have the commuting-with-J block
form [[X, -Y], [Y, X]], which keeps frames symplectic.  Only the tangent
projection carries a J-corrected formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import TOL
from .decomp import require_symmetric, symmetrize
from .errors import DimensionMismatch, NotAProjector
from .grassmann import (
    OrthoFrame,
    Projector,
    ad_squared,
    chart_point,
    param_from_tangent,
    tangent_from_param,
)

__all__ = [
    "sympl_form",
    "LagProjector",
    "SymplecticFrame",
    "lg_tangent_project",
    "random_lag_projector",
    "symplectic_frame_from_basis",
    "lag_frame_from_projector",
    "lg_tangent_from_param",
    "lg_param_from_tangent",
    "lg_chart_point",
    "lg_chart_exp",
    "lg_chart_qr",
    "lg_chart_cayley",
]


def sympl_form(n):
    """The standard symplectic form J = [[0, I], [-I, 0]] on R^{2n}."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


class LagProjector(Projector):
    """Rank-n projector on R^{2n} with P J P = 0."""

    @property
    def half_dim(self):
        return self.rank

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

    def reorthogonalized(self):
        """The frame unchanged: a plain QR step would destroy symplecticity,
        and the chart factors at symmetric Z are orthogonal-symplectic, which
        keeps both residuals at round-off over the run lengths this library
        targets."""
        return self


def lg_tangent_project(p: LagProjector, x) -> np.ndarray:
    """Projection of a symmetric matrix onto the Lagrangian tangent space:
    (1/2) [P, [P, J X J + X]]."""
    x = np.asarray(x, dtype=float)
    if x.shape != p.mat.shape:
        raise DimensionMismatch(f"expected shape {p.mat.shape}, got {x.shape}")
    j = sympl_form(p.half_dim)
    return symmetrize(0.5 * ad_squared(p.mat, j @ x @ j + x))


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


def lg_tangent_from_param(frame: SymplecticFrame, z) -> np.ndarray:
    """Ambient tangent vector Theta^T [[0, Z], [Z, 0]] Theta, Z symmetric."""
    z = require_symmetric(z, what="tangent parameter")
    return tangent_from_param(frame, z).mat


def lg_param_from_tangent(frame: SymplecticFrame, xi) -> np.ndarray:
    """Symmetric off-diagonal block of the tangent vector in frame coordinates."""
    return symmetrize(param_from_tangent(frame, xi))


def lg_chart_point(frame: SymplecticFrame, z, chart) -> LagProjector:
    """The Grassmann chart at a symmetric parameter Z."""
    z = require_symmetric(z, what="chart parameter")
    return LagProjector(chart_point(frame, z, chart).mat, frame.rank)


def lg_chart_exp(frame: SymplecticFrame, z) -> LagProjector:
    """Riemannian normal coordinates: basis [cos Z; sin Z] in the frame."""
    return lg_chart_point(frame, z, "exp")


def lg_chart_qr(frame: SymplecticFrame, z) -> LagProjector:
    """QR coordinates with the orthogonal-symplectic Q-factor
    [[R^-1, -Z R^-1], [Z R^-1, R^-1]], R^T R = I + Z^2."""
    return lg_chart_point(frame, z, "qr")


def lg_chart_cayley(frame: SymplecticFrame, z) -> LagProjector:
    """Cayley coordinates in closed form with (I + Z^2/4)^{-2}."""
    return lg_chart_point(frame, z, "cayley")
