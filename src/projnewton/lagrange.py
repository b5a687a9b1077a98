"""The Lagrange Grassmannian: Lagrangian subspaces of R^{2n} as projectors.

A Lagrangian projector is a rank-n projector P on R^{2n} with P J P = 0 for
the standard symplectic form J.  Frames are orthogonal *and* symplectic;
tangent parameters are symmetric n-by-n blocks.  Geodesics and distances are
inherited from the ambient Grassmannian (the submanifold is totally
geodesic), so only the tangent projection and the three charts carry the
J-corrected formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import TOL
from .decomp import cholesky_upper, require_symmetric, sym_eig, symmetrize
from .errors import DimensionMismatch, NotAProjector
from .grassmann import Projector, ad_squared

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
    "lg_chart_factor",
    "lg_chart_point",
    "lg_chart_exp",
    "lg_chart_qr",
    "lg_chart_cayley",
    "lg_push_frame",
]


def sympl_form(n):
    """The standard symplectic form J = [[0, I], [-I, 0]] on R^{2n}."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


@dataclass(frozen=True)
class LagProjector:
    """Rank-n projector on R^{2n} with P J P = 0."""

    mat: np.ndarray
    half_dim: int

    def __post_init__(self):
        object.__setattr__(self, "mat", symmetrize(np.asarray(self.mat, dtype=float)))

    @property
    def dim(self):
        return 2 * self.half_dim

    def as_projector(self) -> Projector:
        """View as an ambient Grassmannian point (rank n in dimension 2n)."""
        return Projector(self.mat, self.half_dim)

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
class SymplecticFrame:
    """Orthogonal symplectic frame with P = Theta^T diag(I_n, 0) Theta."""

    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "theta", theta)
        n2 = theta.shape[0]
        if n2 % 2:
            raise DimensionMismatch("symplectic frame must have even dimension")
        j = sympl_form(n2 // 2)
        orth = np.abs(theta @ theta.T - np.eye(n2)).max()
        symp = np.abs(theta.T @ j @ theta - j).max()
        if orth > TOL.frame_orthogonality or symp > TOL.lagrangian:
            raise NotAProjector(
                f"frame defects: orthogonality {orth:.3e}, symplecticity {symp:.3e}"
            )

    @property
    def half_dim(self):
        return self.theta.shape[0] // 2

    def basis(self):
        return self.theta[: self.half_dim].T.copy()

    def projector(self) -> LagProjector:
        n = self.half_dim
        return LagProjector(self.theta[:n].T @ self.theta[:n], n)

    def symplecticity_residual(self):
        j = sympl_form(self.half_dim)
        return float(np.abs(self.theta.T @ j @ self.theta - j).max())

    def advance(self, factor):
        """Right-multiply Theta^T by an orthogonal-symplectic factor.

        No QR re-orthogonalization here: a plain QR step would destroy
        symplecticity, and the structured factors keep both residuals at
        round-off over the run lengths this library targets.
        """
        return replace(self, theta=factor.T @ self.theta)


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
    _, vectors = sym_eig(p.mat)
    return symplectic_frame_from_basis(vectors[:, : p.half_dim])


def lg_tangent_from_param(frame: SymplecticFrame, z) -> np.ndarray:
    """Ambient tangent vector Theta^T [[0, Z], [Z, 0]] Theta, Z symmetric."""
    z = require_symmetric(z, what="tangent parameter")
    n = frame.half_dim
    if z.shape != (n, n):
        raise DimensionMismatch(f"expected parameter shape {(n, n)}, got {z.shape}")
    xi_hat = np.zeros((2 * n, 2 * n))
    xi_hat[:n, n:] = z
    xi_hat[n:, :n] = z
    return frame.theta.T @ xi_hat @ frame.theta


def lg_param_from_tangent(frame: SymplecticFrame, xi) -> np.ndarray:
    n = frame.half_dim
    hat = frame.theta @ np.asarray(xi, dtype=float) @ frame.theta.T
    return symmetrize(hat[:n, n:])


def _sym_trig(z):
    """cos(Z) and sin(Z) for symmetric Z through its eigendecomposition."""
    values, vectors = sym_eig(z)
    cos = vectors @ np.diag(np.cos(values)) @ vectors.T
    sin = vectors @ np.diag(np.sin(values)) @ vectors.T
    return symmetrize(cos), symmetrize(sin)


def lg_chart_factor(z, chart):
    """Orthogonal-symplectic hat-space factor of an LG chart at parameter Z.

    Mirrors the Grassmann construction with the symmetric parameter; every
    factor has the commuting-with-J block form [[X, -Y], [Y, X]].
    """
    z = require_symmetric(z, what="chart parameter")
    n = z.shape[0]
    if chart == "exp":
        cos, sin = _sym_trig(z)
        return np.block([[cos, -sin], [sin, cos]])
    if chart == "qr":
        r = cholesky_upper(np.eye(n) + z @ z)
        r_inv = np.linalg.solve(r, np.eye(n))
        zr = z @ r_inv
        return np.block([[r_inv, -zr], [zr, r_inv]])
    if chart == "cayley":
        inv = np.linalg.solve(np.eye(n) + 0.25 * z @ z, np.eye(n))
        block = (np.eye(n) - 0.25 * z @ z) @ inv
        zi = z @ inv
        return np.block([[block, -zi], [zi, block]])
    raise ValueError(f"unknown chart {chart!r}")


def lg_chart_point(frame: SymplecticFrame, z, chart) -> LagProjector:
    factor = lg_chart_factor(z, chart)
    n = frame.half_dim
    cols = frame.theta.T @ factor[:, :n]
    return LagProjector(cols @ cols.T, n)


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


def lg_push_frame(frame: SymplecticFrame, z, chart) -> SymplecticFrame:
    return frame.advance(lg_chart_factor(z, chart))
