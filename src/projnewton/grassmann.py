"""The Grassmannian of rank-m symmetric projection matrices.

A subspace is represented by its orthogonal projector P (symmetric,
idempotent, trace m).  Algorithms iterate an orthogonal frame Theta with

    P = Theta^T diag(I_m, 0) Theta,

so the working objects in "frame coordinates" carry hats: the base point is
diag(I_m, 0) and a tangent vector is [[0, Z], [Z^T, 0]] for an m-by-(n-m)
parameter block Z.  The three local parametrizations (geodesic/exponential,
QR, Cayley) all act by an orthogonal hat-space factor M: the new projector
is Theta^T M diag(I_m, 0) M^T Theta and the new frame is M^T Theta.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import TOL
from .decomp import cholesky_upper, exp_skew_pair, qr_positive, sym_eig, symmetrize
from .errors import BadRank, DimensionMismatch, NotAProjector

__all__ = [
    "Projector",
    "OrthoFrame",
    "GrTangent",
    "commutator",
    "ad_squared",
    "tangent_project",
    "random_projector",
    "frame_from_projector",
    "tangent_from_param",
    "param_from_tangent",
    "geodesic",
    "distance",
    "frame_distance",
    "distance_via_cosines",
    "distance_via_sines",
    "chart_factor",
    "chart_exp",
    "chart_qr",
    "chart_cayley",
    "chart_point",
    "push_frame",
    "cayley_transform",
    "CHART_NAMES",
]

CHART_NAMES = ("exp", "qr", "cayley")


@dataclass(frozen=True)
class Projector:
    """Rank-m orthogonal projector; the manifold point."""

    mat: np.ndarray
    rank: int

    def __post_init__(self):
        object.__setattr__(self, "mat", symmetrize(np.asarray(self.mat, dtype=float)))

    @property
    def dim(self):
        return self.mat.shape[0]

    @classmethod
    def from_matrix(cls, mat, rank=None):
        """Validate the projector invariants and wrap the matrix."""
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise NotAProjector(f"projector must be square, got {mat.shape}")
        if np.abs(mat - mat.T).max() > TOL.projector:
            raise NotAProjector("matrix is not symmetric")
        tr = float(np.trace(mat))
        m = int(round(tr)) if rank is None else int(rank)
        if abs(tr - m) > TOL.projector * mat.shape[0]:
            raise NotAProjector(f"trace {tr} is not close to an integer rank")
        idem = np.linalg.norm(mat @ mat - mat)
        if idem > TOL.projector * max(1.0, np.linalg.norm(mat)):
            raise NotAProjector(f"idempotence defect {idem:.3e}")
        if not 0 < m < mat.shape[0]:
            raise BadRank(f"rank {m} outside (0, {mat.shape[0]})")
        return cls(mat, m)

    def basis(self):
        """Orthonormal basis (n, m) of the range: leading eigenvectors."""
        return sym_eig(self.mat)[1][:, : self.rank]


@dataclass(frozen=True)
class OrthoFrame:
    """Orthogonal frame Theta (rows) with P = Theta^T diag(I_m, 0) Theta."""

    theta: np.ndarray
    rank: int

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        n = self.theta.shape[0]
        defect = np.abs(self.theta @ self.theta.T - np.eye(n)).max()
        if defect > TOL.frame_orthogonality:
            raise NotAProjector(f"frame orthogonality defect {defect:.3e}")
        if not 0 < self.rank < n:
            raise BadRank(f"rank {self.rank} outside (0, {n})")

    @property
    def dim(self):
        return self.theta.shape[0]

    def basis(self):
        """Orthonormal basis (n, m) of the projected subspace."""
        return self.theta[: self.rank].T.copy()

    def projector(self):
        th = self.theta
        m = self.rank
        return Projector(th[:m].T @ th[:m], m)

    def advance(self, factor):
        """Right-multiply Theta^T by an orthogonal hat-space factor."""
        return replace(self, theta=factor.T @ self.theta)

    def reorthogonalized(self):
        """Snap the frame back onto the orthogonal group via positive QR."""
        q, _ = qr_positive(self.theta.T)
        return replace(self, theta=q.T)


@dataclass(frozen=True)
class GrTangent:
    """A tangent vector at ``base``: symmetric and fixed by ad_P^2."""

    base: Projector
    mat: np.ndarray

    def __post_init__(self):
        mat = symmetrize(np.asarray(self.mat, dtype=float))
        object.__setattr__(self, "mat", mat)
        if mat.shape != self.base.mat.shape:
            raise DimensionMismatch("tangent vector and base point shapes differ")
        defect = np.linalg.norm(ad_squared(self.base.mat, mat) - mat)
        if defect > TOL.projector * max(1.0, np.linalg.norm(mat)):
            raise NotAProjector(f"not a tangent vector, ad_P^2 defect {defect:.3e}")

    @property
    def norm(self):
        return float(np.linalg.norm(self.mat))


def commutator(a, b):
    return a @ b - b @ a


def ad_squared(p, x):
    """[P, [P, X]]; for symmetric X this is the tangent-space projection."""
    return commutator(p, commutator(p, x))


def tangent_project(p: Projector, x) -> GrTangent:
    """Orthogonal projection of a symmetric matrix onto the tangent space."""
    x = np.asarray(x, dtype=float)
    if x.shape != p.mat.shape:
        raise DimensionMismatch(f"expected shape {p.mat.shape}, got {x.shape}")
    return GrTangent(p, symmetrize(ad_squared(p.mat, x)))


def random_projector(n, m, seed):
    """Seeded random point: the positive-QR frame of a Gaussian matrix."""
    if not 0 < m < n:
        raise BadRank(f"rank {m} outside (0, {n})")
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((n, n))
    q, _ = qr_positive(gauss)
    frame = _oriented_frame(q.T, m)
    return frame.projector(), frame


def _oriented_frame(theta, rank) -> OrthoFrame:
    """Frame with rows ``theta``, the last row negated if det(Theta) < 0;
    the leading ``rank`` rows, and so the projector, stay as they are."""
    if np.linalg.det(theta) < 0:
        theta = theta.copy()
        theta[-1] = -theta[-1]
    return OrthoFrame(theta, rank)


def frame_from_projector(p: Projector) -> OrthoFrame:
    """Recover an orthogonal frame from a projector via its eigenvectors.

    The block-orthogonal gauge freedom is not fixed beyond det(Theta) = 1;
    downstream quantities are gauge invariant.
    """
    if not isinstance(p, Projector):
        p = Projector.from_matrix(p)
    _, vectors = sym_eig(p.mat)
    frame = _oriented_frame(vectors.T, p.rank)
    defect = np.abs(frame.projector().mat - p.mat).max()
    if defect > TOL.frame_reconstruction:
        raise NotAProjector(f"frame reconstruction defect {defect:.3e}")
    return frame


def tangent_from_param(frame: OrthoFrame, z) -> GrTangent:
    """Ambient tangent vector Theta^T [[0, Z], [Z^T, 0]] Theta."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    n, m = frame.dim, frame.rank
    if z.shape != (m, n - m):
        raise DimensionMismatch(f"expected parameter shape {(m, n - m)}, got {z.shape}")
    xi_hat = np.zeros((n, n))
    xi_hat[:m, m:] = z
    xi_hat[m:, :m] = z.T
    return GrTangent(frame.projector(), frame.theta.T @ xi_hat @ frame.theta)


def param_from_tangent(frame: OrthoFrame, xi) -> np.ndarray:
    """Off-diagonal block of the tangent vector in frame coordinates."""
    mat = xi.mat if isinstance(xi, GrTangent) else np.asarray(xi, dtype=float)
    m = frame.rank
    return (frame.theta @ mat @ frame.theta.T)[:m, m:]


def geodesic(p0: Projector, xi0, t: float, frame: OrthoFrame | None = None) -> Projector:
    """Point at time t of the geodesic with initial position/velocity.

    Evaluates exp(t [xi, P]) P exp(-t [xi, P]) through the closed-form
    paired-skew exponential in a frame of the base point (recovered from
    the projector unless one is supplied).
    """
    xi = xi0.mat if isinstance(xi0, GrTangent) else np.asarray(xi0, dtype=float)
    if xi.shape != p0.mat.shape:
        raise DimensionMismatch("geodesic velocity shape mismatch")
    if frame is None:
        frame = frame_from_projector(p0)
    m = frame.rank
    k_hat = frame.theta @ commutator(xi, p0.mat) @ frame.theta.T
    rot = exp_skew_pair(t * k_hat[:m, m:])
    phat = np.zeros((frame.dim, frame.dim))
    phat[:m, :m] = np.eye(m)
    return Projector(frame.theta.T @ rot @ phat @ rot.T @ frame.theta, m)


def _distance(cos_mat, sin_mat):
    """sqrt(2 sum_i theta_i^2) over the principal angles theta_i, from
    matrices whose singular values are their cosines and their sines (sines
    missing when m > n/2 are zero); sines below pi/4 and cosines above keep
    tiny and near-right angles accurate."""
    cos = np.sort(np.clip(np.linalg.svd(cos_mat, compute_uv=False), 0.0, 1.0))[::-1]
    sin = np.clip(np.linalg.svd(sin_mat, compute_uv=False), 0.0, 1.0)
    sin = np.sort(np.concatenate([np.zeros(cos.size - sin.size), sin]))
    theta = np.where(cos > np.cos(np.pi / 4), np.arcsin(sin), np.arccos(cos))
    return float(np.sqrt(2.0 * np.sum(theta * theta)))


def distance(p: Projector, q: Projector) -> float:
    """Geodesic distance between range(P) and range(Q): with U a basis of
    range(Q), the cosines of the principal angles are the singular values
    of P U and the sines those of (I - P) U, so only Q is eigendecomposed."""
    if p.mat.shape != q.mat.shape or p.rank != q.rank:
        raise DimensionMismatch("projectors live on different Grassmannians")
    uq = q.basis()
    puq = p.mat @ uq
    return _distance(puq, uq - puq)


def frame_distance(frame: OrthoFrame, basis) -> float:
    """``distance`` from the frame's subspace to range(U), U orthonormal
    (n, m), from the frame rows: the cosines are the singular values of
    Theta[:m] U (m x m) and the sines those of Theta[m:] U."""
    m = frame.rank
    return _distance(frame.theta[:m] @ basis, frame.theta[m:] @ basis)


def distance_via_cosines(p: Projector, q: Projector) -> float:
    """Distance from the eigenvalues of the leading block of Q in a P-frame:
    sqrt(2 sum arccos^2 sqrt(lambda_i)), the 2m <= n reduction."""
    fp = frame_from_projector(p)
    m = p.rank
    block = fp.theta[:m] @ q.mat @ fp.theta[:m].T
    lam = np.clip(sym_eig(block)[0], 0.0, 1.0)
    return float(np.sqrt(2.0 * np.sum(np.arccos(np.sqrt(lam)) ** 2)))


def distance_via_sines(p: Projector, q: Projector) -> float:
    """Distance from the trailing block of Q in a P-frame:
    sqrt(2 sum arcsin^2 sqrt(mu_i)), the 2m > n reduction."""
    fp = frame_from_projector(p)
    m = p.rank
    block = fp.theta[m:] @ q.mat @ fp.theta[m:].T
    mu = np.clip(sym_eig(block)[0], 0.0, 1.0)
    return float(np.sqrt(2.0 * np.sum(np.arcsin(np.sqrt(mu)) ** 2)))


def cayley_transform(omega):
    """(2I + Omega)(2I - Omega)^{-1} for skew Omega; orthogonal output."""
    omega = np.asarray(omega, dtype=float)
    n = omega.shape[0]
    eye = np.eye(n)
    return np.linalg.solve((2.0 * eye - omega).T, (2.0 * eye + omega).T).T


def chart_factor(z, chart):
    """Orthogonal hat-space factor M of a chart at tangent parameter Z.

    The chart value at Z is Theta^T M diag(I_m, 0) M^T Theta and the pushed
    frame is M^T Theta.  The hat-space commutator of the tangent vector
    [[0, Z], [Z^T, 0]] with the base point is [[0, -Z], [Z^T, 0]], which
    fixes the sign conventions below.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    m, k = z.shape
    if chart == "exp":
        return exp_skew_pair(-z)
    if chart == "qr":
        r11 = cholesky_upper(np.eye(m) + z @ z.T)
        r22 = cholesky_upper(np.eye(k) + z.T @ z)
        r11_inv = np.linalg.solve(r11, np.eye(m))
        r22_inv = np.linalg.solve(r22, np.eye(k))
        out = np.empty((m + k, m + k))
        out[:m, :m] = r11_inv
        out[:m, m:] = -z @ r22_inv
        out[m:, :m] = z.T @ r11_inv
        out[m:, m:] = r22_inv
        return out
    if chart == "cayley":
        zzt = z @ z.T
        ztz = z.T @ z
        left = np.empty((m + k, m + k))
        left[:m, :m] = np.eye(m) - 0.25 * zzt
        left[:m, m:] = -z
        left[m:, :m] = z.T
        left[m:, m:] = np.eye(k) - 0.25 * ztz
        inv1 = np.linalg.solve(np.eye(m) + 0.25 * zzt, np.eye(m))
        inv2 = np.linalg.solve(np.eye(k) + 0.25 * ztz, np.eye(k))
        out = left.copy()
        out[:, :m] = left[:, :m] @ inv1
        out[:, m:] = left[:, m:] @ inv2
        return out
    raise ValueError(f"unknown chart {chart!r}, expected one of {CHART_NAMES}")


def chart_point(frame: OrthoFrame, z, chart) -> Projector:
    """Evaluate a local parametrization at tangent parameter Z."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    n, m = frame.dim, frame.rank
    if z.shape != (m, n - m):
        raise DimensionMismatch(f"expected parameter shape {(m, n - m)}, got {z.shape}")
    factor = chart_factor(z, chart)
    cols = frame.theta.T @ factor[:, :m]
    return Projector(cols @ cols.T, m)


def chart_exp(frame: OrthoFrame, z) -> Projector:
    """Riemannian normal coordinates (geodesic chart)."""
    return chart_point(frame, z, "exp")


def chart_qr(frame: OrthoFrame, z) -> Projector:
    """QR coordinates: positive-QR factor of I + [xi, P] in the frame."""
    return chart_point(frame, z, "qr")


def chart_cayley(frame: OrthoFrame, z) -> Projector:
    """Cayley coordinates: Cay([xi, P]) P Cay(-[xi, P]) in closed form."""
    return chart_point(frame, z, "cayley")


def push_frame(frame: OrthoFrame, z, chart) -> OrthoFrame:
    """Advance a frame along a chart step: Theta'^T = Theta^T M."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    n, m = frame.dim, frame.rank
    if z.shape != (m, n - m):
        raise DimensionMismatch(f"expected parameter shape {(m, n - m)}, got {z.shape}")
    return frame.advance(chart_factor(z, chart))


def chart_second_derivative_check(frame: OrthoFrame, z, chart, h=None):
    """Central finite-difference second derivative of the chart at 0.

    For every chart this approximates Theta^T diag(-2 Z Z^T, 2 Z^T Z) Theta
    up to O(h^2).
    """
    h = TOL.fd_step_second if h is None else h
    plus = chart_point(frame, h * np.asarray(z, dtype=float), chart).mat
    minus = chart_point(frame, -h * np.asarray(z, dtype=float), chart).mat
    base = frame.projector().mat
    return (plus - 2.0 * base + minus) / (h * h)
