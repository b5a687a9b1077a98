"""The Grassmannian of rank-m symmetric projection matrices.

A subspace is represented by its orthogonal projector P (symmetric,
idempotent, trace m).  Algorithms iterate an orthogonal frame Theta with

    P = Theta^T diag(I_m, 0) Theta,

so the working objects in "frame coordinates" carry hats: the base point is
diag(I_m, 0) and a tangent vector is [[0, Z], [Z^T, 0]] for an m-by-(n-m)
parameter block Z.  The three local parametrizations (geodesic/exponential,
QR, Cayley) all move the frame by a rotation in the principal planes of Z:
with the thin SVD Z = U diag(sigma) W^T, the plane of (u_i, w_i) turns by
an angle phi(sigma_i), which is sigma for exp, arctan(sigma) for qr (the
graph chart Z -> span Theta^T [I; Z^T]) and 2 arctan(sigma / 2) for Cayley.
``push_frame`` applies that rotation to the rows of Theta in O(n m (n - m))
and keeps the frame orthogonal to round-off for any finite step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TOL
from .decomp import qr_positive, sym_eig, symmetrize
from .errors import BadRank, DimensionMismatch, NotAProjector, NotSymmetric, SingularInput

__all__ = [
    "Projector",
    "OrthoFrame",
    "GrTangent",
    "commutator",
    "ad_squared",
    "random_projector",
    "frame_from_projector",
    "frame_distance",
    "frame_distances",
    "push_frame",
    "CHART_NAMES",
]

# the angle phi(sigma) through which each chart turns a principal plane of
# the step Z with singular value sigma; every one is sigma + O(sigma^3)
_CHART_ANGLES = {
    "exp": lambda sigma: sigma,
    "qr": np.arctan,
    "cayley": lambda sigma: 2.0 * np.arctan(0.5 * sigma),
}
CHART_NAMES = tuple(_CHART_ANGLES)


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
        if not np.isfinite(mat).all():
            raise NotAProjector("projector has a non-finite entry")
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
    symmetric_steps = False  # push_frame takes only symmetric Z (SymplecticFrame)

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        if self.theta.ndim != 2 or self.theta.shape[0] != self.theta.shape[1]:
            raise DimensionMismatch(f"frame must be square, got shape {self.theta.shape}")
        n = self.theta.shape[0]
        if not np.isfinite(self.theta).all():
            raise NotAProjector("frame has a non-finite entry")
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

    def _with_theta(self, theta):
        """This frame with new rows, unchecked: frames are checked where they enter."""
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__, theta=theta)
        return out


# GrTangent and its check (commutator, ad_squared) serve only the tests'
# P-coordinate references; they stay here because the benchmark's tracer
# (newtonbench/tracer.py) wraps GrTangent.__post_init__ when it installs
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


def _distance(cos_mat, sin_mat):
    """sqrt(2 sum_i theta_i^2) over the principal angles theta_i, from
    matrices whose singular values are their cosines and their sines, as
    many of each; sines below pi/4 and cosines above keep tiny and
    near-right angles accurate (Knyazev & Argentati 2002).  Leading axes
    are batch axes.  The cosines are decomposed only when a sine passes
    0.7: below, every cosine is at least 0.714 > cos(pi/4), by far more
    than a frame's round-off, so every angle is an arcsine either way."""
    sin = np.clip(np.linalg.svd(sin_mat, compute_uv=False), 0.0, 1.0)[..., ::-1]  # ascending
    theta = np.arcsin(sin)
    if sin[..., -1].max() > 0.7:
        cos = np.clip(np.linalg.svd(cos_mat, compute_uv=False), 0.0, 1.0)  # descending
        theta = np.where(cos > np.cos(np.pi / 4), theta, np.arccos(cos))
    return np.sqrt(2.0 * np.sum(theta * theta, axis=-1))


def frame_distance(frame: OrthoFrame, p) -> float:
    """Geodesic distance from the frame's subspace to range(P), P the (n, n)
    matrix of a projector of the frame's rank, from the leading rows
    Theta_1 (m x n): the cosines of the principal angles are the singular
    values of Theta_1 P and the sines those of Theta_1 - Theta_1 P."""
    return float(frame_distances([frame], p)[0])


def frame_distances(frames, p):
    """``frame_distance`` of each frame (one rank), one batched pass over
    the stacked products Theta_1 P."""
    lead = np.stack([frame.theta[: frame.rank] for frame in frames])
    cos_mat = lead @ p
    return _distance(cos_mat, lead - cos_mat)


def push_frame(frame: OrthoFrame, z, chart) -> OrthoFrame:
    """Advance a frame along the chart step Z, in O(n m (n - m)).

    In hat space the step is the rotation [[I + U (c - 1) U^T, U s W^T],
    [-W s U^T, I + W (c - 1) W^T]] (for exp, exp([[0, Z], [-Z^T, 0]])),
    with Z = U diag(sigma) W^T the thin SVD, c = cos phi, s = sin phi and
    phi = phi(sigma) the chart's angle.  It is applied to the two row
    blocks of Theta; c - 1 = -2 sin^2(phi / 2) keeps short steps exact.
    No factor is formed and nothing is re-orthogonalized: U and W are
    orthonormal, so the rows stay orthonormal to round-off at any finite
    step length.  The pushed frame is not re-checked.

    A step that is not finite, or whose Gram matrix Z Z^T overflows
    (sigma_max^2 = inf), raises ``SingularInput``; a step on a ``SymplecticFrame``
    that fails the test of ``require_symmetric`` raises ``NotSymmetric``.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    n, m = frame.dim, frame.rank
    if z.shape != (m, n - m):
        raise DimensionMismatch(f"expected parameter shape {(m, n - m)}, got {z.shape}")
    if chart not in _CHART_ANGLES:
        raise ValueError(f"unknown chart {chart!r}, expected one of {CHART_NAMES}")
    if not np.isfinite(z).all():
        raise SingularInput("step has a non-finite entry")
    if frame.symmetric_steps:
        defect = np.abs(z - z.T).max()
        if defect > TOL.symmetry * max(1.0, np.abs(z).max()):
            raise NotSymmetric(f"step on a symplectic frame has symmetry defect {defect:.3e}")
    u, sigma, wt = np.linalg.svd(z, full_matrices=False)
    top = float(sigma[0])
    if not math.isfinite(top * top):  # a Python float overflows without a warning
        raise SingularInput(f"step Z Z^T overflows: sigma_max = {top:.3e}")
    phi = _CHART_ANGLES[chart](sigma)[:, None]
    cos_m1 = -2.0 * np.sin(0.5 * phi) ** 2
    sin = np.sin(phi)
    lead_u = u.T @ frame.theta[:m]
    rest_w = wt @ frame.theta[m:]
    theta = np.empty_like(frame.theta)
    np.matmul(u, cos_m1 * lead_u + sin * rest_w, out=theta[:m])
    np.matmul(wt.T, cos_m1 * rest_w - sin * lead_u, out=theta[m:])
    theta += frame.theta
    return frame._with_theta(theta)
