"""Projector-coordinate references for the frame code under test.

The library computes every Newton step and diagnostic in frame
coordinates.  These functions give the same quantities from the ambient
formulae in P coordinates, so the tests can compare the two routes.  The
Riemannian gradient and Hessian of a cost follow Absil, Mahony &
Sepulchre 2008, ch. 5-6, assembled from the cost's ambient data with the
tangent projections:

    Grassmann:  grad = [P, [P, grad_F]]
                Hess(xi) = [P, [P, Hess_F(xi)]] - [P, [grad_F, xi]]
    Lagrange:   grad = pi(grad_F)
                Hess(xi) = pi(Hess_F(xi)) - pi([P, [grad_F, xi]])

with pi(X) = (1/2)[P, [P, J X J + X]] on the Lagrange Grassmannian.
The builders the tests need and no run reaches live here too: a frame from
a projector, a random Lagrangian point, commutators and a fresh J; and the
four-term operator as the library assembled it before it reused each
product for its transpose, which pins the library's bits.

Import as ``from oracles import ...``, as the tests import ``conftest``.
"""

import numpy as np

from projnewton.decomp import sym_eig, symmetrize
from projnewton.errors import DimensionMismatch
from projnewton.grassmann import (
    GrTangent,
    OrthoFrame,
    Projector,
    _distance,
    _oriented_frame,
    push_frame,
)
from projnewton.lagrange import LagProjector, SymplecticFrame, _sympl_form

# central finite-difference step of chart_second_derivative_check
FD_STEP_SECOND = 1e-3


def commutator(a, b):
    return a @ b - b @ a


def ad_squared(p, x):
    """[P, [P, X]]; for symmetric X this is the tangent-space projection."""
    return commutator(p, commutator(p, x))


def sympl_form(n):
    """The standard symplectic form J = [[0, I], [-I, 0]] on R^{2n}, a fresh array."""
    return _sympl_form(n).copy()


def frame_from_projector(p: Projector) -> OrthoFrame:
    """An orthogonal frame of a projector from its eigenvectors, det(Theta) = 1;
    the block-orthogonal gauge is not fixed beyond that."""
    return _oriented_frame(sym_eig(p.mat)[1].T, p.rank)


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


def tangent_project(p: Projector, x) -> GrTangent:
    """Orthogonal projection of a symmetric matrix onto the tangent space."""
    x = np.asarray(x, dtype=float)
    if x.shape != p.mat.shape:
        raise DimensionMismatch(f"expected shape {p.mat.shape}, got {x.shape}")
    return GrTangent(p, symmetrize(ad_squared(p.mat, x)))


def tangent_from_param(frame: OrthoFrame, z) -> GrTangent:
    """Ambient tangent vector Theta^T [[0, Z], [Z^T, 0]] Theta."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    n, m = frame.dim, frame.rank
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

    Evaluates exp(t [xi, P]) P exp(-t [xi, P]) as the exp push of
    -t K12, K12 the off-diagonal block of [xi, P] in a frame of the base
    point (recovered from the projector unless one is supplied).
    """
    xi = xi0.mat if isinstance(xi0, GrTangent) else np.asarray(xi0, dtype=float)
    if frame is None:
        frame = frame_from_projector(p0)
    m = frame.rank
    k_hat = frame.theta @ commutator(xi, p0.mat) @ frame.theta.T
    return push_frame(frame, -t * k_hat[:m, m:], "exp").projector()


def distance(p: Projector, q: Projector) -> float:
    """Geodesic distance between range(P) and range(Q): with U a basis of
    range(Q), the cosines of the principal angles are the singular values
    of P U and the sines those of (I - P) U, so only Q is eigendecomposed."""
    uq = sym_eig(q.mat)[1][:, : q.rank]
    puq = p.mat @ uq
    return float(_distance(puq, uq - puq))


def distance_via_cosines(p: Projector, q: Projector) -> float:
    """Distance from the eigenvalues lambda_i of the leading block of Q in a
    P-frame: sqrt(2 sum arccos^2 sqrt(lambda_i)), the 2m <= n reduction."""
    return _distance_via_block(p, q, slice(None, p.rank), np.arccos)


def distance_via_sines(p: Projector, q: Projector) -> float:
    """Distance from the eigenvalues mu_i of the trailing block of Q in a
    P-frame: sqrt(2 sum arcsin^2 sqrt(mu_i)), the 2m > n reduction."""
    return _distance_via_block(p, q, slice(p.rank, None), np.arcsin)


def _distance_via_block(p, q, rows, angle):
    theta = frame_from_projector(p).theta[rows]
    values = np.clip(sym_eig(theta @ q.mat @ theta.T)[0], 0.0, 1.0)
    return float(np.sqrt(2.0 * np.sum(angle(np.sqrt(values)) ** 2)))


def cayley_transform(omega):
    """(2I + Omega)(2I - Omega)^{-1} for skew Omega; orthogonal output."""
    omega = np.asarray(omega, dtype=float)
    n = omega.shape[0]
    eye = np.eye(n)
    return np.linalg.solve((2.0 * eye - omega).T, (2.0 * eye + omega).T).T


def chart_second_derivative_check(frame: OrthoFrame, z, chart, h=FD_STEP_SECOND):
    """Central finite-difference second derivative of the chart at 0.

    For every chart this approximates Theta^T diag(-2 Z Z^T, 2 Z^T Z) Theta
    up to O(h^2).
    """
    plus = push_frame(frame, h * np.asarray(z, dtype=float), chart).projector().mat
    minus = push_frame(frame, -h * np.asarray(z, dtype=float), chart).projector().mat
    base = frame.projector().mat
    return (plus - 2.0 * base + minus) / (h * h)


def lg_tangent_project(p: LagProjector, x) -> np.ndarray:
    """Projection of a symmetric matrix onto the Lagrangian tangent space:
    (1/2) [P, [P, J X J + X]]."""
    j = sympl_form(p.rank)
    return symmetrize(0.5 * ad_squared(p.mat, j @ x @ j + x))


def riemannian_gradient_gr(cost, p: Projector) -> GrTangent:
    """[P, [P, grad_F(P)]], the tangent projection of the ambient gradient."""
    return tangent_project(p, cost.ambient_gradient(p.mat))


def riemannian_hessian_apply_gr(cost, p: Projector, xi) -> GrTangent:
    """Riemannian Hessian action on a tangent vector at P."""
    pm = p.mat
    xim = xi.mat if isinstance(xi, GrTangent) else np.asarray(xi, dtype=float)
    term = ad_squared(pm, cost.ambient_hessian_apply(pm, xim))
    term = term - commutator(pm, commutator(cost.ambient_gradient(pm), xim))
    return GrTangent(p, symmetrize(term))


def riemannian_gradient_lg(cost, p: LagProjector) -> np.ndarray:
    """pi(grad_F(P)) with the J-corrected tangent projection."""
    return lg_tangent_project(p, cost.ambient_gradient(p.mat))


def riemannian_hessian_apply_lg(cost, p: LagProjector, xi) -> np.ndarray:
    """pi(Hess_F(P)(xi)) - pi([P, [grad_F(P), xi]])."""
    pm = p.mat
    xim = np.asarray(xi, dtype=float)
    hess = cost.ambient_hessian_apply(pm, xim)
    mixed = commutator(pm, commutator(cost.ambient_gradient(pm), xim))
    return lg_tangent_project(p, hess) - lg_tangent_project(p, mixed)


def four_term_operator_reference(a11, a12, a21, a22):
    """The invariant-subspace Newton operator L of ``solvers.invariant_newton_operator``
    assembled in four product passes, row-major and C-ordered: G kron I and
    I kron H written onto block diagonals, then A11 kron A22, A11^T kron A22^T and
    the two Z^T terms, each multiplied in one temporary and subtracted in
    place, in that order."""
    m = a11.shape[0]
    k = a22.shape[0]
    op = np.zeros((m * k, m * k))
    out, tmp = op.reshape(m, k, m, k), np.empty((m, k, m, k))
    out[:, np.arange(k), :, np.arange(k)] = a11 @ a11.T - a21.T @ a21
    out[np.arange(m), :, np.arange(m), :] += a22.T @ a22 - a21 @ a21.T
    for x, y in ((a11[:, None, :, None], a22[None, :, None, :]),
                 (a11.T[:, None, :, None], a22.T[None, :, None, :]),
                 (a21.T[:, None, None, :], a12.T[None, :, :, None]),
                 (a12[:, None, None, :], a21[None, :, :, None])):
        # x broadcast into tmp first: two broadcast operands make numpy buffer the product
        tmp[...] = x
        np.subtract(out, np.multiply(tmp, y, out=tmp), out=out)
    return op
