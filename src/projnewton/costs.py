"""Cost functions on both manifolds, in frame coordinates.

A cost is described by its ambient data on symmetric matrices: a value, a
gradient, and the Hessian as an action (operator form).  Each cost gives
its value and gradient block (``frame_terms``) and solves its own Newton
equation (``newton_solve``) in frame coordinates, from the blocks of
B = Theta A Theta^T: a Sylvester equation for tr(A P) (Algorithm 1), a
Lyapunov equation for tr(H P) on the Lagrange Grassmannian (Algorithm 2),
the four-term equation for the invariant-subspace cost (Algorithm 3).  Any
other cost falls back to its ambient data: value(P), and the dense
Riemannian Newton equation, whose gradient and Hessian blocks it reads in
the frame (Absil, Mahony & Sepulchre 2008, ch. 5-6).  The same gradient
and Hessian in projector coordinates are test references
(``tests/oracles.py``).

Data is checked where it enters: each cost checks its matrix when it is
built.  ``frame_terms`` hands B on, so a Newton iterate forms it once, and
the Newton solves symmetrize the blocks they cut from B and call the
solvers' unchecked cores (``solve_sylvester_unchecked``,
``solve_lyapunov_unchecked``) instead of checking them again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TOL
from .decomp import frobenius_norm, require_symmetric, symmetrize
from .errors import DimensionMismatch, NotSymmetric, ScaleOverflow
from .lagrange import SymplecticFrame, sympl_form
from .solvers import (
    invariant_newton_rhs,
    solve_dense,
    solve_invariant_newton_direct,
    solve_invariant_newton_recursive,
    solve_lyapunov_unchecked,
    solve_sylvester_unchecked,
)

__all__ = [
    "CostFunction",
    "RayleighCost",
    "InvariantSubspaceCost",
    "HamiltonianRayleighCost",
]


class CostFunction:
    """Base interface: ambient value, gradient and Hessian action, and the
    Newton solve in frame coordinates.  ``scale`` is the data scale of the
    Newton gradient test; this fallback's 1.0 makes that test absolute."""

    scale = 1.0

    def value(self, p):
        raise NotImplementedError

    def ambient_gradient(self, p):
        raise NotImplementedError

    def ambient_hessian_apply(self, p, xi):
        raise NotImplementedError

    def frame_terms(self, frame):
        """Value, gradient block G and the data ``newton_solve`` reuses at
        ``frame``: the Riemannian gradient is Theta^T [[0, G], [G^T, 0]] Theta,
        of norm sqrt(2) ||G||.  This fallback gives value(P),
        G = (Theta grad_F Theta^T)_12 and, as data, Theta grad_F Theta^T."""
        p = frame.projector().mat
        g = frame.theta @ self.ambient_gradient(p) @ frame.theta.T
        return self.value(p), g[: frame.rank, frame.rank :], g

    def newton_solve(self, frame, solver="direct", b=None):
        """Newton tangent parameter Z at ``frame``: Hess(Z) = -grad in frame
        coordinates (Absil, Mahony & Sepulchre 2008, ch. 6).

        With G = Theta grad_F Theta^T (``b`` when given), the gradient is G12
        and the Hessian maps Z to (Theta Hess_F(xi) Theta^T)_12 - (G11 Z -
        Z G22), where xi = Theta^T [[0, Z], [Z^T, 0]] Theta.  Its d x d
        matrix, d = m(n-m), is assembled column by column and solved densely;
        ``solver`` is unused.  Grassmann frames only.
        """
        if isinstance(frame, SymplecticFrame):
            raise ValueError("the dense Newton fallback operates on Grassmann frames")
        theta = frame.theta
        n, m = frame.dim, frame.rank
        k = n - m
        p = frame.projector().mat
        g = theta @ self.ambient_gradient(p) @ theta.T if b is None else b
        g11, g22 = g[:m, :m], g[m:, m:]
        hess = np.empty((m * k, m * k))
        xi_hat = np.zeros((n, n))
        for col in range(m * k):
            z = np.zeros((m, k))
            z.flat[col] = 1.0
            xi_hat[:m, m:] = z
            xi_hat[m:, :m] = z.T
            h_hat = theta @ self.ambient_hessian_apply(p, theta.T @ xi_hat @ theta) @ theta.T
            hess[:, col] = (h_hat[:m, m:] - (g11 @ z - z @ g22)).reshape(-1)
        return solve_dense(hess, -g[:m, m:].reshape(-1)).reshape(m, k)


@dataclass(frozen=True)
class RayleighCost(CostFunction):
    """Trace cost tr(A P) for symmetric A; maximized by the dominant
    m-dimensional eigenspace projector."""

    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", require_symmetric(self.a, what="Rayleigh matrix"))
        # B12 is linear in A
        object.__setattr__(self, "scale", _finite_scale(frobenius_norm(self.a)))

    def value(self, p):
        return float(np.trace(self.a @ p))

    def ambient_gradient(self, p):
        return self.a

    def ambient_hessian_apply(self, p, xi):
        return np.zeros_like(self.a)

    def frame_terms(self, frame):
        """tr B11, B12 and B; sym(B12) on a symplectic frame, which is the
        J-corrected tangent projection in frame coordinates."""
        m = frame.rank
        b = frame.theta @ self.a @ frame.theta.T
        b12 = symmetrize(b[:m, m:]) if isinstance(frame, SymplecticFrame) else b[:m, m:]
        return float(np.trace(b[:m, :m])), b12, b

    def newton_solve(self, frame, solver="direct", b=None):
        """Algorithm 1: the Sylvester equation B11 Z - Z B22 = B12; B is ``b`` if given."""
        m = frame.rank
        b = frame.theta @ self.a @ frame.theta.T if b is None else b
        return solve_sylvester_unchecked(symmetrize(b[:m, :m]), symmetrize(b[m:, m:]), b[:m, m:])


@dataclass(frozen=True)
class InvariantSubspaceCost(CostFunction):
    """Residual cost ||(I - P) A P||^2 = tr((I - P) A P A^T) for arbitrary
    square A; zero exactly on projectors onto A-invariant subspaces."""

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.all(np.isfinite(a)):
            raise DimensionMismatch("cost matrix must be square with finite entries")
        object.__setattr__(self, "a", a)
        with np.errstate(over="ignore"):  # the gradient is quadratic in A
            object.__setattr__(self, "scale", _finite_scale(np.sum(a * a)))

    def value(self, p):
        n = self.a.shape[0]
        return float(np.trace((np.eye(n) - p) @ self.a @ p @ self.a.T))

    def ambient_gradient(self, p):
        a = self.a
        n = a.shape[0]
        return symmetrize(a.T @ (np.eye(n) - p) @ a - a @ p @ a.T)

    def ambient_hessian_apply(self, p, xi):
        a = self.a
        return symmetrize(-a.T @ xi @ a - a @ xi @ a.T)

    def frame_terms(self, frame):
        """||B21||^2, B21^T B22 - B11 B21^T (the Newton right-hand side) and
        B; ||B21|| is the invariance residual ||(I - P) A P||."""
        m = frame.rank
        b = frame.theta @ self.a @ frame.theta.T
        b21 = b[m:, :m]
        return float(np.sum(b21 * b21)), invariant_newton_rhs(b[:m, :m], b21, b[m:, m:]), b

    def newton_solve(self, frame, solver="direct", b=None):
        """Algorithm 3: minus the solution of the four-term equation, solved
        densely (``solver="direct"``) or by alternating Sylvester sweeps
        (``"recursive"``); B is ``b`` if given."""
        m = frame.rank
        b = frame.theta @ self.a @ frame.theta.T if b is None else b
        blocks = b[:m, :m], b[:m, m:], b[m:, :m], b[m:, m:]
        if solver == "direct":
            return -solve_invariant_newton_direct(*blocks)
        if solver == "recursive":
            return -solve_invariant_newton_recursive(*blocks)
        raise ValueError(f"unknown solver {solver!r}, expected 'direct' or 'recursive'")


@dataclass(frozen=True)
class HamiltonianRayleighCost(RayleighCost):
    """Trace cost tr(H P) on the Lagrange Grassmannian, with H symmetric
    Hamiltonian: H = [[S, T], [T, -S]] for symmetric S, T (J H J = H).  On
    a frame that is not symplectic it is the Grassmann trace cost."""

    def __post_init__(self):
        h = require_symmetric(self.a, what="Hamiltonian cost matrix")
        n2 = h.shape[0]
        if n2 % 2:
            raise DimensionMismatch("symmetric Hamiltonian must have even dimension")
        j = sympl_form(n2 // 2)
        defect = np.abs(j @ h @ j - h).max()
        if defect > TOL.lagrangian * max(1.0, np.abs(h).max()):
            raise NotSymmetric(f"JHJ - H residual {defect:.3e}; not symmetric Hamiltonian")
        object.__setattr__(self, "a", h)
        object.__setattr__(self, "scale", _finite_scale(frobenius_norm(h)))

    @property
    def h(self):
        """The matrix H, held as the trace cost's ``a``."""
        return self.a

    @classmethod
    def from_blocks(cls, s, t):
        s = require_symmetric(s, what="S block")
        t = require_symmetric(t, what="T block")
        return cls(np.block([[s, t], [t, -s]]))

    def newton_solve(self, frame, solver="direct", b=None):
        """Algorithm 2: the Lyapunov equation B11 Z + Z B11 = B12 with
        symmetric Z; on a frame that is not symplectic, Algorithm 1."""
        if not isinstance(frame, SymplecticFrame):
            return super().newton_solve(frame, solver, b)
        n = frame.rank
        b = frame.theta @ self.a @ frame.theta.T if b is None else b
        return solve_lyapunov_unchecked(symmetrize(b[:n, :n]), symmetrize(b[:n, n:]))


def _finite_scale(scale):
    """A cost's data scale as a float; ``ScaleOverflow`` if it is infinite."""
    if not np.isfinite(scale):
        raise ScaleOverflow(f"cost data scale is {scale}: the matrix entries are too large")
    return float(scale)
