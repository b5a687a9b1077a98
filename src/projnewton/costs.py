"""Cost functions on both manifolds, in frame coordinates.

A cost is described by its ambient data on symmetric matrices: a value, a
gradient, and the Hessian as an action (operator form).  Each cost gives
its value and gradient block (``frame_terms``) and solves its own Newton
equation (``newton_solve``) in frame coordinates, from the blocks of
B = Theta A Theta^T: a Sylvester equation for tr(A P) (Algorithm 1), on the
Lagrange Grassmannian the same equation on the Hamiltonian part of B, whose
B22 is -B11 (Algorithm 2: the Lyapunov equation); the four-term equation for
the invariant-subspace cost (Algorithm 3).  Any
other cost falls back to its ambient data: value(P), and the dense
Riemannian Newton equation, whose gradient and Hessian blocks it reads in
the frame (Absil, Mahony & Sepulchre 2008, ch. 5-6).  The same gradient
and Hessian in projector coordinates are test references
(``tests/oracles.py``).

A cost's calls pass a state, a tuple the engine hands on unread:
``frame_terms`` returns it, ``newton_solve`` hands on its first entry, the
frame's data (so an iterate forms B = Theta A Theta^T once), with the solve's
by-products, and ``certify`` reads it and the last step's.

Data is checked where it enters: a built-in cost keeps A as ``a``, and checks
and works on A_n = A 2^-e, e the exponent of max|A| (``decomp.binary_scaled``):
B, steps and statuses are the same bits for 2^j A, and 2^``units`` takes values
and gradient norms to A's units.  The Newton solves hand the solvers, which
check nothing, the blocks of the exactly symmetric B the trace cost formed
(``solve_sylvester``), or B and the right-hand side
``frame_terms`` formed (``solve_invariant_newton``).  Each cost certifies its
own critical point (``certify``): the trace costs by their ``separation_bound``
(Weyl; Stewart & Sun 1990) above the ``separation_floor`` of the blocks the
Newton solve sees, the invariant-subspace cost by one Cholesky factorization
of the last step's four-term operator or its own, any other by one more solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TOL
from .decomp import binary_scaled, frobenius_norm, require_symmetric, symmetrize
from .errors import DimensionMismatch, ScaleOverflow
from .lagrange import SymplecticFrame, hamiltonian_part, require_hamiltonian
from .solvers import (
    certify_invariant_newton,
    invariant_newton_rhs,
    separation_floor,
    solve_dense,
    solve_invariant_newton,
    solve_sylvester,
)

__all__ = [
    "CostFunction",
    "RayleighCost",
    "InvariantSubspaceCost",
    "HamiltonianRayleighCost",
]


class CostFunction:
    """Base interface: ambient value, gradient and Hessian action, and the
    Newton solve in frame coordinates.  ``scale`` is the data scale of the Newton
    gradient test, in ``units`` (module docstring); this fallback's 1.0 and 0 make it absolute."""

    scale = 1.0
    units = 0

    def value(self, p):
        raise NotImplementedError

    def ambient_gradient(self, p):
        raise NotImplementedError

    def ambient_hessian_apply(self, p, xi):
        raise NotImplementedError

    def frame_terms(self, frame):
        """Value, gradient block G and the state (module docstring) at
        ``frame``: the Riemannian gradient is Theta^T [[0, G], [G^T, 0]] Theta,
        of norm sqrt(2) ||G||.  This fallback gives value(P),
        G = (Theta grad_F Theta^T)_12 and the state (Theta grad_F Theta^T,)."""
        p = frame.projector().mat
        g = frame.theta @ self.ambient_gradient(p) @ frame.theta.T
        return self.value(p), g[: frame.rank, frame.rank :], (g,)

    def newton_solve(self, frame, state):
        """Newton tangent parameter Z at ``frame``: Hess(Z) = -grad in frame
        coordinates (Absil, Mahony & Sepulchre 2008, ch. 6), and the state
        handed on, here ``state``.  With (G,) = ``state``, the gradient is G12
        and the Hessian maps Z to (Theta Hess_F(xi) Theta^T)_12 - (G11 Z -
        Z G22), where xi = Theta^T [[0, Z], [Z^T, 0]] Theta.  Its d x d
        matrix, d = m(n-m), is assembled column by column and solved densely.
        Grassmann frames only; ``DimensionMismatch`` if G, or the Hessian,
        has an entry that is not finite.
        """
        if isinstance(frame, SymplecticFrame):
            raise ValueError("the dense Newton fallback operates on Grassmann frames")
        (g,) = state
        if not np.isfinite(g).all():
            raise DimensionMismatch("the frame gradient must have finite entries")
        theta = frame.theta
        n, m = frame.dim, frame.rank
        k = n - m
        p = frame.projector().mat
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
        return solve_dense(hess, -g[:m, m:].reshape(-1)).reshape(m, k), state

    def certify(self, frame, state, last=None):
        """Certify a critical point at ``frame`` (state ``state``) nondegenerate,
        or raise where it is singular; returns how: "solve", one more Newton
        solve.  ``last`` is the state the last step's solve handed on, or None."""
        self.newton_solve(frame, state)
        return "solve"


@dataclass(frozen=True)
class RayleighCost(CostFunction):
    """Trace cost tr(A P) for symmetric A; maximized by the dominant
    m-dimensional eigenspace projector."""

    a: np.ndarray

    def __post_init__(self):
        _store_units(self, 1, lambda a_n: require_symmetric(a_n, what="Rayleigh matrix"))

    def value(self, p):
        return float(np.trace(self.a @ p))

    def ambient_gradient(self, p):
        return self.a

    def ambient_hessian_apply(self, p, xi):
        return np.zeros_like(self.a)

    def frame_terms(self, frame):
        """tr B11, B12 and the state (B,), B = sym(Theta A_n Theta^T) exactly symmetric.
        On a symplectic frame, once tr B11 = tr(A_n P) is read, B is its Hamiltonian
        part [[M, G], [G, -M]] (``lagrange.hamiltonian_part``): M = (B11 - B22) / 2,
        and G = sym(B12) is the J-corrected tangent projection."""
        m = frame.rank
        b = symmetrize(frame.theta @ self.a_n @ frame.theta.T)
        value = float(np.trace(b[:m, :m]))
        if isinstance(frame, SymplecticFrame):
            b = hamiltonian_part(b)
        return value, b[:m, m:], (b,)

    def newton_solve(self, frame, state):
        """Algorithms 1-2: B11 Z - Z B22 = B12, (B,) = ``state``; on a symplectic
        frame B's Hamiltonian part makes it the Lyapunov equation M Z + Z M = G,
        for any A, whose Z the solver returns exactly symmetric.  Hands on
        (B, separation), the separation the solver measured."""
        m = frame.rank
        (b,) = state
        z, separation = solve_sylvester(b[:m, :m], b[m:, m:], b[:m, m:])
        return z, (b, separation)

    def separation_bound(self, frame, b, last_b, separation):
        """Algorithms 1-2: min |lambda_i(B11) - mu_j(B22)|, min |lambda_i + lambda_j|
        of M on a symplectic frame, moves by at most ||dB11||_F + ||dB22||_F (Weyl;
        blocks of ``frame_terms`` states, read as given), less round-off at the data
        scale ||A_n||_F; the floor is the Sylvester solve's of the same blocks."""
        m = frame.rank
        b11, b22, last11, last22 = b[:m, :m], b[m:, m:], last_b[:m, :m], last_b[m:, m:]
        slack = frobenius_norm(b11 - last11) + frobenius_norm(b22 - last22)
        slack += TOL.separation_roundoff * frame.dim * self.scale
        return separation - slack, separation_floor(b11, b22)

    def certify(self, frame, state, last=None):
        """Algorithms 1-2: "bound" where ``separation_bound`` from the last
        step's state ``last``, (B', separation), clears its floor, else "solve",
        one more Newton solve; ``state`` is the state (B,) at ``frame``."""
        if last is not None:
            bound, floor = self.separation_bound(frame, *state, *last)
            if bound > floor:
                return "bound"
        return super().certify(frame, state)


@dataclass(frozen=True)
class InvariantSubspaceCost(CostFunction):
    """Residual cost ||(I - P) A P||^2 = tr((I - P) A P A^T) for arbitrary
    square A; zero exactly on projectors onto A-invariant subspaces."""

    a: np.ndarray

    def __post_init__(self):
        _store_units(self, 2)  # the gradient is quadratic in A
        a_n = self.a_n
        if a_n.ndim != 2 or a_n.shape[0] != a_n.shape[1] or not np.isfinite(a_n).all():
            raise DimensionMismatch("cost matrix must be square with finite entries")

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
        """||B21||^2, C = B21^T B22 - B11 B21^T (the Newton right-hand side) and
        the state (B, C); ||B21|| is the invariance residual ||(I - P) A P||."""
        m = frame.rank
        b = frame.theta @ self.a_n @ frame.theta.T
        b21 = b[m:, :m]
        rhs = invariant_newton_rhs(b[:m, :m], b21, b[m:, m:])
        return float(np.sum(b21 * b21)), rhs, (b, rhs)

    def newton_solve(self, frame, state):
        """Algorithm 3: minus the solution of the four-term equation of
        (B, C) = ``state``, by one LU solve; hands on (B, L), L the operator
        it read.  Grassmann frames only."""
        if isinstance(frame, SymplecticFrame):
            raise ValueError("the invariant-subspace Newton solve operates on Grassmann frames")
        b, rhs = state
        z, op = solve_invariant_newton(b, rhs)
        return -z, (b, op)

    def certify(self, frame, state, last=None):
        """Algorithm 3: ``solvers.certify_invariant_newton`` of the state's B
        at the data scale ||A_n||_F^2, given the last step's (B', L'), "cholesky"
        or "solve".  Grassmann frames only."""
        if isinstance(frame, SymplecticFrame):
            raise ValueError("the invariant-subspace Newton solve operates on Grassmann frames")
        return certify_invariant_newton(state[0], frame.rank, self.scale, last)


@dataclass(frozen=True)
class HamiltonianRayleighCost(RayleighCost):
    """The trace cost of a symmetric Hamiltonian H = [[S, T], [T, -S]],
    S and T symmetric (J H J = H): the paper's Algorithm 2, where B on a
    symplectic frame is its own Hamiltonian part to round-off.  It only
    checks the structure."""

    def __post_init__(self):
        super().__post_init__()
        require_hamiltonian(self.a_n, "symmetric Hamiltonian", TOL.lagrangian)

    @property
    def h(self):
        """The matrix H, held as the trace cost's ``a``."""
        return self.a

    @classmethod
    def from_blocks(cls, s, t):
        return cls(np.block([[s, t], [t, -s]]))  # H is symmetric exactly where S and T are


def _store_units(cost, power, check=np.asarray):
    """Store on ``cost`` A_n after ``check``, A as checked, the scale ||A_n||_F^``power`` and
    ``units`` = power e; ``ScaleOverflow`` where ||A||_F^power overflows."""
    a_n, e = binary_scaled(cost.a)
    a_n = check(a_n)
    scale = frobenius_norm(a_n) if power == 1 else float(np.sum(a_n * a_n))
    if np.frexp(scale)[1] + power * e > np.finfo(float).maxexp:
        raise ScaleOverflow("cost data scale is inf: the matrix entries are too large")
    cost.__dict__.update(a=np.ldexp(a_n, e), a_n=a_n, scale=scale, units=power * e)
