"""Two-chart Newton iteration and the three specialized frame algorithms.

One iteration pulls the cost back through a chart mu centered at the
current point, takes a Euclidean Newton step at 0, and pushes the step
forward through a chart nu.  Because all charts here have identity
derivative at 0, the pulled-back gradient and Hessian at 0 coincide with
the Riemannian ones for every chart choice, so the step computation only
depends on nu; mu is accepted for interface completeness.

The specialized steps solve the same Newton system in closed form:
a Sylvester equation for the trace cost on the Grassmannian, a Lyapunov
equation on the Lagrange Grassmannian, and a four-term linear matrix
equation for the invariant-subspace cost.

No globalization is attempted: the method is local, and runs started far
from a nondegenerate critical point may diverge; the trace reports it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .costs import (
    CostFunction,
    HamiltonianRayleighCost,
    InvariantSubspaceCost,
    RayleighCost,
    riemannian_gradient_gr,
    riemannian_gradient_lg,
    riemannian_hessian_apply_gr,
)
from .decomp import symmetrize
from .errors import (
    InsufficientData,
    NoConvergence,
    SingularOperator,
    SpectralOverlap,
)
from .grassmann import (
    CHART_NAMES,
    OrthoFrame,
    distance,
    param_from_tangent,
    push_frame,
    tangent_from_param,
)
from .lagrange import SymplecticFrame, lg_push_frame
from .solvers import (
    solve_dense,
    solve_invariant_newton_direct,
    solve_invariant_newton_recursive,
    solve_lyapunov,
    solve_sylvester,
)

__all__ = [
    "CHART_NAMES",
    "NewtonConfig",
    "IterationRecord",
    "NewtonTrace",
    "StepInfo",
    "QuadraticRateEstimate",
    "Status",
    "newton_step_generic",
    "algorithm1_step",
    "algorithm2_step",
    "algorithm3_step",
    "run_newton",
    "estimate_quadratic_rate",
    "rate_from_trace",
    "perturb_frame",
    "perturb_lag_frame",
]


class Status:
    CONVERGED = "Converged"
    MAX_ITERS = "MaxIters"
    SINGULAR_HESSIAN = "SingularHessian"
    SPECTRAL_OVERLAP = "SpectralOverlap"
    NO_CONVERGENCE = "NoConvergence"


@dataclass(frozen=True)
class NewtonConfig:
    """Iteration parameters; ``mu``/``nu`` select the chart pair."""

    mu: str = "exp"
    nu: str = "qr"
    max_iters: int = 50
    grad_tol: float = 1e-12
    step_tol: float = 1e-15

    def __post_init__(self):
        if self.mu not in CHART_NAMES or self.nu not in CHART_NAMES:
            raise ValueError(f"charts must be among {CHART_NAMES}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.grad_tol <= 0.0 or self.step_tol <= 0.0:
            raise ValueError("tolerances must be positive")


@dataclass
class IterationRecord:
    iteration: int
    cost: float
    grad_norm: float
    step_norm: float
    distance: float | None
    elapsed: float


@dataclass
class NewtonTrace:
    records: list[IterationRecord] = field(default_factory=list)
    status: str = Status.MAX_ITERS
    # "supplied": distances measure to a caller-given reference;
    # "final": to the last iterate (drop the trailing entries for rates)
    distance_reference: str | None = None
    extras: dict = field(default_factory=dict)

    def errors(self):
        return [r.distance for r in self.records if r.distance is not None]

    def grad_norms(self):
        return [r.grad_norm for r in self.records]


@dataclass(frozen=True)
class StepInfo:
    """Outcome of a single Newton step."""

    param: np.ndarray
    step_norm: float


@dataclass(frozen=True)
class QuadraticRateEstimate:
    """Ratios e_{k+1}/e_k^2, the fitted log-log slope, and the verdict.

    The verdict is quadratic when the ratios stay bounded (no consecutive
    growth beyond a factor 10; shrinking ratios, as in super-quadratic
    runs, pass) and the least-squares slope of log e_{k+1} against
    log e_k is at least 1.7.
    """

    ratios: tuple
    slope: float
    verdict: bool
    usable: tuple


def estimate_quadratic_rate(errors) -> QuadraticRateEstimate:
    """Classify the tail of a positive error sequence.

    Only the longest strictly decreasing suffix with entries above
    10 * machine epsilon is used; at least 3 such entries are required.

    Raises
    ------
    InsufficientData
        If fewer than three usable entries remain.
    """
    floor = 10.0 * np.finfo(float).eps
    seq = []
    for value in errors:
        value = float(value)
        if value <= floor:
            break
        seq.append(value)
    start = len(seq) - 1
    while start > 0 and seq[start - 1] > seq[start]:
        start -= 1
    usable = seq[start:]
    if len(usable) < 3:
        raise InsufficientData(
            f"need at least 3 usable decreasing entries, got {len(usable)}"
        )
    e = np.asarray(usable)
    ratios = e[1:] / e[:-1] ** 2
    bounded = all(ratios[i + 1] <= 10.0 * ratios[i] for i in range(len(ratios) - 1))
    slope = float(np.polyfit(np.log(e[:-1]), np.log(e[1:]), 1)[0])
    verdict = bool(bounded and slope >= 1.7)
    return QuadraticRateEstimate(tuple(ratios), slope, verdict, tuple(usable))


def rate_from_trace(trace: NewtonTrace) -> QuadraticRateEstimate:
    """Rate estimate from the distance column of a trace.

    When distances were measured against the final iterate (no external
    reference), the last two entries are excluded: they are dominated by
    the reference itself.
    """
    errors = trace.errors()
    if trace.distance_reference == "final":
        errors = errors[:-2]
    return estimate_quadratic_rate(errors)


def newton_step_generic(cost: CostFunction, frame: OrthoFrame, config: NewtonConfig):
    """One pull-back/push-forward Newton step in tangent coordinates.

    Assembles the Riemannian gradient and Hessian on the coordinate basis
    xi_kl = Theta^T E_kl Theta (E_kl symmetric with unit entries at the two
    off-diagonal block positions), solves H z = -g, and pushes the step
    forward with the ``nu`` chart.
    """
    if isinstance(frame, SymplecticFrame):
        raise ValueError("the generic engine operates on Grassmann frames; "
                         "use method='rayleigh-lg' for Lagrangian problems")
    n, m = frame.dim, frame.rank
    k = n - m
    d = m * k
    point = frame.projector()
    grad = riemannian_gradient_gr(cost, point)
    g = 2.0 * param_from_tangent(frame, grad).reshape(-1)
    hess = np.zeros((d, d))
    for col in range(d):
        e = np.zeros(d)
        e[col] = 1.0
        basis_vec = tangent_from_param(frame, e.reshape(m, k))
        h_apply = riemannian_hessian_apply_gr(cost, point, basis_vec)
        hess[:, col] = 2.0 * param_from_tangent(frame, h_apply).reshape(-1)
    z = solve_dense(hess, -g)
    w = z.reshape(m, k)
    info = StepInfo(w, float(np.sqrt(2.0) * np.linalg.norm(w)))
    return push_frame(frame, w, config.nu), info


def algorithm1_step(a, frame: OrthoFrame):
    """Specialized step for the trace cost tr(A P) on the Grassmannian.

    Transforms A into the frame, solves the Sylvester equation
    A11 Z - Z A22 = A12 for the Newton parameter, and pushes the frame
    forward with the QR chart.
    """
    a = np.asarray(a.a if isinstance(a, RayleighCost) else a, dtype=float)
    m = frame.rank
    b = frame.theta @ a @ frame.theta.T
    a11 = symmetrize(b[:m, :m])
    a22 = symmetrize(b[m:, m:])
    a12 = b[:m, m:]
    z = solve_sylvester(a11, a22, a12)
    info = StepInfo(z, float(np.sqrt(2.0) * np.linalg.norm(z)))
    return push_frame(frame, z, "qr").reorthogonalized(), info


def algorithm2_step(h, frame: SymplecticFrame):
    """Specialized step for tr(H P) on the Lagrange Grassmannian.

    The frame-transformed cost matrix keeps the symmetric-Hamiltonian
    block structure, so the Newton system is the Lyapunov equation
    A11 Z + Z A11 = A12 with symmetric Z; the push-forward uses the
    orthogonal-symplectic QR factor.
    """
    mat = h.h if isinstance(h, HamiltonianRayleighCost) else np.asarray(h, dtype=float)
    n = frame.half_dim
    b = frame.theta @ mat @ frame.theta.T
    a11 = symmetrize(b[:n, :n])
    a12 = symmetrize(b[:n, n:])
    z = solve_lyapunov(a11, a12)
    info = StepInfo(z, float(np.sqrt(2.0) * np.linalg.norm(z)))
    return lg_push_frame(frame, z, "qr"), info


def algorithm3_step(a, frame: OrthoFrame, solver="direct"):
    """Specialized step for the invariant-subspace cost ||(I-P) A P||^2.

    Solves the four-term linear matrix equation in the frame (directly on
    the vectorized parameter space, or by the alternating-Sylvester
    recursion) and pushes forward with the QR chart.  The solved parameter
    is the negative of the Newton tangent step.
    """
    a = np.asarray(a.a if isinstance(a, InvariantSubspaceCost) else a, dtype=float)
    m = frame.rank
    b = frame.theta @ a @ frame.theta.T
    a11, a12 = b[:m, :m], b[:m, m:]
    a21, a22 = b[m:, :m], b[m:, m:]
    if solver == "direct":
        z = solve_invariant_newton_direct(a11, a12, a21, a22)
    elif solver == "recursive":
        z = solve_invariant_newton_recursive(a11, a12, a21, a22)
    else:
        raise ValueError(f"unknown solver {solver!r}, expected 'direct' or 'recursive'")
    w = -z
    info = StepInfo(w, float(np.sqrt(2.0) * np.linalg.norm(w)))
    return push_frame(frame, w, "qr").reorthogonalized(), info


def _dispatch_step(method, cost, frame, config):
    if method == "generic":
        return newton_step_generic(cost, frame, config)
    if method == "rayleigh-gr":
        return algorithm1_step(cost, frame)
    if method == "rayleigh-lg":
        return algorithm2_step(cost, frame)
    if method == "invariant-direct":
        return algorithm3_step(cost, frame, "direct")
    if method == "invariant-recursive":
        return algorithm3_step(cost, frame, "recursive")
    raise ValueError(f"unknown method {method!r}")


def run_newton(cost, start, config: NewtonConfig, reference=None, method="generic"):
    """Iterate Newton steps until the gradient norm, step norm, or
    iteration budget stops the run.

    Parameters
    ----------
    cost : CostFunction
        Must match ``method`` (e.g. a HamiltonianRayleighCost for
        ``rayleigh-lg``).
    start : OrthoFrame or SymplecticFrame
    config : NewtonConfig
    reference : Projector, LagProjector or None
        When given, each record carries the geodesic distance to it;
        otherwise distances to the final iterate are filled in afterwards.
    method : str
        One of ``generic``, ``rayleigh-gr``, ``rayleigh-lg``,
        ``invariant-direct``, ``invariant-recursive``.

    Returns
    -------
    NewtonTrace
        Terminal status ``Converged`` certifies a nondegenerate critical
        point: when the gradient norm drops below tolerance, one more
        Newton system is assembled, and a singular/unsolvable system
        surfaces as ``SingularHessian``/``SpectralOverlap`` instead.
    """
    lagrangian = isinstance(start, SymplecticFrame)
    ref_proj = None
    if reference is not None:
        ref_proj = reference.as_projector() if hasattr(reference, "as_projector") else reference
    trace = NewtonTrace()
    trace.distance_reference = "supplied" if ref_proj is not None else "final"
    if lagrangian:
        trace.extras["symplecticity_residuals"] = []
    if method.startswith("invariant"):
        trace.extras["invariance_residuals"] = []
    frame = start
    iterates = []
    tiny_step = False
    t0 = time.perf_counter()
    for iteration in range(config.max_iters + 1):
        if lagrangian:
            lag_point = frame.projector()
            point = lag_point.as_projector()
            grad_norm = float(np.linalg.norm(riemannian_gradient_lg(cost, lag_point)))
            trace.extras["symplecticity_residuals"].append(frame.symplecticity_residual())
        else:
            point = frame.projector()
            grad_norm = riemannian_gradient_gr(cost, point).norm
        if method.startswith("invariant"):
            a = cost.a
            residual = np.linalg.norm((np.eye(point.dim) - point.mat) @ a @ point.mat)
            trace.extras["invariance_residuals"].append(float(residual))
        iterates.append(point)
        record = IterationRecord(
            iteration=iteration,
            cost=cost.value(point.mat),
            grad_norm=grad_norm,
            step_norm=0.0,
            distance=distance(point, ref_proj) if ref_proj is not None else None,
            elapsed=time.perf_counter() - t0,
        )
        trace.records.append(record)
        if tiny_step:
            trace.status = Status.CONVERGED
            break
        if grad_norm <= config.grad_tol:
            # certify nondegeneracy: a vanishing gradient at a degenerate
            # point (singular Newton system) is a failure mode, not success
            try:
                _dispatch_step(method, cost, frame, config)
            except SpectralOverlap:
                trace.status = Status.SPECTRAL_OVERLAP
            except SingularOperator:
                trace.status = Status.SINGULAR_HESSIAN
            except NoConvergence:
                trace.status = Status.NO_CONVERGENCE
            else:
                trace.status = Status.CONVERGED
            break
        if iteration == config.max_iters:
            trace.status = Status.MAX_ITERS
            break
        try:
            frame, info = _dispatch_step(method, cost, frame, config)
        except SpectralOverlap:
            trace.status = Status.SPECTRAL_OVERLAP
            break
        except SingularOperator:
            trace.status = Status.SINGULAR_HESSIAN
            break
        except NoConvergence:
            trace.status = Status.NO_CONVERGENCE
            break
        record.step_norm = info.step_norm
        tiny_step = info.step_norm <= config.step_tol
    if ref_proj is None and iterates:
        final = iterates[-1]
        for record, point in zip(trace.records, iterates):
            record.distance = distance(point, final)
    trace.extras["final_frame"] = frame
    return trace


def perturb_frame(frame: OrthoFrame, eps, seed, chart="exp") -> OrthoFrame:
    """Move a frame a geodesic distance ``eps`` in a random tangent
    direction (the exponential chart preserves that distance exactly)."""
    rng = np.random.default_rng(seed)
    m, k = frame.rank, frame.dim - frame.rank
    z = rng.standard_normal((m, k))
    z *= eps / (np.sqrt(2.0) * np.linalg.norm(z))
    return push_frame(frame, z, chart)


def perturb_lag_frame(frame: SymplecticFrame, eps, seed, chart="exp") -> SymplecticFrame:
    """Same as ``perturb_frame`` for symplectic frames (symmetric Z)."""
    rng = np.random.default_rng(seed)
    n = frame.half_dim
    z = rng.standard_normal((n, n))
    z = 0.5 * (z + z.T)
    z *= eps / (np.sqrt(2.0) * np.linalg.norm(z))
    return lg_push_frame(frame, z, chart)
