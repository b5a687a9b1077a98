"""The Newton iteration on Grassmann and Lagrange-Grassmann frames.

One iteration pulls the cost back through a chart mu centered at the
current point, takes a Euclidean Newton step at 0, and pushes the step
forward through a chart nu.  The three charts share the same 2-jet at 0:
identity derivative, and second derivative Theta^T diag(-2 Z Z^T,
2 Z^T Z) Theta (``grassmann.chart_second_derivative_check`` shows it).
The pulled-back gradient and Hessian at 0 depend only on that 2-jet, so
they are the Riemannian ones for every mu, and mu does not change the
iterates; only nu does.

There is one engine: each cost solves its own Newton equation in frame
coordinates (``CostFunction.newton_solve``), and ``newton_step`` pushes
the solution forward.  Algorithms 1-3 are this iteration for the trace
cost on both manifolds and for the invariant-subspace cost.  The loop
reads its diagnostics from the frames too: value and gradient block from
``CostFunction.frame_terms``, distances from the frame rows.

No globalization is attempted: the method is local, and runs started far
from a nondegenerate critical point may diverge; the trace reports it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .costs import CostFunction, InvariantSubspaceCost
from .errors import (
    InsufficientData,
    NoConvergence,
    SingularOperator,
    SpectralOverlap,
)
from .grassmann import CHART_NAMES, OrthoFrame, frame_distance, push_frame
from .lagrange import SymplecticFrame

__all__ = [
    "CHART_NAMES",
    "NewtonConfig",
    "IterationRecord",
    "NewtonTrace",
    "StepInfo",
    "QuadraticRateEstimate",
    "Status",
    "METHODS",
    "newton_step",
    "run_newton",
    "estimate_quadratic_rate",
    "rate_from_trace",
    "perturb_frame",
]


METHODS = ("generic", "rayleigh-gr", "rayleigh-lg", "invariant-direct", "invariant-recursive")


class Status:
    CONVERGED = "Converged"
    MAX_ITERS = "MaxIters"
    SINGULAR_HESSIAN = "SingularHessian"
    SPECTRAL_OVERLAP = "SpectralOverlap"
    NO_CONVERGENCE = "NoConvergence"


@dataclass(frozen=True)
class NewtonConfig:
    """Iteration parameters.  ``nu`` is the push-forward chart; the
    pull-back chart ``mu`` does not change the iterates (module docstring)."""

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


def newton_step(cost: CostFunction, frame, config: NewtonConfig, solver="direct"):
    """One Newton step: the cost's Newton solve in frame coordinates, pushed
    forward with the ``nu`` chart.

    The pushed frame is re-orthogonalized; a ``SymplecticFrame`` keeps
    itself (``SymplecticFrame.reorthogonalized``).
    """
    z = cost.newton_solve(frame, solver)
    info = StepInfo(z, float(np.sqrt(2.0) * np.linalg.norm(z)))
    return push_frame(frame, z, config.nu).reorthogonalized(), info


def run_newton(cost, start, config: NewtonConfig, reference=None, method="generic"):
    """Iterate Newton steps until the gradient norm, step norm, or
    iteration budget stops the run.

    Every reported number is read from the frames: per iteration, the
    value and gradient block G of ``cost.frame_terms`` (blocks of
    B = Theta A Theta^T for the trace and invariant costs; the gradient
    norm is sqrt(2) ||G||); after the loop, the distances from the frame
    rows (``grassmann.frame_distance``), the symplecticity residuals, and
    the invariance residuals ||B21|| = sqrt(cost).  No projector or ambient
    gradient is formed; only the reference is eigendecomposed, once.

    Parameters
    ----------
    cost : CostFunction
        Gives the frame terms and solves the Newton equation (e.g. a
        HamiltonianRayleighCost on a SymplecticFrame for ``rayleigh-lg``).
    start : OrthoFrame
        A ``SymplecticFrame`` runs on the Lagrange Grassmannian, with the
        same charts.
    config : NewtonConfig
    reference : Projector or None
        When given (a ``LagProjector`` is one), distances measure to it;
        otherwise to the final iterate.
    method : str
        One of ``METHODS``.  The cost determines the Newton equation;
        ``invariant-recursive`` selects the recursive four-term solver.

    Returns
    -------
    NewtonTrace
        Terminal status ``Converged`` certifies a nondegenerate critical
        point: when the gradient norm drops below tolerance, one more
        Newton system is solved, and a singular/unsolvable system
        surfaces as ``SingularHessian``/``SpectralOverlap`` instead.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    solver = "recursive" if method == "invariant-recursive" else "direct"
    trace = NewtonTrace()
    trace.distance_reference = "supplied" if reference is not None else "final"
    frame = start
    frames = []
    tiny_step = False
    t0 = time.perf_counter()
    for iteration in range(config.max_iters + 1):
        value, grad_block = cost.frame_terms(frame)
        frames.append(frame)
        record = IterationRecord(
            iteration=iteration,
            cost=value,
            grad_norm=float(np.sqrt(2.0) * np.linalg.norm(grad_block)),
            step_norm=0.0,
            distance=None,
            elapsed=time.perf_counter() - t0,
        )
        trace.records.append(record)
        if tiny_step:
            trace.status = Status.CONVERGED
            break
        try:
            if record.grad_norm <= config.grad_tol:
                # certify nondegeneracy: a vanishing gradient at a degenerate
                # point (singular Newton system) is a failure mode, not success
                cost.newton_solve(frame, solver)
                trace.status = Status.CONVERGED
                break
            if iteration == config.max_iters:
                trace.status = Status.MAX_ITERS
                break
            frame, info = newton_step(cost, frame, config, solver)
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
    basis = frame.basis() if reference is None else reference.basis()
    for record, iterate in zip(trace.records, frames):
        record.distance = frame_distance(iterate, basis)
    if isinstance(start, SymplecticFrame):
        trace.extras["symplecticity_residuals"] = [f.symplecticity_residual() for f in frames]
    if isinstance(cost, InvariantSubspaceCost):
        trace.extras["invariance_residuals"] = [float(np.sqrt(r.cost)) for r in trace.records]
    trace.extras["final_frame"] = frame
    return trace


def perturb_frame(frame: OrthoFrame, eps, seed, chart="exp") -> OrthoFrame:
    """Move a frame a geodesic distance ``eps`` in a random tangent
    direction (the exponential chart preserves that distance exactly); a
    ``SymplecticFrame`` moves along a symmetric Z and stays symplectic."""
    rng = np.random.default_rng(seed)
    m, k = frame.rank, frame.dim - frame.rank
    z = rng.standard_normal((m, k))
    if isinstance(frame, SymplecticFrame):
        z = 0.5 * (z + z.T)
    z *= eps / (np.sqrt(2.0) * np.linalg.norm(z))
    return push_frame(frame, z, chart)
