"""The Newton iteration on Grassmann and Lagrange-Grassmann frames.

One iteration pulls the cost back through a chart mu centered at the
current point, takes a Euclidean Newton step at 0, and pushes the step
forward through a chart nu.  The three charts share the same 2-jet at 0:
each turns the principal planes of Z through an angle sigma + O(sigma^3),
so all have identity derivative and second derivative Theta^T
diag(-2 Z Z^T, 2 Z^T Z) Theta (the tests check it by finite differences).
The pulled-back gradient and Hessian at 0 depend only on that 2-jet, so
they are the Riemannian ones for every mu, and mu does not change the
iterates; only nu does.

There is one engine: each cost solves its own Newton equation in frame
coordinates (``CostFunction.newton_solve``) and certifies its own critical
points (``CostFunction.certify``), passing its state between the calls
through the loop, which does not read it; ``newton_step`` pushes the solution
forward with ``grassmann.push_frame``: an O(n m (n - m)) update of the
frame rows that keeps them orthogonal (and symplectic) to round-off, so
no step re-orthogonalizes.  Algorithms 1-3 are this
iteration for the trace cost on both manifolds and for the
invariant-subspace cost.  The loop reads its diagnostics from the frames
too: value and gradient block from ``CostFunction.frame_terms``,
distances from the frames' leading rows against the reference's projector
matrix, which no run eigendecomposes.

No globalization is attempted: the method is local, and runs started far
from a nondegenerate critical point may diverge; the trace reports it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .config import TOL
from .costs import CostFunction
from .decomp import frobenius_norm
from .errors import (
    BadRank,
    DimensionMismatch,
    InsufficientData,
    NoConvergence,
    NotAProjector,
    SingularInput,
    SingularOperator,
    SpectralOverlap,
)
from .grassmann import CHART_NAMES, OrthoFrame, frame_distance, frame_distances, push_frame
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
    pull-back chart ``mu`` does not change the iterates (module docstring).
    ``grad_tol`` is relative to ``CostFunction.scale``.  The step test is the
    fixed angle ``TOL.step_tol``, in radians, as no data scale enters it."""

    mu: str = "exp"
    nu: str = "qr"
    max_iters: int = 50
    grad_tol: float = TOL.grad_tol

    def __post_init__(self):
        if self.mu not in CHART_NAMES or self.nu not in CHART_NAMES:
            raise ValueError(f"charts must be among {CHART_NAMES}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not 0.0 < self.grad_tol < np.inf:
            raise ValueError("grad_tol must be positive and finite")


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
    """Outcome of a single Newton step: its norm, and the state its solve
    handed on, which the cost's ``certify`` reads at the next iterate."""

    step_norm: float
    state: tuple


@dataclass(frozen=True)
class QuadraticRateEstimate:
    """Ratios e_{k+1}/e_k^2, the fitted log-log slope, and the verdict.

    The verdict is quadratic when the ratios stay bounded (no consecutive
    growth beyond the factor ``TOL.rate_growth``; shrinking ratios, as in
    super-quadratic runs, pass) and the least-squares slope of log e_{k+1}
    against log e_k is at least ``TOL.rate_slope``.
    """

    ratios: tuple
    slope: float
    verdict: bool
    usable: tuple


def estimate_quadratic_rate(errors) -> QuadraticRateEstimate:
    """Classify the tail of a positive error sequence.

    Only the longest strictly decreasing suffix with entries above
    ``TOL.rate_floor`` is used; at least 3 such entries are required.  The
    slope is the closed-form least-squares fit sum(x~ y~) / sum(x~^2) over
    the centered logs x~ of e_k and y~ of e_{k+1}.

    Raises
    ------
    InsufficientData
        If fewer than three usable entries remain.
    """
    seq = []
    for value in errors:
        value = float(value)
        if value <= TOL.rate_floor:
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
    bounded = all(ratios[i + 1] <= TOL.rate_growth * ratios[i] for i in range(len(ratios) - 1))
    x, y = np.log(e[:-1]), np.log(e[1:])
    x, y = x - x.mean(), y - y.mean()
    slope = float(x @ y / (x @ x))
    verdict = bool(bounded and slope >= TOL.rate_slope)
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


def newton_step(cost: CostFunction, frame, config: NewtonConfig, state):
    """One Newton step: the cost's Newton solve in frame coordinates, pushed
    forward with the ``nu`` chart (a non-finite step, or one whose Z Z^T
    overflows: ``NoConvergence``); ``state`` is the state ``cost.frame_terms``
    gave at ``frame``.  The push keeps the frame orthogonal, and a
    ``SymplecticFrame`` symplectic, without a correction step.

    A step with ||Z||_F >= pi/2 has stalled (``NoConvergence``) when it moves
    the subspace no further than the distance's round-off floor ``TOL.rate_floor``
    sqrt(n) (> ``TOL.step_tol``): a plane turned by pi (exp at sigma = pi, Cayley
    as sigma grows) is where it was.  Below pi/2 every chart turns each plane
    by phi(sigma) <= sigma < pi/2, so none can stall.
    """
    z, state = cost.newton_solve(frame, state)
    norm = frobenius_norm(z)
    step_norm = float(np.sqrt(2.0) * norm)
    try:
        pushed = push_frame(frame, z, config.nu)
    except SingularInput as exc:
        raise NoConvergence(f"step not pushed with the {config.nu} chart: {exc}") from exc
    if norm >= 0.5 * np.pi:
        moved = frame_distance(pushed, frame.projector().mat)
        floor = TOL.rate_floor * np.sqrt(frame.dim)
        if moved <= floor:
            raise NoConvergence(
                f"stalled step: the {config.nu} push moved the subspace {moved:.3e}, "
                f"not beyond the round-off floor {floor:.1e}, at step norm {step_norm:.3e}"
            )
    return pushed, StepInfo(step_norm, state)


def run_newton(cost, start, config: NewtonConfig, reference=None, method="generic"):
    """Iterate Newton steps until the gradient norm, step norm, or
    iteration budget stops the run.  The gradient test is relative,
    ||grad|| <= ``config.grad_tol * cost.scale``, so a status does not depend
    on the units of A; a step norm is an angle, tested against ``TOL.step_tol``.

    Every reported number is read from the frames: per iteration, the
    value and gradient block G of ``cost.frame_terms`` (blocks of
    B = Theta A_n Theta^T for the trace and invariant costs; the gradient
    norm is sqrt(2) ||G||), in A's units by 2^``cost.units``; after the loop,
    the distances from the frame rows (``grassmann.frame_distances``, against
    the reference's projector matrix P) and the symplecticity residuals.  No
    ambient gradient is formed, and no projector but P; nothing is eigendecomposed.

    The states of ``frame_terms`` and of the step's solve go, unread, to
    the solve and to ``certify`` at the next iterate.  The loop drops the
    last step's state before the next step: no iterate holds two four-term
    operators.

    Parameters
    ----------
    cost : CostFunction
        Gives the frame terms and solves the Newton equation (e.g. a
        RayleighCost on a SymplecticFrame for ``rayleigh-lg``).
    start : OrthoFrame
        A ``SymplecticFrame`` runs on the Lagrange Grassmannian, with the
        same charts.
    config : NewtonConfig
    reference : Projector, OrthoFrame or None
        A ``Projector`` (P is its ``mat``), or a frame whose leading rows
        span the reference (P is its ``projector().mat``).  When given,
        distances measure to it, and it is checked once, before the loop:
        the start frame's dimension (``DimensionMismatch``) and rank, by
        tr P (``BadRank``), and finite entries (``NotAProjector``).  Otherwise
        distances measure to the final iterate's projector.
    method : str
        One of ``METHODS``.  The cost determines the Newton equation and its
        solve: the name is checked, and selects nothing.

    Returns
    -------
    NewtonTrace
        Terminal status ``Converged`` certifies a nondegenerate critical
        point: below grad_tol, by ``cost.certify``, given the iterate's state
        and the last step's (a bound, one more Newton solve, or a Cholesky
        factorization), where a singular/unsolvable system surfaces
        as ``SingularHessian``/``SpectralOverlap`` instead.
        ``extras["certified_by"]`` is what ``certify`` returns ("bound",
        "cholesky", "solve"), or "step" (tiny step).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    trace = NewtonTrace()
    trace.distance_reference = "supplied" if reference is not None else "final"
    frame = replace(start)  # re-runs the entry checks: pushes skip them
    p = None if reference is None else _reference_matrix(reference, frame)
    frames = []
    tiny_step, last = False, None  # last: the state the last step's solve handed on
    grad_tol = config.grad_tol * cost.scale
    t0 = time.perf_counter()
    for iteration in range(config.max_iters + 1):
        value, grad_block, state = cost.frame_terms(frame)
        frames.append(frame)
        grad_norm = np.sqrt(2.0) * frobenius_norm(grad_block)
        record = IterationRecord(
            iteration=iteration,
            cost=math.ldexp(value, cost.units),
            grad_norm=math.ldexp(grad_norm, cost.units),
            step_norm=0.0,
            distance=None,
            elapsed=time.perf_counter() - t0,
        )
        trace.records.append(record)
        if tiny_step:
            trace.status, trace.extras["certified_by"] = Status.CONVERGED, "step"
            break
        try:
            if grad_norm <= grad_tol:
                # certify nondegeneracy: a vanishing gradient at a degenerate
                # point (singular Newton system) is a failure mode, not success
                trace.extras["certified_by"] = cost.certify(frame, state, last)
                trace.status = Status.CONVERGED
                break
            if iteration == config.max_iters:
                trace.status = Status.MAX_ITERS
                break
            last = info = None  # one solve's state at a time
            frame, info = newton_step(cost, frame, config, state)
        except SpectralOverlap:
            trace.status = Status.SPECTRAL_OVERLAP
            break
        except SingularOperator:
            trace.status = Status.SINGULAR_HESSIAN
            break
        except NoConvergence:
            trace.status = Status.NO_CONVERGENCE
            break
        record.step_norm, last = info.step_norm, info.state
        tiny_step = info.step_norm <= TOL.step_tol
    if p is None:
        p = frame.projector().mat
    for record, dist in zip(trace.records, frame_distances(frames, p)):
        record.distance = float(dist)
    if isinstance(start, SymplecticFrame):
        trace.extras["symplecticity_residuals"] = [f.symplecticity_residual() for f in frames]
    trace.extras["final_frame"] = frame
    return trace


def _reference_matrix(reference, start):
    """The projector matrix P of a ``Projector`` or frame reference, checked against
    the start frame: its dimension, finite entries and rank, |tr P - m| <= ``TOL.projector`` n."""
    p = reference.projector().mat if isinstance(reference, OrthoFrame) else reference.mat
    if p.shape != (start.dim, start.dim):
        raise DimensionMismatch(f"reference has shape {p.shape}, the start frame dimension {start.dim}")
    if not np.isfinite(p).all():
        raise NotAProjector("reference has a non-finite entry")
    if abs(np.trace(p) - start.rank) > TOL.projector * start.dim:
        raise BadRank(f"reference rank {np.trace(p):g} differs from the start frame's {start.rank}")
    return p


def perturb_frame(frame: OrthoFrame, eps, seed) -> OrthoFrame:
    """Move a frame a geodesic distance ``eps`` in a random tangent
    direction (the exponential chart preserves that distance exactly); a
    ``SymplecticFrame`` moves along a symmetric Z and stays symplectic."""
    rng = np.random.default_rng(seed)
    m, k = frame.rank, frame.dim - frame.rank
    z = rng.standard_normal((m, k))
    if isinstance(frame, SymplecticFrame):
        z = 0.5 * (z + z.T)
    z *= eps / (np.sqrt(2.0) * np.linalg.norm(z))
    return push_frame(frame, z, "exp")
