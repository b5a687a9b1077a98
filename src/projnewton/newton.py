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
coordinates (``CostFunction.newton_solve``), and ``newton_step`` pushes
the solution forward with ``grassmann.push_frame``: an O(n m (n - m))
update of the frame rows that keeps them orthogonal (and symplectic) to
round-off, so no step re-orthogonalizes.  Algorithms 1-3 are this
iteration for the trace cost on both manifolds and for the
invariant-subspace cost.  The loop reads its diagnostics from the frames
too: value and gradient block from ``CostFunction.frame_terms``,
distances from the frame rows.

No globalization is attempted: the method is local, and runs started far
from a nondegenerate critical point may diverge; the trace reports it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .config import TOL
from .costs import CostFunction, InvariantSubspaceCost
from .decomp import frobenius_norm
from .errors import (
    InsufficientData,
    NoConvergence,
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
    ``grad_tol`` is relative to ``CostFunction.scale``; ``step_tol``, an angle, is not."""

    mu: str = "exp"
    nu: str = "qr"
    max_iters: int = 50
    grad_tol: float = TOL.grad_tol
    step_tol: float = TOL.step_tol

    def __post_init__(self):
        if self.mu not in CHART_NAMES or self.nu not in CHART_NAMES:
            raise ValueError(f"charts must be among {CHART_NAMES}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (0.0 < self.grad_tol < np.inf and 0.0 < self.step_tol < np.inf):
            raise ValueError("tolerances must be positive and finite")


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


def newton_step(cost: CostFunction, frame, config: NewtonConfig, solver="direct", b=None):
    """One Newton step: the cost's Newton solve in frame coordinates, pushed
    forward with the ``nu`` chart (a non-finite step, or one whose Z Z^T
    overflows: ``NoConvergence``); ``b`` is the data of ``cost.frame_terms``
    at ``frame``, if at hand.  The push keeps the frame orthogonal, and a
    ``SymplecticFrame`` symplectic, without a correction step.

    A step with ||Z||_F >= pi/2 has stalled (``NoConvergence``) when it
    moves the subspace no further than ``config.step_tol`` or the distance's
    round-off floor ``TOL.rate_floor`` sqrt(n): a plane turned by pi (exp at
    sigma = pi, Cayley as sigma grows) is where it was.  Below pi/2 every
    chart turns each plane by phi(sigma) <= sigma < pi/2, so none can stall.
    """
    z = cost.newton_solve(frame, solver, b)
    norm = frobenius_norm(z)
    step_norm = float(np.sqrt(2.0) * norm)
    try:
        pushed = push_frame(frame, z, config.nu)
    except SingularInput as exc:
        raise NoConvergence(f"step not pushed with the {config.nu} chart: {exc}") from exc
    if norm >= 0.5 * np.pi:
        moved = frame_distance(pushed, frame.basis())
        floor = TOL.rate_floor * np.sqrt(frame.dim)
        if moved <= max(config.step_tol, floor):
            raise NoConvergence(
                f"stalled step: the {config.nu} push moved the subspace {moved:.3e}, "
                f"not beyond step_tol {config.step_tol:.1e} or the round-off floor "
                f"{floor:.1e}, at step norm {step_norm:.3e}"
            )
    return pushed, StepInfo(z, step_norm)


def run_newton(cost, start, config: NewtonConfig, reference=None, method="generic"):
    """Iterate Newton steps until the gradient norm, step norm, or
    iteration budget stops the run.  The gradient test is relative,
    ||grad|| <= ``config.grad_tol * cost.scale``, so a status does not depend
    on the units of A; a step norm is an angle, tested against ``step_tol``.

    Every reported number is read from the frames: per iteration, the
    value and gradient block G of ``cost.frame_terms`` (blocks of
    B = Theta A Theta^T for the trace and invariant costs; the gradient
    norm is sqrt(2) ||G||; the Newton solve reuses B, so each iterate forms
    it once); after the loop, the distances from the frame
    rows (``grassmann.frame_distances``), the symplecticity residuals, and
    the invariance residuals ||B21|| = sqrt(cost).  No projector or ambient
    gradient is formed; a ``Projector`` reference is eigendecomposed, once.

    Parameters
    ----------
    cost : CostFunction
        Gives the frame terms and solves the Newton equation (e.g. a
        HamiltonianRayleighCost on a SymplecticFrame for ``rayleigh-lg``).
    start : OrthoFrame
        A ``SymplecticFrame`` runs on the Lagrange Grassmannian, with the
        same charts.
    config : NewtonConfig
    reference : Projector, OrthoFrame or None
        A ``Projector``, or a frame whose leading rows span the reference
        (its ``basis()``, a copy of the rows: no eigendecomposition).  When
        given, distances measure to it; otherwise to the final iterate.
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
    frame = replace(start)  # re-runs the entry checks: pushes skip them
    frames = []
    tiny_step = False
    grad_tol = config.grad_tol * cost.scale
    t0 = time.perf_counter()
    for iteration in range(config.max_iters + 1):
        value, grad_block, b = cost.frame_terms(frame)
        frames.append(frame)
        record = IterationRecord(
            iteration=iteration,
            cost=value,
            grad_norm=float(np.sqrt(2.0) * frobenius_norm(grad_block)),
            step_norm=0.0,
            distance=None,
            elapsed=time.perf_counter() - t0,
        )
        trace.records.append(record)
        if tiny_step:
            trace.status = Status.CONVERGED
            break
        try:
            if record.grad_norm <= grad_tol:
                # certify nondegeneracy: a vanishing gradient at a degenerate
                # point (singular Newton system) is a failure mode, not success
                cost.newton_solve(frame, solver, b)
                trace.status = Status.CONVERGED
                break
            if iteration == config.max_iters:
                trace.status = Status.MAX_ITERS
                break
            frame, info = newton_step(cost, frame, config, solver, b)
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
    for record, dist in zip(trace.records, frame_distances(frames, basis)):
        record.distance = float(dist)
    if isinstance(start, SymplecticFrame):
        trace.extras["symplecticity_residuals"] = [f.symplecticity_residual() for f in frames]
    if isinstance(cost, InvariantSubspaceCost):
        trace.extras["invariance_residuals"] = [float(np.sqrt(r.cost)) for r in trace.records]
    trace.extras["final_frame"] = frame
    return trace


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
