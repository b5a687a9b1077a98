"""Newton's method on Grassmann and Lagrange-Grassmann manifolds of
symmetric projection matrices: geometry, charts, and one two-chart Newton
engine in which each cost solves its own Newton equation (eigenspaces,
Lagrangian eigenspaces, invariant subspaces) with the matrix-equation
solvers in ``projnewton.solvers``."""

from .config import TOL, Tolerances
from .costs import (
    CostFunction,
    HamiltonianRayleighCost,
    InvariantSubspaceCost,
    RayleighCost,
)
from .decomp import qr_positive, sym_eig
from .grassmann import (
    CHART_NAMES,
    GrTangent,
    OrthoFrame,
    Projector,
    frame_from_projector,
    random_projector,
)
from .lagrange import (
    LagProjector,
    SymplecticFrame,
    random_lag_projector,
    symplectic_frame_from_basis,
    sympl_form,
)
from .newton import (
    NewtonConfig,
    NewtonTrace,
    QuadraticRateEstimate,
    Status,
    estimate_quadratic_rate,
    newton_step,
    perturb_frame,
    rate_from_trace,
    run_newton,
)

__version__ = "0.1.0"
