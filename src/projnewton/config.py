"""Central numerical tolerances.

Every residual threshold used by the library, its self-checks and the CLI
lives here, so tests and runtime agree on a single source of truth.
Relative tolerances are understood with respect to a natural scale of the
quantity they guard (documented per field).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # relative symmetry / skewness defect of matrix inputs; the default
    # tolerance of decomp.require_symmetric
    symmetry: float = 1e-12
    # symmetry / Hamiltonian-structure defect of CLI matrix files A 2^-e (relative
    # to max|A|); read by cli.py alone, which hands it to decomp.require_symmetric
    # and lagrange.require_hamiltonian
    input_symmetry: float = 1e-8
    # relative floor below which a QR diagonal entry, or the reciprocal condition
    # number of a dense operator (in the four-term certificate, taken against
    # at least the data scale max ||A_ij||_1^2), counts as singular; it scales
    # the four-term operator's floor too (solvers.four_term_floor)
    pivot: float = 1e-12
    # projector defects: |tr P - m| of a reference (per unit of dimension) and
    # ||[P, [P, X]] - X|| of a tangent vector (GrTangent, relative to max(1, ||X||))
    projector: float = 1e-10
    # ||Theta^T Theta - I|| of a frame accepted as orthogonal
    frame_orthogonality: float = 1e-10
    # ||Theta^T J Theta - J|| of frames (SymplecticFrame), max |U^T J U| of CLI
    # start bases, and the JHJ - H defect of HamiltonianRayleighCost's H 2^-e
    # (relative to max|H|)
    lagrangian: float = 1e-10
    # relative floor on Sylvester / Lyapunov spectral gaps
    spectral_gap: float = 1e-8
    # round-off allowance per unit of dimension and data scale of the trace costs'
    # separation bounds and of the four-term operator's Cholesky certificate
    separation_roundoff: float = 8 * sys.float_info.epsilon
    # Newton stop: gradient norm relative to ``CostFunction.scale``, in the cost's units
    grad_tol: float = 1e-11
    # Newton stop: step norm, an angle in radians (no data scale)
    step_tol: float = 1e-15
    # quadratic-rate verdict: the least-squares slope of log e_{k+1} against
    # log e_k reaches rate_slope, and no ratio e_{k+1} / e_k^2 exceeds the
    # one before it by more than the factor rate_growth
    rate_slope: float = 1.7
    rate_growth: float = 10.0
    # the rate estimator drops errors (distances) at or below this round-off
    # floor; a Newton step of norm >= pi/2 that moves the subspace no further
    # than rate_floor sqrt(n) has stalled
    rate_floor: float = 10 * sys.float_info.epsilon


TOL = Tolerances()
