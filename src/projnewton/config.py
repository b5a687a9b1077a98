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
    # relative symmetry / skewness defect of matrix inputs
    symmetry: float = 1e-12
    # relative symmetry / Hamiltonian-structure defect of CLI input files,
    # and the PJP defect of a Lagrangian start basis
    input_symmetry: float = 1e-8
    # relative floor below which a QR diagonal entry, or the reciprocal
    # condition number of a dense operator, counts as singular
    pivot: float = 1e-12
    # projector defects: ||P^2 - P||, |tr P - m|
    projector: float = 1e-10
    # ||Theta^T Theta - I|| of a frame accepted as orthogonal
    frame_orthogonality: float = 1e-10
    # ||Theta^T diag(I,0) Theta - P|| when rebuilding a frame from a projector
    frame_reconstruction: float = 1e-9
    # ||P J P|| for Lagrangian projectors, ||Theta^T J Theta - J|| for frames
    lagrangian: float = 1e-10
    # relative floor on Sylvester / Lyapunov spectral gaps and on the
    # recursive four-term solver's 1-norm separation 1/||op^-1||_1
    spectral_gap: float = 1e-8
    # condition-number ceiling for dense matrix-equation operators
    condition_limit: float = 1e12
    # Newton stop: gradient norm relative to ``CostFunction.scale``
    grad_tol: float = 1e-11
    # Newton stop: step norm, an angle in radians (no data scale)
    step_tol: float = 1e-15
    # recursive four-term solver: a sweep whose update, relative to the
    # iterate, falls to recursive_tol ends the solve; after
    # recursive_max_sweeps sweeps it raises NoConvergence
    recursive_tol: float = 1e-12
    recursive_max_sweeps: int = 100
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
