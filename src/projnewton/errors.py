"""Exception types raised across the library."""

from __future__ import annotations


class ProjNewtonError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(ProjNewtonError):
    """Operands have incompatible shapes."""


class SingularInput(ProjNewtonError):
    """A factorization met a (numerically) rank-deficient input."""


class ScaleOverflow(ProjNewtonError):
    """The data scale of an input (||A||_F, or ||A||_F^2) overflows."""


class ConvergenceFailure(ProjNewtonError):
    """LAPACK's symmetric eigensolver did not converge (``decomp.eigh_descending``)."""


class NotSymmetric(ProjNewtonError):
    """Matrix violates the symmetry tolerance."""


class NotAProjector(ProjNewtonError):
    """Matrix violates the projector invariants beyond tolerance."""


class BadRank(ProjNewtonError):
    """Requested subspace rank is outside (0, n)."""


class SpectralOverlap(ProjNewtonError):
    """The separation of a Sylvester or Lyapunov solve is at or below its
    floor (``solvers.separation_floor``).

    Carries the measured separation ``min_gap``.
    """

    def __init__(self, message, min_gap=None):
        super().__init__(message)
        self.min_gap = min_gap


class SingularOperator(ProjNewtonError):
    """A dense linear operator is singular or too ill-conditioned."""


class NoConvergence(ProjNewtonError):
    """A Newton step cannot be pushed forward (not finite, or its Z Z^T
    overflows), or it has stalled: a long step left the subspace in place."""


class InsufficientData(ProjNewtonError):
    """Not enough usable trace entries to estimate a convergence rate."""

