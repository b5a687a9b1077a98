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


class NotPositiveDefinite(ProjNewtonError):
    """Cholesky pivot was non-positive."""


class ConvergenceFailure(ProjNewtonError):
    """An iterative kernel exhausted its sweep budget."""


class NotSymmetric(ProjNewtonError):
    """Matrix violates the symmetry tolerance."""


class NotAProjector(ProjNewtonError):
    """Matrix violates the projector invariants beyond tolerance."""


class BadRank(ProjNewtonError):
    """Requested subspace rank is outside (0, n)."""


class SpectralOverlap(ProjNewtonError):
    """Sylvester/Lyapunov coefficient spectra are too close to solve.

    Carries a ``report`` attribute (a ``SpectralGapReport``) with the
    measured minimal gap.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SingularOperator(ProjNewtonError):
    """A dense linear operator is singular or too ill-conditioned."""


class NoConvergence(ProjNewtonError):
    """The recursive matrix-equation sweep did not settle.

    Carries the last relative update ``residual``.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class InsufficientData(ProjNewtonError):
    """Not enough usable trace entries to estimate a convergence rate."""


class InputNotSymmetric(ProjNewtonError):
    """CLI input matrix is not symmetric within the input tolerance."""


class InputNotHamiltonianSymmetric(ProjNewtonError):
    """CLI input matrix lacks the symmetric-Hamiltonian block structure."""
