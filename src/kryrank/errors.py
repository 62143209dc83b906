"""Exception types shared across the package."""


class KryrankError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(KryrankError):
    """Operands have incompatible shapes."""


class SingularOperator(KryrankError):
    """A factorization pivot fell below the singularity guard."""


class SpectralOverlap(KryrankError):
    """Sylvester operands have near-overlapping spectra; the solve is unreliable."""


class ConvergenceFailure(KryrankError):
    """An iterative kernel exhausted its internal iteration budget."""


class BasisSaturated(KryrankError):
    """Subspace growth produced no new directions; the span is invariant."""


class MaxIterationsExceeded(KryrankError):
    """An adaptive loop hit its iteration cap before meeting tolerance."""

    def __init__(self, message, best=None, history=None):
        super().__init__(message)
        self.best = best
        self.history = list(history) if history is not None else []


class NewtonDivergence(KryrankError):
    """Newton iteration failed to converge."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class NonPositiveDiffusion(KryrankError):
    """A diffusion coefficient lost positivity; the state is unphysical."""


class ConfigError(KryrankError):
    """An experiment configuration failed validation."""

    def __init__(self, message, field=None):
        super().__init__(message if field is None else "%s: %s" % (field, message))
        self.field = field
