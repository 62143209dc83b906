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


class SolveFailure(KryrankError):
    """An iterative solve inside a step missed its tolerance.

    ``history`` holds the residual per iteration; the callers that know them
    add the step, the step-end time ``t``, ``lambda``, the grid size ``n``,
    the 0-based ``stage`` or ``species`` to ``where``.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []
        self.where = {}


class MaxIterationsExceeded(SolveFailure):
    """An adaptive loop stopped short of its tolerance: ``saturated`` when
    neither basis could grow, at its iteration cap otherwise."""

    def __init__(self, message, best=None, history=None, saturated=False):
        super().__init__(message, history)
        self.best = best
        self.saturated = saturated


class NewtonDivergence(SolveFailure):
    """Newton iteration failed to converge."""


class NonPositiveDiffusion(KryrankError):
    """A diffusion coefficient lost positivity; the state is unphysical."""


class ConfigError(KryrankError):
    """An experiment configuration failed validation."""

    def __init__(self, message, field=None):
        super().__init__(message if field is None else "%s: %s" % (field, message))
        self.field = field
