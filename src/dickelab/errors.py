"""Exception types shared across the package."""


class DickeLabError(Exception):
    """Base class for package-specific failures."""


class ConvergenceError(DickeLabError):
    """Raised when an eigensolve fails or a truncation is not converged.

    Carries the best result obtained so far in ``best`` (may be None) and a
    free-form ``diagnostics`` dict.
    """

    def __init__(self, message, best=None, diagnostics=None):
        super().__init__(message)
        self.best = best
        self.diagnostics = diagnostics or {}


class ProjectionAnnihilationError(DickeLabError):
    """The parity projection of the requested state vanishes identically."""


class TruncationError(DickeLabError):
    """A truncated representation lost more norm than the contract allows."""
