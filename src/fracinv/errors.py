"""Exception types shared across the package.

ParameterError marks a violated precondition, such as a coefficient that
`fem.FemOperator` rejects, and NumericalError (and its subclasses) a
computation that failed. The CLI maps ConfigError to exit code 2 and every
other FracinvError to exit code 3, and a failed table cell records the
error's name; any other exception is a plain bug.
"""


class FracinvError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(FracinvError, ValueError):
    """An argument violates a documented precondition (bad alpha, rho, ...)."""


class DomainError(FracinvError, ValueError):
    """Evaluation requested outside the supported region."""


class ShapeError(FracinvError, ValueError):
    """Mesh / field size mismatch."""


class NumericalError(FracinvError, RuntimeError):
    """A numerical computation failed (divergence, singular system, ...)."""


class DegenerateReferenceError(NumericalError):
    """All reference coefficients in the requested mode window are below threshold."""


class InconsistentDataError(NumericalError):
    """Data incompatible with the assumed decay structure (e.g. alpha=1-like degeneracy).

    Carries the estimated decay level so callers can inspect how degenerate
    the ratio sequence was.
    """

    def __init__(self, message, lambda_hat=None):
        super().__init__(message)
        self.lambda_hat = lambda_hat


class AdmissibilityError(NumericalError):
    """An iterate left the admissible set by more than the clamping tolerance."""


class ConfigError(FracinvError, ValueError):
    """Bad experiment configuration; carries file/line diagnostics when known."""

    def __init__(self, message, source=None, line=None):
        loc = ""
        if source is not None:
            loc = f" [{source}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + loc)
        self.source = source
        self.line = line
