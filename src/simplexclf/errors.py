"""Exception types shared across the package.

Two broad categories matter to callers (and to the CLI exit-code mapping):
``UserInputError`` covers bad data, bad configuration and infeasible
requests, while ``ComputationError`` covers work that was validly requested
but could not be completed numerically.
"""


class SimplexClfError(Exception):
    """Base class for every error raised by this package."""


class UserInputError(SimplexClfError):
    """Invalid data, configuration or arguments (CLI exit code 2)."""


class ComputationError(SimplexClfError):
    """A validly specified computation failed (CLI exit code 1)."""


class NegativeComponentError(UserInputError, ValueError):
    """A composition (or raw vector to be closed) has a negative part."""


class AllZeroError(UserInputError, ValueError):
    """A vector of all zeros cannot be normalised to the simplex."""


class TooShortError(UserInputError, ValueError):
    """Compositions need at least two parts."""


class NonFiniteError(UserInputError, ValueError):
    """A part, or the sum of a row's finite parts, is NaN or infinite."""


class NotClosedError(UserInputError, ValueError):
    """Parts do not sum to one within the closure tolerance."""


class ZeroWithNonpositiveAlphaError(UserInputError, ValueError):
    """Zero parts are only representable for strictly positive alpha."""


class ZeroWithNonpositiveThetaError(UserInputError, ValueError):
    """Zero parts are only representable for strictly positive theta."""


class OutsideImageError(UserInputError, ValueError):
    """The vector is not in the image of the forward transformation."""


class DimensionMismatchError(UserInputError, ValueError):
    """Operands have incompatible numbers of parts or coordinates."""


class ParameterOutOfRangeError(UserInputError, ValueError):
    """A tuning parameter lies outside its admissible range."""


class GroupTooSmallError(UserInputError, ValueError):
    """Per-group moment estimation needs at least two observations."""


class TestTooSmallError(UserInputError, ValueError):
    """The requested test size cannot give every group a test member."""


class LengthMismatchError(UserInputError, ValueError):
    """Paired sequences have different lengths."""


class EmptyGridError(UserInputError, ValueError):
    """A grid search was requested over an empty parameter set."""


class MissingColumnError(UserInputError, ValueError):
    """A required column is absent from the input file."""


class InvalidSpecError(UserInputError, ValueError):
    """A generator or schema specification is internally inconsistent."""


class ParseError(UserInputError, ValueError):
    """A cell could not be parsed; carries its location.

    Parameters
    ----------
    message : str
        Human-readable description.
    line : int or None
        1-based line number in the source file (header is line 1).
    column : str or None
        Column name, when known.
    """

    def __init__(self, message, line=None, column=None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if column is not None:
            loc.append(f"column {column!r}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.line = line
        self.column = column


class IllConditionedError(ComputationError):
    """A regularised covariance is numerically singular or too ill
    conditioned to factorise.

    Carries the offending parameters, and the replicate of a stacked fit,
    so grid searches can record exactly which combination failed where.
    """

    def __init__(self, message, *, alpha=None, lam=None, gamma=None,
                 group=None, cond=None, replicate=None):
        super().__init__(message)
        self.alpha = alpha
        self.lam = lam
        self.gamma = gamma
        self.group = group
        self.cond = cond
        self.replicate = replicate


class IllConditionedAtError(ComputationError):
    """A cross-validated evaluation aborted because fitting failed.

    Names the method parameters and the replicate at which the failure
    occurred; wraps the underlying :class:`IllConditionedError`.
    """

    def __init__(self, message, *, method=None, replicate=None, cause=None):
        super().__init__(message)
        self.method = method
        self.replicate = replicate
        self.cause = cause


class AllCombinationsFailedError(ComputationError):
    """Every grid combination was skipped, so there is nothing to rank."""
