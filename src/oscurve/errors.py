"""Exception types shared across the package."""


class OscurveError(Exception):
    """Base class for all package errors."""


class ParseError(OscurveError):
    """Raised on malformed polynomial or ideal text; carries the offset."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class RingMismatchError(OscurveError):
    """Operands live in different polynomial rings."""


class ExtensionMismatchError(OscurveError):
    """Quadratic-extension elements with different discriminant tags."""


class ExtensionUnsupportedError(OscurveError):
    """A computation would leave the base field or a single quadratic extension."""


class NonReducedCurveError(OscurveError):
    """The point lies on a multiple component of the curve; classification is refused."""


class InvariantViolation(AssertionError):
    """An internal self-check failed: a bug, never a refusal of the input.

    Deliberately not an `OscurveError`, which callers treat as a refusal."""


class DegenerateInputError(OscurveError):
    """Input is valid syntax but mathematically unusable (singular matrix,
    zero polynomial where nonzero is required, center meeting the scheme, ...)."""
