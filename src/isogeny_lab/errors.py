"""Shared exception types."""


class IsogenyLabError(Exception):
    """Base class for all library errors."""


class FieldMismatchError(IsogenyLabError, ValueError):
    """Operands belong to different fields or curves."""


class CapabilityError(IsogenyLabError, RuntimeError):
    """A configured cap (enumeration size, closure size, ...) was exceeded.

    The message always names the cap so callers can raise it deliberately.
    """


class ClosureOverflowError(CapabilityError):
    """Group closure exceeded the requested cap."""


class NotSemisimpleError(IsogenyLabError):
    """No invariant complement exists; the module is not semisimple."""


class NotPointedError(IsogenyLabError, ValueError):
    """A hyperplane's quotient action is not trivial."""


class TheoremViolationError(IsogenyLabError):
    """A postcondition that the verified theorems guarantee has failed.

    This firing is the headline regression signal; it should never happen
    on correct code.
    """


class InternalError(IsogenyLabError, RuntimeError):
    """An internal consistency check failed (indicates a bug, not bad input)."""
