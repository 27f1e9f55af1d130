"""Exception types shared across the package."""

from __future__ import annotations

import math
from collections.abc import Callable


class FilterDerivError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FilterDerivError):
    """Syntax error in an expression, with the byte offset of the bad token."""

    def __init__(self, offset: int, expected: str, found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(
            f"syntax error at offset {offset}: expected {expected}, found {found!r}"
        )


class UnboundVariableError(FilterDerivError):
    """Evaluation encountered a variable with no binding."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable {name!r}")


class DomainError(FilterDerivError):
    """A real-valued computation left its domain (division by zero, log of a
    non-positive number, overflow to infinity, ...).

    Any callable fed to the limit estimator signals undefined points by
    raising this; results are never NaN or infinite.
    """

    def __init__(self, message: str, *, subject: str | None = None,
                 argument: float | None = None):
        self.subject = subject
        self.argument = argument
        detail = message
        if subject is not None:
            detail += f" in {subject}"
        if argument is not None:
            detail += f" (argument {argument!r})"
        super().__init__(detail)


class NonSmoothPointError(FilterDerivError):
    """The symbolic oracle refuses a point where an abs/sign-style argument
    vanishes, because its derivative rules are only valid away from kinks."""


class BaseNotPuncturedError(FilterDerivError):
    """A derivative was requested along a chain whose elements may contain 0."""


def _real(value, error: Callable[..., Exception]) -> float:
    """value, a number from outside, as a finite float: the one rule for a
    real number at a public boundary. Text (str, bytes, bytearray) and what
    float() rejects by type are a TypeError; a number no finite double holds
    (a huge int, +-inf, any NaN, a Decimal's too) raises error(argument=value)."""
    if type(value) is float and math.isfinite(value):
        return value
    if isinstance(value, (str, bytes, bytearray)):
        raise TypeError(f"must be real number, not {type(value).__name__}")
    try:
        if math.isfinite(x := float(value)):
            return x
    except (OverflowError, ValueError):  # an int too large for a double, a signalling NaN
        pass
    raise error(argument=value)
