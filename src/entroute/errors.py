"""Exception types shared across the package.

The CLI maps these onto process exit codes: invalid parameters and bad
configs exit 2, topology generation failures exit 3, and internal
invariant breaches exit 4.  ``require_integer`` and ``require_finite`` are
the type checks that configs and generators run on numeric inputs before
any range check; each returns the value as an ``int`` or a ``float``.
"""

from __future__ import annotations

import math
import numbers


class InvalidParameterError(ValueError):
    """An argument or configuration value violates a documented precondition."""


class GenerationFailureError(RuntimeError):
    """Random topology generation exhausted its retry budget."""


class InvariantViolationError(RuntimeError):
    """An internal consistency guarantee was broken (e.g. double allocation)."""


def require_integer(name: str, value) -> int:
    """``value`` as an ``int`` (NumPy integers too); reject bools and floats like 10.0."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_finite(name: str, value) -> float:
    """``value`` as a ``float`` (NumPy floats, ints and Fractions too); reject bools, NaN and inf."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParameterError(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    return float(value)
