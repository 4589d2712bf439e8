"""Exception types shared across the package, and the JSON checks."""

import numbers


class ParameterError(ValueError):
    """A parameter combination is outside the valid range for an operation."""


class RegimeError(ValueError):
    """An operation was called outside the regime where it is defined
    (e.g. asking for a survival probability in the subcritical phase)."""


class AssumptionError(ValueError):
    """A moment or integrability assumption required by the operation fails
    (infinite second moment, divergent exponential tilt, ...)."""


def reject_unknown_keys(d: dict, allowed, what: str) -> None:
    """Raise ParameterError naming the first key of `d` outside `allowed`:
    a misspelled key would otherwise fall back to a default silently."""
    for key in d:
        if key not in allowed:
            raise ParameterError(f"unknown key {key!r} in {what}; allowed: {sorted(allowed)}")


def number(x, name: str) -> float:
    """x as a float.  A bool, a string or any other non-number raises
    ParameterError: JSON's true and "2" are not numbers."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ParameterError(f"{name} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:  # a JSON integer of hundreds of digits
        raise ParameterError(f"{name} is too large for a float") from None


def integer(x, name: str, low: int) -> int:
    """x as an int of at least `low`.  A bool, a fractional, infinite,
    non-numeric or too small x raises ParameterError; a fraction is never
    truncated."""
    if (isinstance(x, bool) or not (isinstance(x, numbers.Integral) or isinstance(x, float) and x.is_integer())
            or x < low):
        raise ParameterError(f"{name} must be an integer >= {low}, got {x!r}")
    return int(x)
