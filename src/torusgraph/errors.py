"""Exception types shared across the package, and the JSON key check."""


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
