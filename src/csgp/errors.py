"""Exception hierarchy shared by all csgp modules.

The CLI maps these onto process exit codes: ConfigError (and its
subclasses) and InvalidStructureError exit 2, ResourceLimitError exits 3,
InfeasibleError exits 4.
"""

import numbers


class CsgError(Exception):
    """Base class for all errors raised by csgp."""


class ConfigError(CsgError):
    """Invalid argument, parameter, range, or dimension."""


class ParseError(ConfigError):
    """Malformed input file; message carries line context."""


class SchemaError(ConfigError):
    """Structurally valid file whose content violates the documented schema."""


class InvalidStructureError(CsgError):
    """A coalition structure that is not a partition of the agent set."""


class ResourceLimitError(CsgError):
    """Problem size exceeds a documented solver or simulator guard."""


class InfeasibleError(CsgError):
    """No feasible coalition structure remains after exclusions."""


def check_int(value, name: str, low: int) -> int:
    """``value`` as an int: a bool, a value that is not an integer (a float, say)
    and one below ``low`` are ConfigErrors."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    return int(value)


def check_real(value, name: str) -> float:
    """``value`` as a float: a bool and a value that is not a real number are ConfigErrors."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)
