"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: configuration problems exit 1,
data/IO problems exit 2, numeric failures exit 3.
"""

import numbers
from dataclasses import fields


class DartError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(DartError):
    """Operand shapes are incompatible with an operation."""


class ContractError(DartError):
    """A documented precondition on an argument was violated."""


class ConfigError(DartError):
    """Invalid or inconsistent configuration."""


class DataFormatError(DartError):
    """A data file is malformed (bad magic, truncation, count mismatch)."""


class NumericError(DartError):
    """A computation produced a non-finite value."""


def check_integer_fields(config, prefix: str = "") -> None:
    """ConfigError naming the first field of the dataclass ``config`` typed
    ``int``, ``int | None`` or ``tuple[int, ...]`` whose value is not an
    integer, None where the type allows it, or a tuple (or list) of
    integers. 2.0 is not an integer; a numpy integer is."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == tuple[int, ...]:
            what = "a tuple of integers"
            ok = isinstance(value, (tuple, list)) and all(
                isinstance(v, numbers.Integral) for v in value)
        elif f.type in (int, int | None):
            what = "an integer"
            ok = (isinstance(value, numbers.Integral)
                  or value is None and f.type != int)
        else:
            continue
        if not ok:
            raise ConfigError(f"{prefix}{f.name} must be {what}, got {value!r}")
