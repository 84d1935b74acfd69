"""Exception hierarchy shared across the package, and the check of a
config's fields that raises ConfigError.

The CLI maps these onto process exit codes: configuration problems exit 1,
data/IO problems exit 2, numeric failures exit 3.
"""

import math
import numbers
import types
import typing
from dataclasses import fields

import numpy as np


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


def fits_type(kind, value) -> bool:
    """Whether a field typed ``kind`` may hold ``value``: an integer is
    integral, a float real and finite as a float, neither a bool (numpy's
    too); a tuple type takes a tuple or list of its items."""
    if typing.get_origin(kind) is tuple:
        return isinstance(value, (tuple, list)) and all(
            fits_type(typing.get_args(kind)[0], v) for v in value)
    if isinstance(kind, types.UnionType):
        return any(fits_type(k, value) for k in typing.get_args(kind))
    if isinstance(value, (bool, np.bool_)):
        return kind is bool
    if kind is float:
        try:
            return isinstance(value, numbers.Real) and math.isfinite(value)
        except OverflowError:  # an integer past the largest float
            return False
    return isinstance(value, numbers.Integral if kind is int else kind)


def check_fields(config, least: dict, choices: dict, prefix: str = "") -> None:
    """ConfigError naming the first field of the dataclass ``config`` whose
    value does not fit its type, is not one of its ``choices`` or is below
    its ``least`` value (each entry of a tuple; None is unbounded)."""
    for f in fields(config):
        name, value = prefix + f.name, getattr(config, f.name)
        if not fits_type(f.type, value):
            kind = f.type.__name__ if isinstance(f.type, type) else str(f.type)
            raise ConfigError(f"{name} must be of type "
                              f"{kind.replace('float', 'finite float')}, got {value!r}")
        if f.name in choices and value not in choices[f.name]:
            raise ConfigError(f"{name} must be one of "
                              f"{', '.join(choices[f.name])}, got {value!r}")
        entries = value if isinstance(value, (tuple, list)) else (value,)
        if f.name in least and any(v is not None and v < least[f.name]
                                   for v in entries):
            raise ConfigError(f"{name} must be >= {least[f.name]}, got {value}")
