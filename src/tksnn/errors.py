"""Exception hierarchy shared across the library, and the number checks of its configs."""

import math
from numbers import Integral, Real


class TksnnError(Exception):
    """Base class for all library errors."""


class DimensionError(TksnnError):
    """Operand shapes are incompatible."""


class ParameterError(TksnnError):
    """A hyperparameter or argument is outside its valid range."""


class ContractError(TksnnError):
    """A caller violated an API contract (wrong state, wrong call order)."""


class TapeError(TksnnError):
    """Gradient tape misuse: re-running backward, or missing provenance."""


class DataError(TksnnError):
    """Dataset contents are invalid (bad labels, out-of-bounds events)."""


class FormatError(TksnnError):
    """A file does not conform to its binary/text format."""


class ConfigError(TksnnError):
    """A run configuration is invalid or references unknown keys."""


class TrainingAbort(TksnnError):
    """Training stopped on a non-finite loss."""


def check_int(name: str, value, minimum: int | None = None, error=ConfigError) -> None:
    """Raise `error` unless value is an integer (a numpy one too, a bool not) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")


def check_float(name: str, value, error=ConfigError) -> None:
    """Raise `error` unless value is a finite real number (an integer too, a bool not)."""
    try:
        finite = not isinstance(value, bool) and isinstance(value, Real) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        raise error(f"{name} must be a finite number, got {value!r}")
