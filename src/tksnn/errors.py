"""Exception hierarchy shared across the library, and its argument checks: counts,
finite numbers and label arrays."""

import math
from numbers import Integral, Real

import numpy as np


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


def check_labels(labels, n: int, classes: int) -> np.ndarray:
    """labels, a numpy array; DataError unless it holds n integer class ids in
    [0, classes), shape (n,) (a bool array is not integer, nor is a list)."""
    array = isinstance(labels, np.ndarray)
    ids = array and labels.shape == (n,) and labels.dtype.kind in "iu"
    if ids and (n == 0 or (labels.min() >= 0 and labels.max() < classes)):
        return labels
    got = f"{labels.dtype} labels of shape {labels.shape}" if array else f"a {type(labels).__name__}"
    if ids:  # n > 0 of them, some outside the classes
        got += f", values {labels.min()}..{labels.max()}"
    raise DataError(f"need {n} integer class ids in [0,{classes}), one per sample, got {got}")
