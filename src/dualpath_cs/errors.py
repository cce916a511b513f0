"""Exception taxonomy shared across the package, the number predicates its checks use, and its array intake."""

import math
from numbers import Integral, Real

import numpy as np


def is_integer(value):
    """An integral number that is not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_finite_real(value):
    """A real number, not a bool, that converts to a finite float (so 10**400 does not)."""
    if not isinstance(value, Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


def as_real_array(x, error):
    """`np.asarray(x)` if it holds bools, integers or real floats; anything else, a ragged nesting
    or complex, string or object values, raises `error`, the caller's DualPathError subclass."""
    try:
        array = np.asarray(x)
    except (TypeError, ValueError) as err:  # ValueError: a ragged nesting
        raise error(f"expected a real-valued array (bools, integers or real numbers): {err}") from None
    if array.dtype.kind not in "biuf":
        raise error(f"expected a real-valued array (bools, integers or real numbers), got dtype {array.dtype}")
    return array


class DualPathError(Exception):
    """Base class for all package errors."""


class DimensionError(DualPathError):
    """Operand shapes are inconsistent with the operation."""


class GeometryError(DualPathError):
    """Spatial extents violate a geometric precondition (divisibility, output size)."""


class ConfigError(DualPathError):
    """A configuration value is outside its legal range."""


class ContractError(DualPathError):
    """An operation was called outside its contract (e.g. non-scalar loss)."""


class ResourceError(DualPathError):
    """A configured resource cap would be exceeded."""


class NumericsError(DualPathError):
    """A forward value or a backward gradient became non-finite."""


class IngestionError(DualPathError):
    """Input data cannot be ingested (too small, malformed image, ...)."""


class TrainingDivergenceError(DualPathError):
    """Loss became non-finite during training."""


class CheckpointError(DualPathError):
    """Base class for checkpoint failures; raised itself when the file cannot be read or written."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint format version is not supported."""


class CheckpointFormatError(CheckpointError):
    """The file is not a well-formed checkpoint: not a zip, cut short, corrupt, or a member or field is wrong."""


class CheckpointMismatchError(CheckpointError):
    """Checkpoint entries do not match the model they are restored into."""
