"""Exception taxonomy shared across the package, and the number predicates its checks use."""

import math
from numbers import Integral, Real


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


def is_real_array(array):
    """An ndarray of bools, integers or real floats: not complex, strings or objects."""
    return array.dtype.kind in "biuf"


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


class CheckpointMagicError(CheckpointError):
    """File does not start with the checkpoint magic."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint format version is not supported."""


class CheckpointTruncatedError(CheckpointError):
    """File ended before the declared payload was read."""


class CheckpointFormatError(CheckpointError):
    """The header or a tensor name does not decode, or the header lacks a field."""


class CheckpointMismatchError(CheckpointError):
    """Checkpoint entries do not match the model they are restored into."""
