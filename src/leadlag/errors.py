"""Exception types shared across the package, and the argument rules that raise them.

The CLI maps these onto exit codes: ValidationError -> 2 (bad arguments or
configuration), DataError -> 3 (malformed or unusable input data),
ConvergenceError -> 4 (numerical failure).

Counts, scales, ranks, tau grids and seeds are integers: an integral float
such as 2.0, a bool or a string is refused, never truncated.  Real parameters
refuse a bool or a string too, also as one entry of a vector, never
converting them.  The API and the file readers share these rules.
"""

import math
import numbers

import numpy as np


class ValidationError(ValueError):
    """An argument or configuration violates a documented invariant."""


class DataError(ValueError):
    """Input data is malformed, inconsistent, or numerically unusable."""


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to converge."""


def _integer(value, name: str, minimum: int = 1, maximum: float = math.inf) -> int:
    """`value` as a Python int in [minimum, maximum]; numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if not minimum <= value <= maximum:
        raise ValidationError(f"{name} must lie in [{minimum}, {maximum}], got {value!r}")
    return int(value)


def _tau_grid(values, name: str) -> np.ndarray:
    """`values`, an array of integer dtype with no bool entry, as a nonempty,
    strictly ascending int64 vector of integers >= 1."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" or _holds_non_number(values):
        raise ValidationError(f"{name} must be integers, got {values!r}")
    grid = arr.astype(np.int64)  # a uint64 beyond the int64 range changes here
    if np.any(grid != arr):
        raise ValidationError(f"{name} must lie in the int64 range, got {values!r}")
    if grid.ndim != 1 or not grid.size:
        raise ValidationError(f"{name} must be a nonempty vector of integers, got {values!r}")
    if np.any(grid < 1) or np.any(np.diff(grid) <= 0):
        raise ValidationError(f"{name} must be strictly ascending integers >= 1, got {values!r}")
    return grid


_NOT_REAL = (bool, np.bool_, str)


def _holds_non_number(values) -> bool:
    # a dtype hides a bool: np.asarray([0.3, True]) is float64, [True, 2] int64
    return any(isinstance(v, _NOT_REAL) for v in np.asarray(values, dtype=object).flat)


def _real(value, name: str) -> float:
    """`value` as a float; a bool or a string is refused, never converted."""
    if isinstance(value, _NOT_REAL):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return float(value)


def _reals(values, name: str) -> np.ndarray:
    """`values`, a number or an array-like of numbers, as a float64 array; a
    bool or a string anywhere in it is refused, never converted."""
    if _holds_non_number(values):
        raise ValidationError(f"{name} must be numbers, got {values!r}")
    return np.asarray(values, dtype=np.float64)


def _alpha(value) -> float:
    """The memory decay as a float in [0, 1)."""
    alpha = _real(value, "alpha")
    if not 0.0 <= alpha < 1.0:
        raise ValidationError("alpha must satisfy 0 <= alpha < 1")
    return alpha


def _positive(value, name: str, allow_zero: bool = False) -> float:
    """`value` as a finite float, positive (or zero, with allow_zero)."""
    value = _real(value, name)
    if not (0.0 <= value < math.inf and (allow_zero or value > 0.0)):
        raise ValidationError(f"{name} must be finite and {'>= 0' if allow_zero else 'positive'}")
    return value
