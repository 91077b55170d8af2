"""Exception types shared across the package, and the argument rules that raise them.

The CLI maps these onto exit codes: ValidationError -> 2 (bad arguments or
configuration), DataError -> 3 (malformed or unusable input data),
ConvergenceError -> 4 (numerical failure).

Counts, scales, ranks, tau grids and seeds are integers: an integral float
such as 2.0, a bool or a string is refused, never truncated.  The API and the
file readers share these rules.
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
    """`values`, an array of integer dtype, as a nonempty, strictly ascending
    int64 vector of integers >= 1."""
    taus = np.asarray(values)
    if taus.ndim != 1 or not taus.size or taus.dtype.kind not in "iu":
        raise ValidationError(f"{name} must be a nonempty vector of integers, got {values!r}")
    grid = taus.astype(np.int64)  # a uint64 beyond the int64 range changes here
    if np.any(grid != taus) or np.any(grid < 1) or np.any(np.diff(grid) <= 0):
        raise ValidationError(f"{name} must be strictly ascending integers >= 1, got {values!r}")
    return grid


def _alpha(value) -> float:
    """The memory decay as a float in [0, 1)."""
    alpha = float(value)
    if not 0.0 <= alpha < 1.0:
        raise ValidationError("alpha must satisfy 0 <= alpha < 1")
    return alpha


def _positive(value, name: str) -> float:
    """`value` as a finite positive float."""
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ValidationError(f"{name} must be finite and positive")
    return value
