"""Small argument-validation helpers.

These raise :class:`~repro._util.errors.ConfigError` with uniform
messages.  Using helpers instead of inline ``if`` chains keeps the
constructors of configuration objects short and the error text
consistent across the library.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TypeVar

import numpy as np

from .errors import ConfigError, QueryError

__all__ = [
    "check_positive_int",
    "check_non_negative_int",
    "check_fraction",
    "check_in",
    "check_positive_float",
    "check_non_negative_float",
    "as_int_array",
    "checked_int64",
]

T = TypeVar("T")


def check_positive_int(value: int, name: str) -> int:
    """Return ``value`` if it is an integer >= 1, else raise ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value}")
    return int(value)


def check_non_negative_int(value: int, name: str) -> int:
    """Return ``value`` if it is an integer >= 0, else raise ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ConfigError(f"{name} must be >= 0, got {value}")
    return int(value)


def check_fraction(value: float, name: str, *, inclusive_zero: bool = False) -> float:
    """Return ``value`` if it lies in ``(0, 1]`` (or ``[0, 1]``)."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    low_ok = value >= 0.0 if inclusive_zero else value > 0.0
    if not (low_ok and value <= 1.0):
        bound = "[0, 1]" if inclusive_zero else "(0, 1]"
        raise ConfigError(f"{name} must be in {bound}, got {value}")
    return value


def check_positive_float(value: float, name: str) -> float:
    """Return ``value`` if it is a finite number > 0."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not np.isfinite(value) or value <= 0.0:
        raise ConfigError(f"{name} must be a finite number > 0, got {value}")
    return value


def check_non_negative_float(value: float, name: str) -> float:
    """Return ``value`` if it is a finite number >= 0."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not np.isfinite(value) or value < 0.0:
        raise ConfigError(f"{name} must be a finite number >= 0, got {value}")
    return value


def check_in(value: T, options: Sequence[T], name: str) -> T:
    """Return ``value`` if it is one of ``options``."""
    if value not in options:
        rendered = ", ".join(repr(o) for o in options)
        raise ConfigError(f"{name} must be one of {rendered}, got {value!r}")
    return value


def as_int_array(values, name: str) -> np.ndarray:
    """Coerce ``values`` to a 1-D ``int64`` array, validating shape."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ConfigError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        if not np.issubdtype(arr.dtype, np.floating):
            raise ConfigError(f"{name} must be numeric, got dtype {arr.dtype}")
        if not np.all(arr == np.floor(arr)):
            raise ConfigError(f"{name} must contain integers only")
    return arr.astype(np.int64, copy=False)


def checked_int64(values, name: str) -> np.ndarray:
    """Coerce ``values`` to a 1-D ``int64`` array, refusing lossy casts.

    The insert-path twin of :func:`as_int_array`, raising
    :class:`~repro._util.errors.QueryError` (insert is a query-surface
    operation, not configuration).  A plain ``np.asarray(values,
    dtype=np.int64)`` silently truncates ``2.7`` to ``2``, folds NaN
    and infinities into sentinel integers, and wraps out-of-range
    unsigned values — all of which corrupt data without a diagnostic.
    This cast accepts exactly the inputs that survive a round trip:

    >>> checked_int64([1, 2, 3], "v").tolist()
    [1, 2, 3]
    >>> checked_int64(np.array([2.0, 4.0]), "v").tolist()
    [2, 4]
    >>> checked_int64([2.7], "v")
    Traceback (most recent call last):
        ...
    repro._util.errors.QueryError: v cannot be cast to int64 without loss (first offender: 2.7)
    """
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting such as [[1, 2], [3]]
        raise QueryError(f"{name} must be one-dimensional") from None
    if arr.ndim != 1:
        raise QueryError(
            f"{name} must be one-dimensional, got shape {arr.shape}"
        )
    if arr.dtype == np.int64:
        return arr
    kind = arr.dtype.kind
    if kind not in "iuf" and not (kind == "b" and arr.dtype == np.bool_):
        raise QueryError(f"{name} must be numeric, got dtype {arr.dtype}")
    if arr.size == 0:
        return arr.astype(np.int64)
    if kind == "u":
        # Round-tripping cannot catch unsigned wraparound (2**64 - 1
        # casts to -1 and back to 2**64 - 1), so bound-check instead.
        if int(arr.max()) > np.iinfo(np.int64).max:
            raise QueryError(
                f"{name} cannot be cast to int64 without loss "
                f"(first offender: {int(arr.max())})"
            )
        return arr.astype(np.int64)
    if kind == "f" and not np.all(np.isfinite(arr)):
        bad = arr[~np.isfinite(arr)][0].item()
        raise QueryError(
            f"{name} must be finite integers, got {bad!r}"
        )
    with np.errstate(invalid="ignore", over="ignore"):
        cast = arr.astype(np.int64)
        lossy = cast.astype(arr.dtype, copy=False) != arr
    if lossy.any():
        raise QueryError(
            f"{name} cannot be cast to int64 without loss "
            f"(first offender: {arr[lossy][0].item()!r})"
        )
    return cast
