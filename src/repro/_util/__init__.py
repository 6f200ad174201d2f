"""Internal utilities: errors, RNG plumbing, validation helpers.

Everything here is private to the library (the leading underscore is the
convention); public re-exports live in :mod:`repro`.
"""

from .errors import (
    AmnesiaError,
    ColdStoreError,
    CompressionError,
    ConfigError,
    IndexError_,
    InsufficientVictimsError,
    LifecycleError,
    QueryError,
    ReproError,
    SchemaError,
    StorageError,
    UnknownColumnError,
)
from .rng import DEFAULT_SEED, derive_seed, make_rng, spawn
from .validation import (
    as_int_array,
    check_fraction,
    check_in,
    check_non_negative_float,
    check_non_negative_int,
    check_positive_float,
    check_positive_int,
)

__all__ = [
    "AmnesiaError",
    "ColdStoreError",
    "CompressionError",
    "ConfigError",
    "IndexError_",
    "InsufficientVictimsError",
    "LifecycleError",
    "QueryError",
    "ReproError",
    "SchemaError",
    "StorageError",
    "UnknownColumnError",
    "DEFAULT_SEED",
    "derive_seed",
    "make_rng",
    "spawn",
    "as_int_array",
    "check_fraction",
    "check_in",
    "check_non_negative_float",
    "check_non_negative_int",
    "check_positive_float",
    "check_positive_int",
]
