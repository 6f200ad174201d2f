"""Tests for repro._util: errors, RNG plumbing, validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util.errors import (
    AmnesiaError,
    ConfigError,
    InsufficientVictimsError,
    ReproError,
    SchemaError,
    StorageError,
    UnknownColumnError,
)
from repro._util.rng import DEFAULT_SEED, derive_seed, make_rng, spawn
from repro._util.validation import (
    as_int_array,
    check_fraction,
    check_in,
    check_non_negative_float,
    check_non_negative_int,
    check_positive_float,
    check_positive_int,
)


class TestErrors:
    def test_all_derive_from_repro_error(self):
        for exc in (ConfigError, StorageError, SchemaError, AmnesiaError):
            assert issubclass(exc, ReproError)

    def test_config_error_is_value_error(self):
        assert issubclass(ConfigError, ValueError)

    def test_unknown_column_lists_available(self):
        err = UnknownColumnError("x", ("a", "b"))
        assert "x" in str(err)
        assert "a" in str(err)
        assert isinstance(err, KeyError)

    def test_insufficient_victims_message(self):
        err = InsufficientVictimsError(10, 3)
        assert err.requested == 10
        assert err.active == 3
        assert "10" in str(err) and "3" in str(err)


class TestRng:
    def test_derive_seed_deterministic(self):
        assert derive_seed(1, "data") == derive_seed(1, "data")

    def test_derive_seed_name_sensitive(self):
        assert derive_seed(1, "data") != derive_seed(1, "queries")

    def test_derive_seed_seed_sensitive(self):
        assert derive_seed(1, "data") != derive_seed(2, "data")

    def test_spawn_reproducible(self):
        a, b = spawn(7, "x"), spawn(7, "x")
        assert a.random() == b.random()

    def test_spawn_independent_streams(self):
        a, b = spawn(7, "x"), spawn(7, "y")
        assert a.random() != b.random()

    def test_make_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_make_rng_default_seed(self):
        assert make_rng(None).random() == make_rng(DEFAULT_SEED).random()

    def test_make_rng_from_int(self):
        assert make_rng(5).random() == np.random.default_rng(5).random()


class TestValidation:
    def test_positive_int_accepts(self):
        assert check_positive_int(3, "n") == 3
        assert check_positive_int(np.int64(3), "n") == 3

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "3", True])
    def test_positive_int_rejects(self, bad):
        with pytest.raises(ConfigError):
            check_positive_int(bad, "n")

    def test_non_negative_int_accepts_zero(self):
        assert check_non_negative_int(0, "n") == 0

    def test_non_negative_int_rejects_negative(self):
        with pytest.raises(ConfigError):
            check_non_negative_int(-1, "n")

    def test_fraction_bounds(self):
        assert check_fraction(1.0, "f") == 1.0
        assert check_fraction(0.001, "f") == 0.001
        with pytest.raises(ConfigError):
            check_fraction(0.0, "f")
        with pytest.raises(ConfigError):
            check_fraction(1.01, "f")

    def test_fraction_inclusive_zero(self):
        assert check_fraction(0.0, "f", inclusive_zero=True) == 0.0

    def test_probability_is_inclusive(self):
        assert check_fraction(0.0, "p", inclusive_zero=True) == 0.0
        assert check_fraction(1.0, "p", inclusive_zero=True) == 1.0

    def test_positive_float(self):
        assert check_positive_float(0.5, "x") == 0.5
        with pytest.raises(ConfigError):
            check_positive_float(0.0, "x")
        with pytest.raises(ConfigError):
            check_positive_float(float("nan"), "x")
        with pytest.raises(ConfigError):
            check_positive_float(float("inf"), "x")

    def test_non_negative_float(self):
        assert check_non_negative_float(0.0, "x") == 0.0
        with pytest.raises(ConfigError):
            check_non_negative_float(-0.1, "x")

    def test_check_in(self):
        assert check_in("a", ("a", "b"), "opt") == "a"
        with pytest.raises(ConfigError):
            check_in("c", ("a", "b"), "opt")

    def test_as_int_array_from_list(self):
        out = as_int_array([1, 2, 3], "xs")
        assert out.dtype == np.int64
        assert out.tolist() == [1, 2, 3]

    def test_as_int_array_from_whole_floats(self):
        out = as_int_array(np.array([1.0, 2.0]), "xs")
        assert out.tolist() == [1, 2]

    def test_as_int_array_rejects_fractional(self):
        with pytest.raises(ConfigError):
            as_int_array(np.array([1.5]), "xs")

    def test_as_int_array_rejects_2d(self):
        with pytest.raises(ConfigError):
            as_int_array(np.zeros((2, 2)), "xs")

    def test_as_int_array_rejects_strings(self):
        with pytest.raises(ConfigError):
            as_int_array(np.array(["a"]), "xs")
