"""Tests for the histogram micro-model summaries."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util.errors import ConfigError, LifecycleError
from repro.summaries import HistogramSummaryStore


class TestBasics:
    def test_exact_on_aligned_ranges(self):
        store = HistogramSummaryStore(0, 99, bins=10)
        store.add(1, np.arange(100))
        assert store.approx_range_count(0, 50) == pytest.approx(50.0)
        assert store.approx_range_count(20, 30) == pytest.approx(10.0)

    def test_fractional_overlap(self):
        store = HistogramSummaryStore(0, 99, bins=10)
        store.add(1, np.arange(100))
        # Half of the first bin: ~5 of its 10 tuples.
        assert store.approx_range_count(0, 5) == pytest.approx(5.0)

    def test_accumulates_events(self):
        store = HistogramSummaryStore(0, 99, bins=10)
        store.add(1, np.arange(0, 50))
        store.add(2, np.arange(50, 100))
        assert store.event_count == 2
        assert store.tuple_count == 100
        assert store.approx_range_count(0, 100) == pytest.approx(100.0)

    def test_empty_range(self):
        store = HistogramSummaryStore(0, 99)
        store.add(1, np.arange(10))
        assert store.approx_range_count(50, 50) == 0.0
        assert store.approx_range_count(60, 50) == 0.0

    def test_estimation_error_bounded_by_bin_width(self, rng):
        store = HistogramSummaryStore(0, 999, bins=50)
        values = rng.integers(0, 1000, 5000)
        store.add(1, values)
        for low in (0, 137, 488):
            high = low + 200
            truth = int(((values >= low) & (values < high)).sum())
            estimate = store.approx_range_count(low, high)
            # Two edge bins of ~20 values each hold ~100 tuples apiece.
            assert abs(estimate - truth) < 250

    def test_footprint_independent_of_tuples(self):
        store = HistogramSummaryStore(0, 999, bins=32)
        store.add(1, np.arange(1000))
        assert store.nbytes == (32 + 2) * 8

    def test_validation(self):
        with pytest.raises(ConfigError):
            HistogramSummaryStore(10, 5)
        with pytest.raises(ConfigError):
            HistogramSummaryStore(0, 10, bins=0)
        store = HistogramSummaryStore(0, 10)
        with pytest.raises(LifecycleError):
            store.add(1, np.empty(0, dtype=np.int64))


class TestIntegrationWithForgetting:
    def test_quantified_information_loss(self, rng):
        """The use case: estimate MF for a range query after amnesia."""
        from repro.storage import Table

        table = Table("t", ["a"])
        values = rng.integers(0, 1000, 2000)
        table.insert_batch(0, {"a": values})
        store = HistogramSummaryStore(0, 999, bins=40)

        victims = rng.choice(2000, 1000, replace=False)
        store.add(1, table.values("a")[victims])
        table.forget(victims, epoch=1)

        low, high = 200, 400
        active_values = table.active_values("a")
        rf = int(((active_values >= low) & (active_values < high)).sum())
        true_mf = int(
            ((values >= low) & (values < high)).sum()
        ) - rf
        estimated_mf = store.approx_range_count(low, high)
        assert abs(estimated_mf - true_mf) < 0.25 * max(true_mf, 1)
