"""Tests for repro.stats: histograms, moments, divergences."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util.errors import ConfigError, QueryError, StorageError
from repro.stats import (
    EquiWidthHistogram,
    ExactMoments,
    TableHistogramStats,
    js_divergence,
    kl_divergence,
    normalize,
    traffic_weighted_quantiles,
)
from repro.storage import CohortZoneMap, Table


class TestEquiWidthHistogram:
    def test_add_and_counts(self):
        hist = EquiWidthHistogram(0, 9, bins=2)
        hist.add(np.array([0, 4, 5, 9]))
        assert hist.counts.tolist() == [2, 2]
        assert hist.total == 4

    def test_clamps_out_of_range(self):
        hist = EquiWidthHistogram(0, 9, bins=2)
        hist.add(np.array([-5, 100]))
        assert hist.counts.tolist() == [1, 1]

    def test_remove(self):
        hist = EquiWidthHistogram(0, 9, bins=2)
        hist.add(np.array([1, 8]))
        hist.remove(np.array([1]))
        assert hist.counts.tolist() == [0, 1]

    def test_remove_underflow_raises(self):
        hist = EquiWidthHistogram(0, 9, bins=2)
        hist.add(np.array([1]))
        with pytest.raises(ConfigError):
            hist.remove(np.array([1, 1]))

    def test_pmf_empty_is_uniform(self):
        hist = EquiWidthHistogram(0, 9, bins=4)
        assert hist.pmf().tolist() == [0.25] * 4

    def test_pmf_normalised(self):
        hist = EquiWidthHistogram(0, 9, bins=2)
        hist.add(np.array([0, 1, 9]))
        pmf = hist.pmf()
        assert abs(pmf.sum() - 1.0) < 1e-12
        assert pmf[0] == pytest.approx(2 / 3)

    def test_bin_edges(self):
        edges = EquiWidthHistogram(0, 9, bins=2).bin_edges()
        assert edges.tolist() == [0.0, 5.0, 10.0]

    def test_from_values_and_copy(self):
        hist = EquiWidthHistogram.from_values(np.arange(10), 0, 9, bins=5)
        clone = hist.copy()
        clone.add(np.array([0]))
        assert hist.total == 10 and clone.total == 11

    def test_reversed_range_rejected(self):
        with pytest.raises(ConfigError):
            EquiWidthHistogram(5, 4)

    def test_counts_view_readonly(self):
        hist = EquiWidthHistogram(0, 9, bins=2)
        with pytest.raises(ValueError):
            hist.counts[0] = 5

    def test_degenerate_single_value_range(self):
        hist = EquiWidthHistogram(5, 5, bins=3)
        hist.add(np.array([5, 5]))
        assert hist.total == 2


class TestHistogramContracts:
    """Direct contracts for the planner-facing histogram behaviours
    (previously exercised mostly through the summary layer)."""

    def test_equiwidth_add_remove_roundtrip(self, rng):
        """remove() is the exact inverse of add(): interleaved batches
        come back out leaving precisely the still-resident mass."""
        hist = EquiWidthHistogram(0, 999, bins=32)
        keep = rng.integers(0, 1000, 500)
        churn = [rng.integers(0, 1000, rng.integers(1, 80)) for _ in range(6)]
        hist.add(keep)
        for batch in churn:
            hist.add(batch)
        for batch in reversed(churn):
            hist.remove(batch)
        reference = EquiWidthHistogram.from_values(keep, 0, 999, bins=32)
        assert hist.counts.tolist() == reference.counts.tolist()
        assert hist.total == keep.size
        hist.remove(keep)
        assert hist.total == 0
        assert hist.counts.tolist() == [0] * 32
        np.testing.assert_allclose(hist.pmf(), np.full(32, 1 / 32))

    def test_equiwidth_remove_unknown_values_caught(self):
        hist = EquiWidthHistogram(0, 9, bins=10)
        hist.add(np.array([1, 1, 5]))
        with pytest.raises(ConfigError):
            hist.remove(np.array([7]))  # bin 7 never held a value

    def test_mass_interpolates_bins(self):
        hist = EquiWidthHistogram.from_values(
            np.repeat(np.arange(10), 10), 0, 9, bins=5
        )
        assert hist.mass(0, 10) == pytest.approx(100.0)
        assert hist.mass(0, 2) == pytest.approx(20.0)
        assert hist.mass(0, 1) == pytest.approx(10.0)  # half of bin 0
        assert hist.mass(4, 4) == 0.0
        assert hist.mass(50, 60) == 0.0  # beyond the domain


class TestTrafficWeightedMedian:
    """``traffic_weighted_quantiles`` at the single fraction 0.5."""

    def test_unit_weights_match_plain_median(self, rng):
        values = rng.integers(0, 1000, 501)
        got = traffic_weighted_quantiles(values, np.ones(values.size), [0.5])
        assert got == [int(np.median(values))]

    def test_heavy_weights_pull_the_cut(self):
        values = np.array([10, 20, 30, 40])
        weights = np.array([100.0, 1.0, 1.0, 1.0])
        assert traffic_weighted_quantiles(values, weights, [0.5]) == [10]

    def test_order_independent(self, rng):
        values = rng.integers(0, 100, 200)
        weights = rng.random(200)
        shuffle = rng.permutation(200)
        assert traffic_weighted_quantiles(values, weights, [0.5]) == (
            traffic_weighted_quantiles(values[shuffle], weights[shuffle], [0.5])
        )

    def test_degenerate_inputs(self):
        with pytest.raises(StorageError):
            traffic_weighted_quantiles(np.empty(0), np.empty(0), [0.5])
        with pytest.raises(StorageError):
            traffic_weighted_quantiles(np.array([1]), np.array([-1.0]), [0.5])
        # All-zero weights fall back to the unweighted middle value.
        assert traffic_weighted_quantiles(
            np.array([5, 7, 9]), np.zeros(3), [0.5]
        ) == [7]


class TestTableHistogramStats:
    def _table(self, values):
        table = Table("t", ["a"])
        table.insert_batch(0, {"a": np.asarray(values)})
        return table

    def test_estimates_are_exact_on_bin_boundaries(self):
        table = self._table(np.repeat(np.arange(8), 5))
        stats = TableHistogramStats(table, bins=8)
        assert stats.estimate("a", 0, 8) == (40.0, 0.0)
        assert stats.estimate("a", 0, 1) == (5.0, 0.0)

    def test_forget_moves_mass_across(self):
        table = self._table(np.repeat(np.arange(8), 5))
        stats = TableHistogramStats(table, bins=8)
        stats.estimate("a", 0, 1)  # force the initial build
        table.forget(np.arange(0, 10), epoch=1)  # values 0 and 1
        assert stats.estimate("a", 0, 2) == (0.0, 10.0)
        assert stats.estimate("a", 2, 8) == (30.0, 0.0)

    def test_incremental_matches_rebuilt(self, rng):
        """The live insert/forget stream lands exactly where a from-
        scratch rebuild would put it — the add/remove roundtrip under
        forgetting."""
        table = Table("t", ["a"])
        stats = TableHistogramStats(table, bins=16)
        # Pin the domain with the first batch and force the build, so
        # every later hook folds in incrementally (no lazy rebuilds).
        table.insert_batch(0, {"a": np.array([0, 499])})
        stats.histograms("a")
        for epoch in range(1, 7):
            table.insert_batch(epoch, {"a": rng.integers(0, 500, 60)})
            victims = np.flatnonzero(rng.random(table.total_rows) < 0.2)
            table.forget(victims, epoch=epoch)
        assert not stats._dirty  # genuinely incremental from here on
        live_active, live_forgotten = stats.histograms("a")
        values = table.values("a")
        mask = table.active_mask()
        assert live_active.total == int(mask.sum())
        assert live_forgotten.total == int((~mask).sum())
        rebuilt_active = EquiWidthHistogram.from_values(
            values[mask], live_active.lo, live_active.hi, bins=16
        )
        rebuilt_forgotten = EquiWidthHistogram.from_values(
            values[~mask], live_active.lo, live_active.hi, bins=16
        )
        assert live_active.counts.tolist() == rebuilt_active.counts.tolist()
        assert (
            live_forgotten.counts.tolist()
            == rebuilt_forgotten.counts.tolist()
        )

    def test_backfill_on_populated_table(self):
        """Late attachment (the zone-map contract): a table that
        already inserted and forgot rows yields exact statistics."""
        table = self._table(np.repeat(np.arange(8), 5))
        table.forget(np.arange(0, 5), epoch=1)
        stats = TableHistogramStats(table, bins=8)
        assert stats.estimate("a", 0, 1) == (0.0, 5.0)
        assert stats.estimate("a", 1, 8) == (35.0, 0.0)

    def test_domain_growth_rebins(self):
        table = self._table(np.arange(10))
        stats = TableHistogramStats(table, bins=10)
        assert stats.estimate("a", 0, 10) == (10.0, 0.0)
        table.insert_batch(1, {"a": np.arange(100, 110)})
        active, _ = stats.histograms("a")
        assert (active.lo, active.hi) == (0, 109)
        assert stats.estimate("a", 0, 200) == (20.0, 0.0)

    def test_unknown_column_rejected(self):
        table = self._table([1, 2, 3])
        stats = TableHistogramStats(table)
        assert stats.covers("a") and not stats.covers("b")
        with pytest.raises(StorageError):
            stats.estimate("b", 0, 1)
        with pytest.raises(StorageError):
            TableHistogramStats(table, columns=[])

    def test_qerror_histogram_beats_uniformity_on_zipf(self, rng):
        """The headline statistics contract: on a Zipf-skewed stream
        the histogram estimates carry a lower mean q-error than the
        zone map's per-cohort uniformity; on uniform data they are at
        least no worse."""

        def build(sample):
            table = Table("t", ["a"])
            for epoch in range(5):
                table.insert_batch(epoch, {"a": sample(400)})
            table.forget(
                np.flatnonzero(rng.random(table.total_rows) < 0.15), epoch=5
            )
            return table, CohortZoneMap(table)

        def qerror(est, actual):
            est, actual = max(est, 1.0), max(actual, 1.0)
            return max(est / actual, actual / est)

        def mean_qerror(table, zone_map, stats, probes):
            values = table.values("a")
            errors = []
            for low, high in probes:
                actual = int(((values >= low) & (values < high)).sum())
                estimate = zone_map.estimate("a", low, high, stats=stats)
                errors.append(qerror(estimate.est_rows, actual))
            return float(np.mean(errors))

        domain = 2000
        probes = [(low, low + 40) for low in range(0, domain, 100)]
        zipf_table, zipf_zm = build(
            lambda n: np.minimum((rng.zipf(1.4, n) - 1) * 8, domain - 1)
        )
        zipf_stats = TableHistogramStats(zipf_table, bins=64)
        assert mean_qerror(zipf_table, zipf_zm, zipf_stats, probes) < (
            mean_qerror(zipf_table, zipf_zm, None, probes)
        )
        flat_table, flat_zm = build(
            lambda n: rng.integers(0, domain, n)
        )
        flat_stats = TableHistogramStats(flat_table, bins=64)
        assert mean_qerror(flat_table, flat_zm, flat_stats, probes) <= (
            mean_qerror(flat_table, flat_zm, None, probes) * 1.05
        )


class TestExactMoments:
    def test_update_matches_python_ints(self, rng):
        values = rng.integers(-500, 500, 1000)
        ints = [int(v) for v in values]
        n, total = len(ints), sum(ints)
        m = ExactMoments.of(values)
        assert (m.count, m.total) == (n, total)
        assert (m.min, m.max) == (min(ints), max(ints))
        assert m.mean == total / n
        sumsq = sum(v * v for v in ints)
        assert m.variance == (n * sumsq - total * total) / (n * n)
        assert m.variance == pytest.approx(values.var())

    def test_batching_is_invisible(self, rng):
        values = rng.integers(0, 10**6, 1000)
        batched = ExactMoments()
        for start in range(0, values.size, 7):
            batched.update(values[start : start + 7])
        assert batched == ExactMoments.of(values)
        assert batched.variance == ExactMoments.of(values).variance

    def test_merge_equals_concatenation(self, rng):
        x, y = rng.integers(0, 100, 500), rng.integers(0, 100, 300) + 5
        a = ExactMoments.of(x)
        a.merge(ExactMoments.of(y))
        assert a == ExactMoments.of(np.concatenate([x, y]))
        assert a.count == 800

    def test_merge_empty_sides(self):
        a = ExactMoments()
        a.merge(ExactMoments.of(np.array([1, 2])))
        assert (a.count, a.min, a.max) == (2, 1, 2)
        a.merge(ExactMoments())
        assert (a.count, a.min, a.max) == (2, 1, 2)

    def test_int64_and_python_int_sums_agree(self):
        """Values whose squares overflow int64 sum as Python ints; the
        result is the same exact statistic the int64 path would give."""
        big = np.array([3 * 10**9, -(3 * 10**9), 2**62], dtype=np.int64)
        m = ExactMoments.of(big)
        ints = [int(v) for v in big]
        assert m.total == sum(ints)
        assert m._sumsq == sum(v * v for v in ints)
        small = ExactMoments.of(big[:2] // 10**9)
        assert (small.total, small._sumsq) == (0, 18)

    def test_non_integer_input_rejected(self):
        """0.4 used to truncate silently to a total of 0."""
        m = ExactMoments()
        with pytest.raises(QueryError, match="integer"):
            m.update(np.array([0.4, 0.4]))
        with pytest.raises(QueryError, match="integer"):
            ExactMoments.of(np.array([True, False]))
        assert m == ExactMoments()

    def test_empty_input_of_any_dtype_is_noop(self):
        m = ExactMoments()
        for dtype in (np.float64, np.int64, bool, object):
            m.update(np.empty(0, dtype=dtype))
        assert m == ExactMoments() and m.count == 0

    def test_variance_degenerate(self):
        m = ExactMoments()
        assert m.variance == 0.0
        m.update(np.array([5]))
        assert m.variance == 0.0

    def test_as_dict_empty_raises(self):
        with pytest.raises(ConfigError):
            ExactMoments().as_dict()


class TestDivergences:
    def test_normalize(self):
        assert normalize([2, 2]).tolist() == [0.5, 0.5]
        assert normalize([0, 0]).tolist() == [0.5, 0.5]
        with pytest.raises(ConfigError):
            normalize([-1, 1])

    def test_kl_zero_for_identical(self):
        p = np.array([0.3, 0.7])
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-9)

    def test_kl_positive_and_asymmetric(self):
        # Binary mirror pairs are symmetric by construction; use three
        # bins to witness the asymmetry.
        p, q = np.array([0.8, 0.15, 0.05]), np.array([0.1, 0.2, 0.7])
        assert kl_divergence(p, q) > 0
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p))

    def test_kl_finite_on_empty_bins(self):
        assert np.isfinite(kl_divergence([1, 1], [2, 0]))

    def test_js_symmetric_and_bounded(self):
        p, q = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        js = js_divergence(p, q)
        assert js == pytest.approx(js_divergence(q, p))
        assert js == pytest.approx(np.log(2), rel=1e-6)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ConfigError):
            kl_divergence([1, 2], [1, 2, 3])
