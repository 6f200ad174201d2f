"""Tests for the §4.4 extension policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util.errors import ConfigError
from repro.amnesia import (
    CostBasedAmnesia,
    DistributionAlignedAmnesia,
    PairPreservingAmnesia,
    StratifiedAmnesia,
)
from repro.stats import EquiWidthHistogram, js_divergence
from repro.storage import Table


class TestPairPreserving:
    def test_even_count_preserves_mean(self, rng):
        table = Table("t", ["a"])
        values = rng.integers(0, 1000, 500)
        table.insert_batch(0, {"a": values})
        policy = PairPreservingAmnesia("a")
        before = table.active_values("a").mean()
        victims = policy.select_victims(table, 100, 1, rng)
        table.forget(victims, epoch=1)
        after = table.active_values("a").mean()
        assert abs(after - before) < 2.0  # drift ≪ value scale (0..1000)

    def test_beats_random_forgetting_on_mean_drift(self):
        values = np.random.default_rng(0).integers(0, 10_000, 1000)

        def drift(policy, seed: int) -> float:
            table = Table("t", ["a"])
            table.insert_batch(0, {"a": values})
            before = table.active_values("a").mean()
            victims = policy.select_victims(
                table, 400, 1, np.random.default_rng(seed)
            )
            table.forget(victims, epoch=1)
            return abs(table.active_values("a").mean() - before)

        from repro.amnesia import UniformAmnesia

        # Pair selection is deterministic; average uniform over seeds.
        pair_drift = drift(PairPreservingAmnesia("a"), 1)
        uniform_drifts = [drift(UniformAmnesia(), s) for s in range(8)]
        assert pair_drift < np.mean(uniform_drifts)

    def test_odd_count(self, small_table, rng):
        victims = PairPreservingAmnesia("a").select_victims(
            small_table, 7, 1, rng
        )
        assert victims.size == 7
        assert np.unique(victims).size == 7

    def test_pairs_are_antipodal(self, rng):
        table = Table("t", ["a"])
        table.insert_batch(0, {"a": np.arange(100)})
        victims = PairPreservingAmnesia("a").select_victims(table, 10, 1, rng)
        values = np.sort(table.values("a")[victims])
        # Sum of each extreme pair ≈ 2 * mean = 99.
        pair_sums = values[:5] + values[::-1][:5]
        assert np.all(np.abs(pair_sums - 99) <= 1)

    def test_requires_column(self):
        with pytest.raises(ConfigError):
            PairPreservingAmnesia("")

    def test_zero(self, small_table, rng):
        assert PairPreservingAmnesia("a").select_victims(
            small_table, 0, 1, rng
        ).size == 0


class TestDistributionAligned:
    def test_alignment_beats_uniform(self, rng):
        from repro.amnesia import UniformAmnesia
        from repro.datagen import ZipfianDistribution

        values = ZipfianDistribution(domain=1000).sample(2000, rng)

        def run(policy):
            table = Table("t", ["a"])
            table.insert_batch(0, {"a": values})
            victims = policy.select_victims(
                table, 1000, 1, np.random.default_rng(3)
            )
            table.forget(victims, epoch=1)
            lo, hi = int(values.min()), int(values.max())
            oracle = EquiWidthHistogram.from_values(values, lo, hi, 32)
            active = EquiWidthHistogram.from_values(
                table.active_values("a"), lo, hi, 32
            )
            return js_divergence(active.counts, oracle.counts)

        aligned = run(DistributionAlignedAmnesia("a", bins=32))
        blind = run(UniformAmnesia())
        assert aligned < blind

    def test_exact_count(self, small_table, rng):
        victims = DistributionAlignedAmnesia("a", bins=8).select_victims(
            small_table, 33, 1, rng
        )
        assert victims.size == 33
        assert np.unique(victims).size == 33

    def test_validation(self):
        with pytest.raises(ConfigError):
            DistributionAlignedAmnesia("")
        with pytest.raises(ConfigError):
            DistributionAlignedAmnesia("a", bins=0)


class TestStratified:
    def test_levels_the_histogram(self, rng):
        table = Table("t", ["a"])
        # 900 values in [0,100), 100 in [100, 1000): heavily lopsided.
        values = np.concatenate(
            [rng.integers(0, 100, 900), rng.integers(100, 1000, 100)]
        )
        table.insert_batch(0, {"a": values})
        policy = StratifiedAmnesia("a", bins=10)
        victims = policy.select_victims(table, 500, 1, rng)
        table.forget(victims, epoch=1)
        remaining = table.active_values("a")
        dense = (remaining < 100).sum()
        sparse = (remaining >= 100).sum()
        # Water-filling strips the dense stratum, keeps the sparse one.
        assert sparse >= 95
        assert dense <= 410

    def test_exact_count(self, small_table, rng):
        victims = StratifiedAmnesia("a", bins=4).select_victims(
            small_table, 41, 1, rng
        )
        assert victims.size == 41
        assert np.unique(victims).size == 41


class TestCostBased:
    def test_default_cost_is_access_count(self, small_table, rng):
        small_table.record_access(np.repeat(np.arange(10), 100), epoch=1)
        policy = CostBasedAmnesia()
        hits = np.zeros(100)
        for _ in range(50):
            hits[policy.select_victims(small_table, 5, 1, rng)] += 1
        assert hits[:10].sum() > 0.9 * hits.sum()
