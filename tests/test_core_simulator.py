"""Tests for repro.core.simulator: the paper's experimental loop."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import AmnesiaSimulator, SimulationConfig
from repro._util.errors import ConfigError
from repro.amnesia import (
    AreaAmnesia,
    FifoAmnesia,
    PrivacyRetentionWrapper,
    RotAmnesia,
    UniformAmnesia,
)
from repro.datagen import SerialDistribution, UniformDistribution


def make_sim(policy=None, **config_kwargs):
    defaults = {"dbsize": 200, "epochs": 3, "queries_per_epoch": 20}
    defaults.update(config_kwargs)
    return AmnesiaSimulator(
        SimulationConfig(**defaults),
        UniformDistribution(1000),
        policy or UniformAmnesia(),
    )


class TestLoop:
    def test_initial_load(self):
        sim = make_sim()
        report = sim.load_initial()
        assert report.epoch == 0
        assert report.active_rows == 200
        assert report.precision is None
        assert sim.current_epoch == 0

    def test_double_load_rejected(self):
        sim = make_sim()
        sim.load_initial()
        with pytest.raises(ConfigError):
            sim.load_initial()

    def test_step_before_load_rejected(self):
        with pytest.raises(ConfigError):
            make_sim().step()

    def test_budget_invariant_every_epoch(self):
        sim = make_sim()
        report = sim.run()
        for epoch_report in report.epochs:
            assert epoch_report.active_rows == 200

    def test_epoch_accounting(self):
        sim = make_sim()
        report = sim.run()
        assert [r.epoch for r in report.epochs] == [0, 1, 2, 3]
        for r in report.epochs[1:]:
            assert r.inserted == 40  # 200 * 0.2
            assert r.forgotten == 40
            assert r.precision is not None
            assert 0.0 <= r.precision.error_margin <= 1.0

    def test_total_rows_grow(self):
        sim = make_sim()
        sim.run()
        assert sim.table.total_rows == 200 + 3 * 40

    def test_run_is_idempotent_continuation(self):
        sim = make_sim()
        sim.load_initial()
        sim.step()
        report = sim.run()  # continues from epoch 1
        assert len(report.epochs) == 4

    def test_map_snapshots(self):
        sim = make_sim()
        sim.run()
        assert sim.map.epochs == [0, 1, 2, 3]
        final = sim.map.final_row()
        assert set(final) == {0, 1, 2, 3}
        sizes = {0: 200, 1: 40, 2: 40, 3: 40}
        total_active = sum(final[e] * sizes[e] for e in final)
        assert round(total_active) == 200


class TestDeterminism:
    def test_same_seed_same_results(self):
        a = make_sim(seed=99).run()
        b = make_sim(seed=99).run()
        assert a.precision_series() == b.precision_series()
        assert [r.active_rows for r in a.epochs] == [
            r.active_rows for r in b.epochs
        ]

    def test_different_seed_different_results(self):
        a = make_sim(seed=1).run()
        b = make_sim(seed=2).run()
        assert a.precision_series() != b.precision_series()

    def test_policy_change_does_not_perturb_data(self):
        a = AmnesiaSimulator(
            SimulationConfig(dbsize=100, epochs=2, queries_per_epoch=0, seed=5),
            SerialDistribution(),
            FifoAmnesia(),
        )
        b = AmnesiaSimulator(
            SimulationConfig(dbsize=100, epochs=2, queries_per_epoch=0, seed=5),
            SerialDistribution(),
            UniformAmnesia(),
        )
        a.run()
        b.run()
        assert np.array_equal(a.table.values("a"), b.table.values("a"))


class TestConfigurationVariants:
    def test_no_queries_mode(self):
        sim = make_sim(queries_per_epoch=0)
        report = sim.run()
        assert all(r.precision is None for r in report.epochs)

    def test_divergence_disabled(self):
        sim = make_sim(histogram_bins=0)
        report = sim.run()
        assert all(r.divergence_js is None for r in report.epochs)

    def test_divergence_enabled(self):
        sim = make_sim()
        report = sim.run()
        assert all(
            r.divergence_js is not None and r.divergence_js >= 0.0
            for r in report.epochs
        )

    def test_custom_workload(self):
        from repro.query import AggregateQueryGenerator

        sim = AmnesiaSimulator(
            SimulationConfig(dbsize=100, epochs=2, queries_per_epoch=5),
            UniformDistribution(100),
            UniformAmnesia(),
            workload=AggregateQueryGenerator("a", rng=3),
        )
        report = sim.run()
        last = report.epochs[-1].precision
        assert last.n_aggregate == 5
        assert last.aggregate_mean_precision is not None

    def test_disposition_attached(self):
        from repro.lifecycle import SummaryDisposition

        disposition = SummaryDisposition()
        sim = AmnesiaSimulator(
            SimulationConfig(dbsize=100, epochs=2, queries_per_epoch=0),
            UniformDistribution(100),
            UniformAmnesia(),
            disposition=disposition,
        )
        sim.run()
        assert disposition.store.tuple_count == sim.table.forgotten_count


class TestPrivacyOvershoot:
    def test_overshoot_dips_below_budget_then_recovers(self):
        policy = PrivacyRetentionWrapper(UniformAmnesia(), max_age_epochs=2)
        sim = AmnesiaSimulator(
            SimulationConfig(dbsize=100, epochs=4, queries_per_epoch=0),
            UniformDistribution(100),
            policy,
        )
        report = sim.run()
        actives = [r.active_rows for r in report.epochs]
        # The epoch-2 purge wipes the whole initial cohort: a visible dip.
        assert min(actives) < 100
        # And never above budget.
        assert max(actives) <= 100

    def test_no_tuple_outlives_the_limit(self):
        policy = PrivacyRetentionWrapper(UniformAmnesia(), max_age_epochs=2)
        sim = AmnesiaSimulator(
            SimulationConfig(dbsize=100, epochs=5, queries_per_epoch=0),
            UniformDistribution(100),
            policy,
        )
        sim.load_initial()
        while sim.current_epoch < 5:
            sim.step()
            active = sim.table.active_positions()
            ages = sim.current_epoch - sim.table.insert_epochs()[active]
            assert ages.max() < 2


def _golden_digest(policy, **config_kwargs) -> str:
    """SHA-1 over every epoch report plus the final table state."""
    config = SimulationConfig(
        dbsize=300, epochs=6, queries_per_epoch=15, seed=11, **config_kwargs
    )
    sim = AmnesiaSimulator(config, UniformDistribution(5000), policy)
    digest = hashlib.sha1()
    for r in sim.run().epochs:
        line = (r.epoch, r.active_rows, r.inserted, r.forgotten, r.precision)
        digest.update(repr(line).encode())
    digest.update(sim.table.active_mask().tobytes())
    digest.update(sim.table.access_counts().tobytes())
    return digest.hexdigest()


GOLDEN_POLICIES = {
    "fifo": FifoAmnesia,
    "uniform": UniformAmnesia,
    "rot": RotAmnesia,
    "area": AreaAmnesia,
    "privacy": lambda: PrivacyRetentionWrapper(
        UniformAmnesia(), max_age_epochs=3
    ),
}

GOLDEN_PLANS = {
    "auto": {"plan": "auto"},
    "index": {"plan": "index"},
    "cost-hist-compress": {"plan": "cost", "stats": "hist", "compress": "on"},
}

#: Captured on the loop before it drove ``AmnesiaDatabase``.  One digest
#: per policy: every plan mode must reproduce it (the planner
#: equivalence invariant), so a plan-specific drift fails here too.
GOLDEN = {
    "area": "b48c890952b925c4225e348272acb9ea029c5dfd",
    "fifo": "8de08e92bd134ef744ef10d506a7cd8c8954ed4c",
    "privacy": "7592e71f5bb0308ebdfa052ae1a4b97229e579b0",
    "rot": "91737799525eeeaecf601f6f12c5544c41a5d3f6",
    "uniform": "486e9256ad0af9842c443022490ac159e778231d",
}


class TestGolden:
    """Pin the simulator's results: data, query and victim streams.

    Any change to a random stream, the order of the loop's phases or
    the forgetting step shows up here.
    """

    @pytest.mark.parametrize("plan", sorted(GOLDEN_PLANS))
    @pytest.mark.parametrize("policy", sorted(GOLDEN_POLICIES))
    def test_digest(self, policy, plan):
        got = _golden_digest(GOLDEN_POLICIES[policy](), **GOLDEN_PLANS[plan])
        assert got == GOLDEN[policy]
