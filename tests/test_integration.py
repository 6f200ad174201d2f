"""Integration tests: the full stack working together.

These exercise multi-module paths end to end — simulator + policies +
dispositions + indexes + metrics — asserting the global invariants the
paper's methodology depends on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import AmnesiaDatabase, AmnesiaSimulator, SimulationConfig
from repro.amnesia import (
    FifoAmnesia,
    POLICY_NAMES,
    PrivacyRetentionWrapper,
    RotAmnesia,
    UniformAmnesia,
    make_policy,
)
from repro.coldstore import ColdStore
from repro.datagen import ZipfianDistribution, make_distribution
from repro.indexes import BlockRangeIndex, SortedIndex
from repro.lifecycle import (
    ColdStorageDisposition,
    DispositionExecutor,
    StopIndexingDisposition,
    SummaryDisposition,
)
from repro.query import QueryExecutor, RangePredicate, RangeQuery


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_every_policy_survives_a_full_run(policy_name):
    """All registered policies run the paper loop and hold the budget."""
    kwargs = (
        {"column": "a"} if policy_name in ("pair", "dist", "stratified") else {}
    )
    config = SimulationConfig(dbsize=150, epochs=4, queries_per_epoch=25)
    simulator = AmnesiaSimulator(
        config, make_distribution("zipfian"), make_policy(policy_name, **kwargs)
    )
    report = simulator.run()
    assert all(r.active_rows == 150 for r in report.epochs)
    assert all(
        0.0 <= r.precision.error_margin <= 1.0
        for r in report.epochs
        if r.precision is not None
    )


def test_indexes_stay_consistent_through_simulation():
    """Indexes subscribed to a simulated table always agree with scans."""
    config = SimulationConfig(dbsize=300, epochs=5, queries_per_epoch=10)
    simulator = AmnesiaSimulator(
        config, make_distribution("uniform"), UniformAmnesia()
    )
    simulator.load_initial()
    sorted_index = SortedIndex(simulator.table, "a")
    brin = BlockRangeIndex(simulator.table, "a", block_size=64)
    while simulator.current_epoch < config.epochs:
        simulator.step()
        values = simulator.table.values("a")
        mask = (
            (values >= 100) & (values < 300) & simulator.table.active_mask()
        )
        expected = set(np.flatnonzero(mask).tolist())
        assert set(sorted_index.lookup_range(100, 300).positions.tolist()) == expected
        assert set(brin.lookup_range(100, 300).positions.tolist()) == expected


def test_cold_storage_holds_every_forgotten_tuple():
    """After a run with the cold disposition, active ∪ archived == all."""
    disposition = ColdStorageDisposition(ColdStore())
    config = SimulationConfig(dbsize=200, epochs=4, queries_per_epoch=0)
    simulator = AmnesiaSimulator(
        config, make_distribution("normal"), FifoAmnesia(),
        disposition=disposition,
    )
    simulator.run()
    table = simulator.table
    assert disposition.store.tuple_count == table.forgotten_count
    forgotten = table.forgotten_positions()
    assert disposition.store.contains(forgotten).all()
    # Recovered values match the oracle exactly.
    sample = forgotten[:25]
    recovered = disposition.recover(sample)
    assert np.array_equal(recovered["a"], table.values("a")[sample])


def test_summaries_reconstruct_whole_table_aggregates():
    disposition = SummaryDisposition()
    config = SimulationConfig(dbsize=200, epochs=5, queries_per_epoch=0)
    simulator = AmnesiaSimulator(
        config, make_distribution("zipfian"), UniformAmnesia(),
        disposition=disposition,
    )
    simulator.run()
    executor = DispositionExecutor(simulator.table, disposition)
    for fn in ("avg", "sum", "count", "min", "max"):
        answer, oracle = executor.aggregate_with_summaries(fn, "a")
        assert answer == pytest.approx(oracle), fn


def test_stop_indexing_plan_asymmetry_end_to_end():
    disposition = StopIndexingDisposition()
    config = SimulationConfig(dbsize=200, epochs=4, queries_per_epoch=0)
    simulator = AmnesiaSimulator(
        config, make_distribution("uniform"), UniformAmnesia(),
        disposition=disposition,
    )
    simulator.run()
    index = SortedIndex(simulator.table, "a")
    executor = DispositionExecutor(simulator.table, disposition, index=index)
    scan = executor.range_scan("a", 0, 10_001)
    via_index = executor.range_via_index("a", 0, 10_001)
    assert scan.recall == 1.0
    assert via_index.returned == simulator.table.active_count
    assert via_index.recall == pytest.approx(
        simulator.table.active_count / simulator.table.total_rows
    )


def test_layered_policy_stack():
    """Privacy wrapper over rot, with summaries."""
    policy = PrivacyRetentionWrapper(RotAmnesia(), max_age_epochs=3)
    disposition = SummaryDisposition()
    db = AmnesiaDatabase(
        budget=300, policy=policy, disposition=disposition
    )
    rng = np.random.default_rng(17)
    for _ in range(6):
        db.insert({"a": rng.integers(0, 5000, 150)})
        db.range_query("a", 100, 400)
        active = db.table.active_positions()
        ages = db.epoch - db.table.insert_epochs()[active]
        assert ages.max() < 3
        assert db.active_count <= 300
    assert disposition.store.tuple_count == db.table.forgotten_count


def test_rot_precision_advantage_is_causal():
    """Removing the access signal removes rot's zipfian advantage."""
    config = SimulationConfig(dbsize=300, epochs=6, queries_per_epoch=150)

    def final_precision(frequency_exponent):
        simulator = AmnesiaSimulator(
            config,
            ZipfianDistribution(),
            RotAmnesia(frequency_exponent=frequency_exponent),
        )
        return simulator.run().precision_series()[-1]

    with_shield = final_precision(2.0)
    without_shield = final_precision(0.0)
    assert with_shield > without_shield + 0.05


def test_executor_oracle_equals_union_of_views():
    """RF + MF tuples = all matching tuples, on a live simulated table."""
    config = SimulationConfig(dbsize=250, epochs=4, queries_per_epoch=5)
    simulator = AmnesiaSimulator(
        config, make_distribution("normal"), UniformAmnesia()
    )
    simulator.run()
    executor = QueryExecutor(simulator.table, record_access=False)
    values = simulator.table.values("a")
    for low in (0, 2500, 7000):
        query = RangeQuery(RangePredicate("a", low, low + 800))
        result = executor.execute_range(query, epoch=99)
        oracle = np.flatnonzero((values >= low) & (values < low + 800))
        combined = np.sort(
            np.concatenate([result.active_positions, result.missed_positions])
        )
        assert np.array_equal(combined, oracle)
