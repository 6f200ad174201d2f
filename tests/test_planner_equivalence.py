"""Property-test equivalence harness for the query planner.

The proof that the planned query engine is safe: for randomized
insert/forget/query interleavings, across every amnesia policy and
every plan mode, the planner must return results *bit-identical* to
the naive full-history scan — same ``rf``, ``mf``, precision, match
positions, and float aggregate values — and must bump exactly the same
access-frequency counters, so policy-visible state evolves identically
regardless of the access path.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro import AmnesiaDatabase, AmnesiaSimulator, SimulationConfig
from repro import faults
from repro._util.errors import TransientFault
from repro.amnesia.registry import POLICY_NAMES, make_policy
from repro.faults import FaultInjected
from repro.serving import QueryService
from repro.datagen import UniformDistribution
from repro.indexes import BlockRangeIndex, SortedIndex
from repro.partitioning import PartitionedAmnesiaDatabase
from repro.query import (
    AggregateFunction,
    AggregateQuery,
    AndPredicate,
    PointPredicate,
    QueryExecutor,
    QueryPlanner,
    RangePredicate,
    RangeQuery,
)
from repro.query.plans import build_plan, parse_query_spec
from repro.stats import ExactMoments
from repro.storage import (
    Catalog,
    CohortZoneMap,
    CompressedCohortStore,
    Table,
    recover_store,
)

#: Plan variants compared against the naive scan.
PLAN_VARIANTS = ("zonemap", "auto", "index", "cost")


def _all_mode_executors(table):
    """One read-only executor per access path over the same table."""
    zone_map = CohortZoneMap(table)
    sorted_idx = SortedIndex(table, "a", merge_threshold=16)
    brin_idx = BlockRangeIndex(table, "a", block_size=8)
    planners = {
        "scan": QueryPlanner(table, mode="scan"),
        "zonemap": QueryPlanner(table, mode="zonemap", zone_map=zone_map),
        "auto": QueryPlanner(
            table,
            mode="auto",
            zone_map=zone_map,
            indexes=[sorted_idx, brin_idx],
        ),
        "index-sorted": QueryPlanner(table, mode="index", indexes=[sorted_idx]),
        "index-brin": QueryPlanner(
            table, mode="index", zone_map=zone_map, indexes=[brin_idx]
        ),
        "cost": QueryPlanner(
            table,
            mode="cost",
            zone_map=zone_map,
            indexes=[sorted_idx, brin_idx],
        ),
        "cost-bare": QueryPlanner(table, mode="cost"),
    }
    return {
        name: QueryExecutor(table, record_access=False, planner=planner)
        for name, planner in planners.items()
    }


def _range_fingerprint(result):
    return (
        result.rf,
        result.mf,
        result.precision,
        result.active_positions.tolist(),
        result.missed_positions.tolist(),
    )


def _aggregate_fingerprint(result):
    return (
        result.amnesiac_value,
        result.oracle_value,
        result.active_matches,
        result.oracle_matches,
    )


@st.composite
def interleavings(draw):
    """A random insert/forget schedule plus a query set to replay."""
    steps = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 120), min_size=1, max_size=25),
                st.integers(0, 2**16),
                st.floats(0.0, 0.6),
            ),
            min_size=1,
            max_size=4,
        )
    )
    queries = draw(
        st.lists(
            st.tuples(st.integers(-5, 125), st.integers(0, 40)),
            min_size=1,
            max_size=5,
        )
    )
    function = draw(st.sampled_from(list(AggregateFunction)))
    return steps, queries, function


@given(interleavings())
@settings(max_examples=40, deadline=None)
def test_all_plan_modes_answer_identically(workload):
    """The archetype headline: every access path == the naive scan."""
    steps, queries, function = workload
    table = Table("t", ["a"])
    executors = _all_mode_executors(table)
    for epoch, (values, forget_seed, forget_fraction) in enumerate(steps):
        table.insert_batch(epoch, {"a": values})
        forget_rng = np.random.default_rng(forget_seed)
        victims = np.flatnonzero(
            forget_rng.random(table.total_rows) < forget_fraction
        )
        table.forget(victims, epoch=epoch)
        # Interleave: replay every query after every mutation step.
        for low, width in queries:
            query = RangeQuery(RangePredicate("a", low, low + width))
            baseline = _range_fingerprint(
                executors["scan"].execute_range(query, epoch)
            )
            for name, executor in executors.items():
                got = _range_fingerprint(executor.execute_range(query, epoch))
                assert got == baseline, f"{name} diverged on {query}"
            windowed = AggregateQuery(
                function, "a", RangePredicate("a", low, low + width)
            )
            whole = AggregateQuery(function, "a")
            for agg_query in (windowed, whole):
                baseline = _aggregate_fingerprint(
                    executors["scan"].execute_aggregate(agg_query, epoch)
                )
                for name, executor in executors.items():
                    got = _aggregate_fingerprint(
                        executor.execute_aggregate(agg_query, epoch)
                    )
                    assert got == baseline, f"{name} diverged on {agg_query}"


def _make_policy(name):
    kwargs = {"column": "a"} if name in ("pair", "dist", "stratified") else {}
    return make_policy(name, **kwargs)


def _run_facade_scenario(
    policy_name: str,
    plan: str,
    stats: str = "uniform",
    compress: str = "off",
):
    """Drive an AmnesiaDatabase end to end; return every observable."""
    db = AmnesiaDatabase(
        budget=60,
        policy=_make_policy(policy_name),
        seed=11,
        plan=plan,
        stats=stats,
        compress=compress,
    )
    if plan in ("index", "cost"):
        db.create_index("a", kind="sorted", merge_threshold=32)
    rng = np.random.default_rng(5)
    observed = []
    for _ in range(6):
        db.insert({"a": rng.integers(0, 500, 25)})
        for low in (0, 100, 250, 400):
            result = db.range_query("a", low, low + 30)
            observed.append(_range_fingerprint(result))
        aggregate = db.aggregate("avg", "a", 50, 300)
        observed.append(_aggregate_fingerprint(aggregate))
    observed.append(db.table.active_mask().tolist())
    observed.append(db.table.access_counts().tolist())
    observed.append(db.table.last_access_epochs().tolist())
    observed.append(db.table.forgotten_epochs().tolist())
    if compress == "on" and plan != "scan":
        # Vacuity guard: a compressed run must actually have answered
        # from compressed blocks, or the equivalence proves nothing.
        assert db.compressed is not None and db.compressed.demoted_count > 0
    return observed


@pytest.mark.parametrize("plan", PLAN_VARIANTS)
@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_every_policy_evolves_identically_under_every_plan(policy_name, plan):
    """Full closed loop: queries feed access counts feed the policy.

    If any plan mode returned even one different tuple, the policy's
    victim selection would cascade and the final table state would
    diverge — so equality here proves both result and accounting
    equivalence across all amnesia policies.
    """
    assert _run_facade_scenario(policy_name, "scan") == _run_facade_scenario(
        policy_name, plan
    )


@pytest.mark.parametrize("plan", ("scan",) + PLAN_VARIANTS)
@pytest.mark.parametrize("policy_name", ("fifo", "rot", "uniform"))
def test_histogram_statistics_are_estimate_only(policy_name, plan):
    """``--stats hist`` sharpens estimates and *nothing else*: every
    observable of a histogram-statistics run — under every plan mode,
    including the scan baseline itself — equals the uniform-statistics
    scan baseline bit for bit."""
    assert _run_facade_scenario(
        policy_name, plan, stats="hist"
    ) == _run_facade_scenario(policy_name, "scan", stats="uniform")


@pytest.mark.parametrize("plan", PLAN_VARIANTS)
@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_compressed_execution_identical_across_policies_and_plans(
    policy_name, plan
):
    """Compressed execution is invisible to results (PR 9 tentpole).

    ``--compress on`` demotes cold cohorts into best-codec blocks and
    answers range probes directly on the encoded form; every observable
    — results, precision, access accounting, final table state — must
    equal the uncompressed trust-nothing scan baseline bit for bit.
    The scenario runner asserts cohorts were actually demoted, so the
    equality is never vacuous.
    """
    assert _run_facade_scenario(
        policy_name, plan, compress="on"
    ) == _run_facade_scenario(policy_name, "scan", compress="off")


@pytest.mark.parametrize("plan", ("scan",) + PLAN_VARIANTS)
@pytest.mark.parametrize("policy_name", ("fifo", "rot", "uniform"))
def test_compressed_with_histogram_statistics(policy_name, plan):
    """Compression and histogram statistics compose: both on together
    still equals the uniform-statistics uncompressed scan baseline."""
    assert _run_facade_scenario(
        policy_name, plan, stats="hist", compress="on"
    ) == _run_facade_scenario(
        policy_name, "scan", stats="uniform", compress="off"
    )


def test_scan_mode_never_builds_a_compressed_store():
    """The trust-nothing baseline reads raw columns only: under
    ``plan="scan"`` no store is built even with ``compress="on"``
    (mirroring the zone-map and statistics rules)."""
    from repro.amnesia import FifoAmnesia

    db = AmnesiaDatabase(
        budget=50, policy=FifoAmnesia(), plan="scan", compress="on"
    )
    assert db.compressed is None
    db_on = AmnesiaDatabase(
        budget=50, policy=FifoAmnesia(), plan="cost", compress="on"
    )
    assert db_on.compressed is not None


@pytest.mark.parametrize("plan", PLAN_VARIANTS)
def test_compressed_and_path_matches_scan(plan):
    """Multi-column AND predicates route through per-column compressed
    range masks; the conjunction must match the scan baseline."""
    table = Table("t", ["a", "b"])
    rng = np.random.default_rng(7)
    for epoch in range(5):
        table.insert_batch(
            epoch,
            {
                "a": rng.integers(0, 200, 40),
                "b": rng.integers(0, 50, 40),
            },
        )
    table.forget(np.arange(0, 200, 3), epoch=5)
    compressed = CompressedCohortStore(table)
    compressed.demote_cold(current_epoch=6)
    assert compressed.demoted_count > 0
    zone_map = CohortZoneMap(table)
    indexes = [SortedIndex(table, "a", merge_threshold=16)]
    scan = QueryExecutor(
        table, record_access=False, planner=QueryPlanner(table, mode="scan")
    )
    pruned = QueryExecutor(
        table,
        record_access=False,
        planner=QueryPlanner(
            table,
            mode=plan,
            zone_map=zone_map,
            indexes=indexes,
            compressed=compressed,
        ),
    )
    probes = [
        ((0, 100), (0, 25)),
        ((50, 150), (10, 40)),
        ((150, 400), (0, 10)),     # partially out of domain on a
        ((-50, 20), (45, 100)),    # straddles both domain edges
        ((300, 400), (60, 80)),    # fully out of domain
    ]
    for (a_low, a_high), (b_low, b_high) in probes:
        query = RangeQuery(
            AndPredicate(
                RangePredicate("a", a_low, a_high),
                RangePredicate("b", b_low, b_high),
            )
        )
        baseline = _range_fingerprint(scan.execute_range(query, 7))
        assert _range_fingerprint(pruned.execute_range(query, 7)) == baseline


@given(interleavings())
@settings(max_examples=25, deadline=None)
def test_compressed_paths_answer_identically(workload):
    """Hypothesis sweep: with cohorts demoted after every mutation
    step, every compressed access path == the naive scan."""
    steps, queries, function = workload
    table = Table("t", ["a"])
    compressed = CompressedCohortStore(table, min_age=1)
    zone_map = CohortZoneMap(table)
    sorted_idx = SortedIndex(table, "a", merge_threshold=16)
    planners = {
        "scan": QueryPlanner(table, mode="scan"),
        "zonemap": QueryPlanner(
            table, mode="zonemap", zone_map=zone_map, compressed=compressed
        ),
        "auto": QueryPlanner(
            table,
            mode="auto",
            zone_map=zone_map,
            indexes=[sorted_idx],
            compressed=compressed,
        ),
        "index": QueryPlanner(
            table,
            mode="index",
            zone_map=zone_map,
            indexes=[sorted_idx],
            compressed=compressed,
        ),
        "cost": QueryPlanner(
            table,
            mode="cost",
            zone_map=zone_map,
            indexes=[sorted_idx],
            compressed=compressed,
        ),
    }
    executors = {
        name: QueryExecutor(table, record_access=False, planner=planner)
        for name, planner in planners.items()
    }
    for epoch, (values, forget_seed, forget_fraction) in enumerate(steps):
        table.insert_batch(epoch, {"a": values})
        forget_rng = np.random.default_rng(forget_seed)
        victims = np.flatnonzero(
            forget_rng.random(table.total_rows) < forget_fraction
        )
        table.forget(victims, epoch=epoch)
        compressed.demote_cold(epoch)
        for low, width in queries:
            query = RangeQuery(RangePredicate("a", low, low + width))
            baseline = _range_fingerprint(
                executors["scan"].execute_range(query, epoch)
            )
            for name, executor in executors.items():
                got = _range_fingerprint(executor.execute_range(query, epoch))
                assert got == baseline, f"{name} diverged on {query}"
            windowed = AggregateQuery(
                function, "a", RangePredicate("a", low, low + width)
            )
            baseline = _aggregate_fingerprint(
                executors["scan"].execute_aggregate(windowed, epoch)
            )
            for name, executor in executors.items():
                got = _aggregate_fingerprint(
                    executor.execute_aggregate(windowed, epoch)
                )
                assert got == baseline, f"{name} diverged on {windowed}"


#: One conjunct bound: inside the data domain (``a`` in [0, 40), ``b``
#: in [0, 10)), just past its edges, or — for the two extreme draws —
#: far outside it (±2**62).
_conjunct_bound = st.integers(-6, 46).map(
    lambda v: {-6: -(2**62), 46: 2**62}.get(v, v)
)


@st.composite
def conjunct_workloads(draw):
    """Two-column insert/forget steps plus AND conjunctions to replay.

    A step is ``(rows, seed, forget_fraction)``; the seed draws the
    batch's values and the rows forgotten after it, which keeps the
    data dense enough that generated bounds land on stored values.
    """
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(1, 30), st.integers(0, 2**16), st.floats(0.0, 0.6)
            ),
            min_size=1,
            max_size=5,
        )
    )
    conjunct = st.one_of(
        st.tuples(
            st.just("range"),
            st.sampled_from(["a", "b"]),
            _conjunct_bound,
            st.integers(0, 30),
        ),
        st.tuples(
            st.just("point"),
            st.sampled_from(["a", "b"]),
            _conjunct_bound,
            st.just(0),
        ),
    )
    conjunctions = draw(
        st.lists(
            st.lists(conjunct, min_size=1, max_size=4),
            min_size=1,
            max_size=6,
        )
    )
    return steps, conjunctions


def _conjunction(spec) -> AndPredicate:
    children = [
        RangePredicate(column, low, low + width)
        if kind == "range"
        else PointPredicate(column, low)
        for kind, column, low, width in spec
    ]
    return AndPredicate(*children)


@pytest.mark.parametrize("compress", (False, True))
@seed(20170108)
@given(workload=conjunct_workloads())
@settings(max_examples=60, deadline=None)
def test_conjunctions_match_scan_in_every_mode(compress, workload):
    """Generated AND conjunctions of range and point predicates, with
    same-column conjuncts, empty intersections and out-of-domain
    bounds: every plan mode, raw or compressed, == the naive scan."""
    steps, conjunctions = workload
    table = Table("t", ["a", "b"])
    compressed = CompressedCohortStore(table, min_age=1) if compress else None
    zone_map = CohortZoneMap(table)
    indexes = [
        SortedIndex(table, "a", merge_threshold=16),
        SortedIndex(table, "b"),
    ]
    planners = {
        "scan": QueryPlanner(table, mode="scan"),
        "zonemap": QueryPlanner(
            table, mode="zonemap", zone_map=zone_map, compressed=compressed
        ),
        "index-bare": QueryPlanner(table, mode="index", indexes=indexes),
        "cost-bare": QueryPlanner(table, mode="cost"),
    }
    for mode in ("auto", "index", "cost"):
        planners[mode] = QueryPlanner(
            table,
            mode=mode,
            zone_map=zone_map,
            indexes=indexes,
            compressed=compressed,
        )
    executors = {
        name: QueryExecutor(table, record_access=False, planner=planner)
        for name, planner in planners.items()
    }
    for epoch, (rows, step_seed, forget_fraction) in enumerate(steps):
        rng = np.random.default_rng(step_seed)
        table.insert_batch(
            epoch, {"a": rng.integers(0, 40, rows), "b": rng.integers(0, 10, rows)}
        )
        victims = np.flatnonzero(rng.random(table.total_rows) < forget_fraction)
        table.forget(victims, epoch=epoch)
        if compressed is not None:
            compressed.demote_cold(epoch)
        for spec in conjunctions:
            query = RangeQuery(_conjunction(spec))
            baseline = _range_fingerprint(
                executors["scan"].execute_range(query, epoch)
            )
            for name, executor in executors.items():
                got = _range_fingerprint(executor.execute_range(query, epoch))
                assert got == baseline, f"{name} diverged on {query}"


@pytest.mark.parametrize("plan", PLAN_VARIANTS)
def test_access_accounting_identical_under_pruned_execution(plan):
    """record_access=True bumps identical counters whatever the path."""

    def build():
        table = Table("t", ["a"])
        for epoch in range(4):
            table.insert_batch(
                epoch, {"a": np.arange(epoch * 50, epoch * 50 + 30)}
            )
        table.forget(np.arange(0, 120, 4), epoch=4)
        return table

    scanned = build()
    pruned = build()
    zone_map = CohortZoneMap(pruned)
    indexes = [SortedIndex(pruned, "a", merge_threshold=16)]
    executors = {
        "scan": QueryExecutor(scanned, record_access=True),
        plan: QueryExecutor(
            pruned,
            record_access=True,
            planner=QueryPlanner(
                pruned, mode=plan, zone_map=zone_map, indexes=indexes
            ),
        ),
    }
    for epoch in range(5, 9):
        for low in (0, 25, 60, 110, 145):
            query = RangeQuery(RangePredicate("a", low, low + 20))
            for executor in executors.values():
                executor.execute_range(query, epoch)
        whole = AggregateQuery(AggregateFunction.SUM, "a")
        for executor in executors.values():
            executor.execute_aggregate(whole, epoch)
    assert (
        scanned.access_counts().tolist() == pruned.access_counts().tolist()
    )
    assert (
        scanned.last_access_epochs().tolist()
        == pruned.last_access_epochs().tolist()
    )


def _run_partitioned_scenario(
    policy_name: str,
    plan: str,
    workers: int = 1,
    rebalance: str = "hits",
    stats: str = "uniform",
    compress: str = "off",
):
    """Drive a sharded store end to end; return every observable.

    Out-of-domain values and ranges are included on purpose: the edge
    shards' open-ended bounds must answer them identically under every
    plan mode.  The query mix is skewed toward the low shard, so under
    ``rebalance="adaptive"`` (with the tightened split threshold) the
    run includes mid-run boundary splits and merges — whose decisions,
    and the migrated table state behind them, must also be identical
    under every plan mode and worker count.
    """
    store = PartitionedAmnesiaDatabase(
        "a",
        (0, 250, 500, 1000),
        total_budget=120,
        policy_factory=lambda: _make_policy(policy_name),
        seed=9,
        plan=plan,
        workers=workers,
        rebalance=rebalance,
        split_threshold=1.5,
        stats=stats,
        compress=compress,
    )
    rng = np.random.default_rng(3)
    observed = []
    for _ in range(5):
        store.insert({"a": rng.integers(-100, 1100, 60)})
        for low, width in (
            (-150, 120), (0, 300), (0, 150), (10, 80),
            (400, 300), (900, 400), (1050, 100),
        ):
            result = store.range_query(low, low + width)
            observed.append((result.rf, result.mf, result.precision))
        for function in AggregateFunction:
            observed.append(store.aggregate(function))
            observed.append(store.aggregate(function, 100, 800))
        # Rebalancing feeds on query-traffic counters; budgets,
        # boundaries and the forgetting they trigger must not depend
        # on the plan mode or the fan-out width.
        observed.append(store.rebalance(floor=5))
        observed.append(store.boundaries)
    observed.append(store.adaptations)
    for partition in store.partitions:
        observed.append(partition.db.table.active_mask().tolist())
        observed.append(partition.db.table.access_counts().tolist())
        observed.append(partition.db.table.last_access_epochs().tolist())
    if compress == "on" and plan != "scan":
        # Vacuity guard: at least one shard must hold demoted cohorts.
        assert (
            sum(
                p.db.compressed.demoted_count
                for p in store.partitions
                if p.db.compressed is not None
            )
            > 0
        )
    store.close()
    return observed


@pytest.mark.parametrize("plan", PLAN_VARIANTS)
@pytest.mark.parametrize("policy_name", ("fifo", "rot", "uniform"))
def test_partitioned_store_identical_across_plans(policy_name, plan):
    """The sharded path is planner-routed yet bit-identical to scan —
    including shard pruning, moment-merged aggregates and VAR/STD."""
    assert _run_partitioned_scenario(policy_name, "scan") == (
        _run_partitioned_scenario(policy_name, plan)
    )


@pytest.mark.parametrize("plan", PLAN_VARIANTS)
@pytest.mark.parametrize("policy_name", ("fifo", "rot", "uniform"))
def test_parallel_fanout_identical_to_sequential_scan(policy_name, plan):
    """The concurrency headline: ``workers=4`` fan-out under adaptive
    rebalancing — including mid-run boundary splits/merges — returns
    every observable bit-identical to the sequential scan baseline."""
    baseline = _run_partitioned_scenario(
        policy_name, "scan", workers=1, rebalance="adaptive"
    )
    got = _run_partitioned_scenario(
        policy_name, plan, workers=4, rebalance="adaptive"
    )
    assert got == baseline
    # The scenario is skewed on purpose; prove the trajectory really
    # contained boundary adaptations (they are part of the baseline,
    # so equality above already pinned them — this guards the setup).
    (adaptations,) = [
        o
        for o in baseline
        if isinstance(o, tuple) and all(isinstance(e, str) for e in o)
    ]
    assert any("split shard" in event for event in adaptations)
    assert any("merged shards" in event for event in adaptations)


@pytest.mark.parametrize("workers", (1, 4))
@pytest.mark.parametrize("plan", PLAN_VARIANTS)
@pytest.mark.parametrize("policy_name", ("fifo", "rot", "uniform"))
def test_compressed_partitioned_identical_across_workers(
    policy_name, plan, workers
):
    """Compressed execution inside every shard, at fan-out widths 1 and
    4 — including mid-run shard spawns that adopt migrated history —
    matches the sequential uncompressed scan baseline bit for bit."""
    baseline = _run_partitioned_scenario(policy_name, "scan", compress="off")
    got = _run_partitioned_scenario(
        policy_name, plan, workers=workers, compress="on"
    )
    assert got == baseline


@pytest.mark.parametrize("rebalance", ("hits", "rows"))
@pytest.mark.parametrize("workers", (1, 4))
def test_fanout_identical_across_rebalance_trajectories(workers, rebalance):
    """Budget-only rebalancing trajectories are width- and
    plan-independent too (adaptive is covered above)."""
    baseline = _run_partitioned_scenario(
        "fifo", "scan", workers=1, rebalance=rebalance
    )
    assert _run_partitioned_scenario(
        "fifo", "cost", workers=workers, rebalance=rebalance
    ) == baseline


_MEDIAN_BASELINES: dict = {}


def _median_baseline(policy_name: str):
    if policy_name not in _MEDIAN_BASELINES:
        _MEDIAN_BASELINES[policy_name] = _run_partitioned_scenario(
            policy_name, "scan", workers=1, rebalance="adaptive", stats="hist"
        )
    return _MEDIAN_BASELINES[policy_name]


@pytest.mark.parametrize("workers", (1, 4))
@pytest.mark.parametrize("plan", PLAN_VARIANTS)
@pytest.mark.parametrize("policy_name", ("fifo", "rot"))
def test_median_split_trajectories_identical(policy_name, plan, workers):
    """Histogram-median boundary cuts (``stats="hist"`` + adaptive
    rebalancing) are driven only by plan-independent table state and
    access counters, so the whole trajectory — cut points, migrated
    shard state, every downstream forgetting decision — is
    bit-identical to the sequential scan baseline under every plan
    mode and fan-out width."""
    baseline = _median_baseline(policy_name)
    got = _run_partitioned_scenario(
        policy_name, plan, workers=workers, rebalance="adaptive", stats="hist"
    )
    assert got == baseline
    (adaptations,) = [
        o
        for o in baseline
        if isinstance(o, tuple) and all(isinstance(e, str) for e in o)
    ]
    assert any("at median" in event for event in adaptations)
    # Median cuts genuinely diverge from the midpoint trajectory —
    # the statistics mode is a real knob, not a relabeling.
    midpoint = _run_partitioned_scenario(
        policy_name, "scan", workers=1, rebalance="adaptive", stats="uniform"
    )
    assert got != midpoint


def _run_catalog_scenario(plan: str):
    """Drive a two-table catalog end to end; return every observable."""
    catalog = Catalog(plan=plan)
    tables = {name: catalog.create_table(name, ["a"]) for name in ("s1", "s2")}
    if plan in ("index", "cost"):
        catalog.create_index("s1", "a", SortedIndex, merge_threshold=16)
    rng = np.random.default_rng(7)
    observed = []
    for epoch in range(4):
        for table in tables.values():
            table.insert_batch(epoch, {"a": rng.integers(0, 400, 30)})
            victims = np.flatnonzero(rng.random(table.total_rows) < 0.2)
            table.forget(victims, epoch=epoch)
        for name in tables:
            for low in (0, 100, 300):
                result = catalog.execute(
                    name,
                    RangeQuery(RangePredicate("a", low, low + 80)),
                    epoch,
                )
                observed.append(_range_fingerprint(result))
            aggregate = catalog.execute(
                name,
                AggregateQuery(
                    AggregateFunction.AVG, "a", RangePredicate("a", 50, 350)
                ),
                epoch,
            )
            observed.append(_aggregate_fingerprint(aggregate))
    for table in tables.values():
        observed.append(table.access_counts().tolist())
        observed.append(table.last_access_epochs().tolist())
    return observed


@pytest.mark.parametrize("plan", PLAN_VARIANTS)
def test_catalog_execution_identical_across_plans(plan):
    """Multi-table catalog runs answer identically under every mode."""
    assert _run_catalog_scenario("scan") == _run_catalog_scenario(plan)


# -- cross-table plans (union/join over the catalog) -----------------------


def _oracle_table_rows(table, low=None, high=None):
    """Naive full-scan stream of one table: (rows, forgotten flags).

    Rows are ``[value, insert_epoch]`` in insertion-position order —
    the ground truth every :class:`~repro.query.plans.TableScanNode`
    must reproduce bit-identically.
    """
    values = table.values("a")
    if low is None:
        mask = np.ones(values.size, dtype=bool)
    else:
        mask = (values >= low) & (values < high)
    positions = np.flatnonzero(mask)
    rows = np.column_stack(
        [values[positions], table.insert_epochs()[positions]]
    )
    return rows.tolist(), (~table.active_mask()[positions]).tolist()


def _oracle_sharded_rows(store, low=None, high=None):
    """Per-shard naive streams concatenated in shard order."""
    rows: list = []
    forgotten: list = []
    for partition in store.partitions:
        shard_rows, shard_forgotten = _oracle_table_rows(
            partition.db.table, low, high
        )
        rows.extend(shard_rows)
        forgotten.extend(shard_forgotten)
    return rows, forgotten


def _nested_loop_join(left, right, key):
    """The oracle join: left-then-right nested loop, O(n*m) on purpose.

    Emits pairs in ascending (left row, right row) order — the
    canonical order the hash join must match — and flags an output
    row forgotten iff either contributing input row was.
    """
    key_index = {"value": 0, "epoch": 1}[key]
    lrows, lforgotten = left
    rrows, rforgotten = right
    rows: list = []
    forgotten: list = []
    for i, lrow in enumerate(lrows):
        for j, rrow in enumerate(rrows):
            if lrow[key_index] == rrow[key_index]:
                rows.append(list(lrow) + list(rrow))
                forgotten.append(bool(lforgotten[i] or rforgotten[j]))
    return rows, forgotten


def _oracle_for_spec(catalog, store, spec):
    """Evaluate a union/join spec with naive scans + nested loops."""
    from repro.query.plans import parse_query_spec

    parsed = parse_query_spec(spec)
    streams = []
    for name in parsed.tables:
        if catalog.has_sharded(name):
            streams.append(_oracle_sharded_rows(store, parsed.low, parsed.high))
        else:
            streams.append(
                _oracle_table_rows(catalog.get(name), parsed.low, parsed.high)
            )
    if parsed.kind == "union":
        rows: list = []
        forgotten: list = []
        for stream_rows, stream_forgotten in streams:
            rows.extend(stream_rows)
            forgotten.extend(stream_forgotten)
        return rows, forgotten
    return _nested_loop_join(streams[0], streams[1], parsed.on)


#: The spec mix: unions and joins, bounded and not, value- and
#: epoch-keyed, plain and sharded inputs.
CROSS_SPECS = (
    "union:s1,s2,s3",
    "union:s1,s2:low=50,high=300",
    "join:s1,s2:on=value",
    "join:s3,s1:on=value",  # the sharded store on the probe side
    "join:s1,s3:on=value,low=0,high=150",
    "join:s2,s3:on=epoch",
)


def _run_cross_table_scenario(
    policy_name: str, plan: str, workers: int = 1, stats: str = "uniform"
):
    """Drive unions/joins over two tables + one sharded store.

    Every query is checked against the nested-loop oracle *inline* (so
    the oracle property holds under every plan mode and width, not
    just the baseline), and the returned observables — result streams,
    per-input accounting, final table state including access counters
    — let callers prove cross-mode/cross-width bit-equality.
    """
    catalog = Catalog(plan=plan, workers=workers, stats=stats)
    dbs = {}
    for i, name in enumerate(("s1", "s2")):
        dbs[name] = AmnesiaDatabase(
            budget=50,
            policy=_make_policy(policy_name),
            seed=13 + i,
            table_name=name,
            stats=stats,
        )
        catalog.register(dbs[name].table)
    store = PartitionedAmnesiaDatabase(
        "a",
        (0, 200, 400),
        total_budget=60,
        policy_factory=lambda: _make_policy(policy_name),
        seed=21,
        plan=plan,
        workers=workers,
        stats=stats,
    )
    catalog.register_sharded("s3", store)
    if plan in ("index", "cost"):
        catalog.create_index("s1", "a", SortedIndex, merge_threshold=16)
    rng = np.random.default_rng(17)
    observed = []
    for batch in range(1, 5):
        for db in dbs.values():
            db.insert({"a": rng.integers(0, 400, 30)})
        store.insert({"a": rng.integers(0, 400, 30)})
        for spec in CROSS_SPECS:
            expected = _oracle_for_spec(catalog, store, spec)
            result = catalog.query(spec, epoch=batch)
            got = (result.rows.tolist(), result.forgotten.tolist())
            assert got == expected, (
                f"{spec} diverged from the nested-loop oracle under "
                f"plan={plan} workers={workers}"
            )
            observed.append(
                list(got)
                + [
                    result.rf,
                    result.mf,
                    result.precision,
                    [(r.rf, r.mf, r.precision) for r in result.inputs],
                ]
            )
            # Streamed paths must be bit-identical to the same oracle:
            # (a) the batch iterator's concatenation reproduces the
            # materialized rows and flags exactly, and (b) the streamed
            # aggregate equals ExactMoments over the oracle's canonical
            # rows — across every policy, plan mode, stats source and
            # width this scenario is driven at.  record_access=False
            # keeps the extra reads out of the policy-visible state the
            # baseline comparison fingerprints.
            pieces = list(
                build_plan(catalog, spec).batches(
                    catalog, batch, batch_size=7, record_access=False
                )
            )
            streamed = (
                (
                    np.concatenate([r for r, _ in pieces]).tolist(),
                    np.concatenate([f for _, f in pieces]).tolist(),
                )
                if pieces
                else ([], [])
            )
            assert streamed == expected, (
                f"{spec} batch stream diverged from the oracle under "
                f"plan={plan} workers={workers}"
            )
            assert all(r.shape[0] == 7 for r, _ in pieces[:-1])
            agg_spec = dataclasses.replace(
                parse_query_spec(spec), agg="value"
            ).render()
            agg = catalog.query(
                agg_spec, epoch=batch, record_access=False, batch_size=5
            )
            exp_rows = (
                np.asarray(expected[0], dtype=np.int64)
                if expected[0]
                else np.empty((0, 2), dtype=np.int64)
            )
            exp_flags = np.asarray(expected[1], dtype=bool)
            assert agg.active == ExactMoments.of(exp_rows[~exp_flags, 0])
            assert agg.missed == ExactMoments.of(exp_rows[exp_flags, 0])
            assert (agg.rf, agg.mf) == (result.rf, result.mf)
            observed.append(
                [
                    agg.rf,
                    agg.mf,
                    agg.precision,
                    agg.active.total,
                    agg.missed.total,
                    [(r.rf, r.mf, r.precision) for r in agg.inputs],
                ]
            )
    for db in dbs.values():
        observed.append(db.table.active_mask().tolist())
        observed.append(db.table.access_counts().tolist())
        observed.append(db.table.last_access_epochs().tolist())
    for partition in store.partitions:
        observed.append(partition.db.table.active_mask().tolist())
        observed.append(partition.db.table.access_counts().tolist())
        observed.append((partition.query_hits, partition.query_rows))
    store.close()
    catalog.close()
    return observed


_CROSS_BASELINES: dict = {}


def _cross_baseline(policy_name: str):
    if policy_name not in _CROSS_BASELINES:
        _CROSS_BASELINES[policy_name] = _run_cross_table_scenario(
            policy_name, "scan", workers=1
        )
    return _CROSS_BASELINES[policy_name]


@pytest.mark.parametrize("plan", PLAN_VARIANTS)
@pytest.mark.parametrize("policy_name", ("fifo", "rot", "uniform"))
def test_cross_table_plans_identical_across_modes(policy_name, plan):
    """Union/join results — streams, per-input RF/MF, access accounting
    and the forgetting downstream of it — are bit-identical to the
    scan baseline under every plan mode (oracle checked inline)."""
    assert _run_cross_table_scenario(policy_name, plan) == _cross_baseline(
        policy_name
    )


@pytest.mark.parametrize("workers", (1, 4))
@pytest.mark.parametrize("plan", ("auto", "cost"))
@pytest.mark.parametrize("policy_name", ("fifo", "rot"))
def test_cross_table_fanout_identical_to_sequential(policy_name, plan, workers):
    """Leaf fan-out (including the sharded input's own shard fan-out)
    returns every observable bit-identical to sequential scan."""
    assert _run_cross_table_scenario(
        policy_name, plan, workers=workers
    ) == _cross_baseline(policy_name)


@pytest.mark.parametrize("workers", (1, 4))
@pytest.mark.parametrize("plan", ("scan", "cost"))
@pytest.mark.parametrize("policy_name", ("fifo", "rot"))
def test_cross_table_hist_stats_identical(policy_name, plan, workers):
    """Histogram statistics under the cross-table layer — join output
    estimates and strategy pricing — change nothing observable: every
    stream, per-input accounting and downstream forgetting equals the
    uniform-statistics scan baseline."""
    assert _run_cross_table_scenario(
        policy_name, plan, workers=workers, stats="hist"
    ) == _cross_baseline(policy_name)


# -- concurrent ingest (queue/applier/epoch handoff) ------------------------


#: Per-round query mix replayed against the store between flushes —
#: skewed toward the low shard so adaptive rebalancing splits mid-run.
_INGEST_QUERIES = (
    (-150, 120), (0, 300), (0, 150), (10, 80), (20, 60), (30, 90),
    (400, 300), (900, 400),
)


def _run_ingest_scenario(
    policy_name: str,
    plan: str,
    workers: int = 1,
    stats: str = "uniform",
    ingest: str = "sequential",
    read_passes: int = 1,
    threaded_readers: bool = False,
):
    """Drive the batched write path end to end; return every observable.

    ``ingest="sequential"`` inserts each batch through the synchronous
    :meth:`insert` facade; ``ingest="batched"`` enqueues a round's
    batches and publishes them with one :meth:`flush` — per-shard
    appliers drain their queues FIFO, one cohort per enqueued chunk,
    so the two schedules must leave bit-identical table state.

    ``threaded_readers=True`` runs each round's ``read_passes`` query
    passes from concurrent threads (instead of sequential repeats),
    proving that shared-gate readers leave results *and* access
    accounting — and therefore every downstream forgetting and
    rebalancing decision — exactly where sequential repeats leave
    them.
    """
    store = PartitionedAmnesiaDatabase(
        "a",
        (0, 250, 500, 1000),
        total_budget=120,
        policy_factory=lambda: _make_policy(policy_name),
        seed=9,
        plan=plan,
        workers=workers,
        rebalance="adaptive",
        split_threshold=1.5,
        stats=stats,
    )
    rng = np.random.default_rng(3)
    observed = []

    def read_pass():
        results = []
        for low, width in _INGEST_QUERIES:
            result = store.range_query(low, low + width)
            results.append((result.rf, result.mf, result.precision))
        results.append(store.aggregate("avg"))
        results.append(store.aggregate("sum", 100, 800))
        return results

    for _ in range(5):
        batches = [rng.integers(-100, 1100, 40) for _ in range(3)]
        if ingest == "sequential":
            for batch in batches:
                store.insert({"a": batch})
        else:
            for batch in batches:
                store.enqueue({"a": batch})
            store.flush()
        assert store.pending_batches == 0
        if threaded_readers:
            passes: list = [None] * read_passes
            start = threading.Barrier(read_passes)

            def run_reader(slot):
                start.wait()
                passes[slot] = read_pass()

            threads = [
                threading.Thread(target=run_reader, args=(i,))
                for i in range(read_passes)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        else:
            passes = [read_pass() for _ in range(read_passes)]
        observed.extend(passes)
        observed.append(store.rebalance(floor=5))
        observed.append(store.boundaries)
    observed.append(store.adaptations)
    for partition in store.partitions:
        observed.append(partition.db.table.active_mask().tolist())
        observed.append(partition.db.table.access_counts().tolist())
        observed.append(partition.db.table.last_access_epochs().tolist())
        observed.append(partition.db.table.forgotten_epochs().tolist())
    store.close()
    return observed


_INGEST_BASELINES: dict = {}


def _ingest_baseline(policy_name: str, stats: str = "uniform"):
    key = (policy_name, stats)
    if key not in _INGEST_BASELINES:
        _INGEST_BASELINES[key] = _run_ingest_scenario(
            policy_name, "scan", workers=1, stats=stats, ingest="sequential"
        )
    return _INGEST_BASELINES[key]


@pytest.mark.parametrize("workers", (1, 4))
@pytest.mark.parametrize("plan", PLAN_VARIANTS)
@pytest.mark.parametrize("policy_name", ("fifo", "rot", "uniform"))
def test_batched_ingest_identical_to_sequential(policy_name, plan, workers):
    """The tentpole headline: enqueue/flush batched ingest — appliers
    fanning out on the worker pool, epoch-gate handoff publishing each
    flush — leaves every observable (results, access accounting,
    boundary trajectories, forgetting) bit-identical to one-batch-at-
    a-time sequential inserts, under every plan mode and width."""
    got = _run_ingest_scenario(
        policy_name, plan, workers=workers, ingest="batched"
    )
    assert got == _ingest_baseline(policy_name)


@pytest.mark.parametrize("workers", (1, 4))
@pytest.mark.parametrize("stats", ("uniform", "hist"))
@pytest.mark.parametrize("policy_name", ("fifo", "rot"))
def test_batched_ingest_identical_under_stats_modes(
    policy_name, stats, workers
):
    """Batched ingest composes with both statistics sources: the hist
    trajectory (multi-way traffic-weighted cuts included) equals its
    own sequential baseline bit for bit."""
    got = _run_ingest_scenario(
        policy_name, "cost", workers=workers, stats=stats, ingest="batched"
    )
    assert got == _ingest_baseline(policy_name, stats=stats)
    if stats == "hist":
        # Guard the setup: the skewed query mix must really have
        # driven traffic-weighted boundary cuts mid-ingest.
        (adaptations,) = [
            o
            for o in got
            if isinstance(o, tuple) and all(isinstance(e, str) for e in o)
        ]
        assert any("split shard" in event for event in adaptations)


def _reader_baseline():
    """Sequential reference for the reader tests: three query passes
    per round, one after another, on one thread."""
    key = ("fifo", "scan", "passes3")
    if key not in _INGEST_BASELINES:
        _INGEST_BASELINES[key] = _run_ingest_scenario(
            "fifo", "scan", workers=1, ingest="sequential", read_passes=3
        )
    return _INGEST_BASELINES[key]


@pytest.mark.parametrize("workers", (1, 4))
@pytest.mark.parametrize("ingest", ("sequential", "batched"))
def test_concurrent_readers_identical_to_sequential_repeats(workers, ingest):
    """Readers racing through the epoch gate between flushes observe
    — and leave behind — exactly what sequential repeats would: same
    results, same access counters and traffic tallies, and therefore
    the same rebalance decisions downstream."""
    got = _run_ingest_scenario(
        "fifo",
        "cost",
        workers=workers,
        ingest=ingest,
        read_passes=3,
        threaded_readers=True,
    )
    assert got == _reader_baseline()


def test_free_running_readers_never_observe_torn_batches():
    """Atomicity: a reader concurrent with ingest sees either all of a
    flushed batch or none of it — every observed row count is a
    prefix sum of published batch sizes (budget is large enough that
    nothing is forgotten)."""
    store = PartitionedAmnesiaDatabase(
        "a",
        (0, 250, 500, 750, 1000),
        total_budget=200_000,
        policy_factory=lambda: _make_policy("fifo"),
        workers=4,
    )
    rng = np.random.default_rng(7)
    sizes = [137, 251, 89, 300, 170, 413, 222, 95, 180, 143] * 3
    batches = [rng.integers(0, 1000, size) for size in sizes]
    prefix_sums = {0}
    total = 0
    for size in sizes:
        total += size
        prefix_sums.add(total)
    seen: list = []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            result = store.range_query(0, 1000)
            seen.append(result.rf + result.mf)

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for thread in threads:
        thread.start()
    try:
        for batch in batches:
            store.insert({"a": batch})
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    torn = [count for count in seen if count not in prefix_sums]
    assert not torn, f"readers observed torn batches: {sorted(set(torn))[:5]}"
    assert store.ingest_epoch == len(sizes)
    final = store.range_query(0, 1000)
    assert final.rf + final.mf == total
    store.close()


def test_disjoint_writer_threads_identical_to_sequential():
    """Two writer threads inserting into disjoint key ranges — so their
    batches never share a shard queue — leave exactly the state a
    single sequential writer leaves."""

    def build(workers):
        return PartitionedAmnesiaDatabase(
            "a",
            (0, 500, 1000),
            total_budget=300,
            policy_factory=lambda: _make_policy("fifo"),
            workers=workers,
        )

    rng = np.random.default_rng(23)
    low_batches = [rng.integers(0, 500, 50) for _ in range(8)]
    high_batches = [rng.integers(500, 1000, 50) for _ in range(8)]

    def writer(store, batches):
        for batch in batches:
            store.insert({"a": batch})

    concurrent = build(workers=4)
    threads = [
        threading.Thread(target=writer, args=(concurrent, low_batches)),
        threading.Thread(target=writer, args=(concurrent, high_batches)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    sequential = build(workers=1)
    writer(sequential, low_batches)
    writer(sequential, high_batches)
    assert concurrent.ingest_epoch == sequential.ingest_epoch == 16
    for got, want in zip(concurrent.partitions, sequential.partitions):
        assert np.array_equal(
            np.sort(got.db.table.values("a")),
            np.sort(want.db.table.values("a")),
        )
        assert got.db.active_count == want.db.active_count
        assert got.db.table.total_rows == want.db.table.total_rows
    concurrent.close()
    sequential.close()


@pytest.mark.parametrize("plan", PLAN_VARIANTS)
def test_simulator_reports_identical_across_plans(plan):
    """A whole simulator run produces the same report under any plan."""

    def run(mode):
        sim = AmnesiaSimulator(
            SimulationConfig(
                dbsize=120, epochs=4, queries_per_epoch=40, plan=mode
            ),
            UniformDistribution(1000),
            _make_policy("rot"),
        )
        report = sim.run()
        return [
            (
                r.epoch,
                r.active_rows,
                r.forgotten,
                None if r.precision is None else r.precision.error_margin,
                r.divergence_js,
            )
            for r in report.epochs
        ]

    assert run("scan") == run(plan)

# -- served caches: hits must be bit-identical to uncached execution ----

from repro.query import PointPredicate  # noqa: E402
from repro.serving import QueryService  # noqa: E402
from repro.serving.server import _fingerprint  # noqa: E402

_SERVE_QUERIES = ((0, 40), (90, 60), (240, 80), (430, 50))


def _served_range_payload(result):
    """The service's range payload, rebuilt from a catalog result."""
    rf, mf = result.rf, result.mf
    return {
        "kind": "range",
        "rf": rf,
        "mf": mf,
        "oracle_count": rf + mf,
        "precision": 1.0 if rf + mf == 0 else rf / (rf + mf),
        "fingerprint": {
            "active": _fingerprint(result.active_positions),
            "missed": _fingerprint(result.missed_positions),
        },
    }


def _served_aggregate_payload(result):
    """The service's aggregate payload (sans position fingerprints —
    :class:`AggregateResult` does not carry positions; the final-state
    arrays compared at the end catch positional divergence anyway)."""
    return {
        "kind": "aggregate",
        "function": result.query.function.value,
        "column": result.query.column,
        "amnesiac_value": result.amnesiac_value,
        "oracle_value": result.oracle_value,
        "active_matches": result.active_matches,
        "oracle_matches": result.oracle_matches,
    }


def _run_served_scenario(
    policy_name: str,
    plan: str,
    stats: str = "uniform",
    workers: int = 1,
    serve: str | None = None,
):
    """Drive policy-fed forgetting through the serving stack (or not).

    ``serve=None`` is the uncached baseline: the same insert / query /
    policy-forget trajectory through ``Catalog.execute`` directly, no
    caches anywhere.  ``serve="paranoid"`` routes everything through a
    :class:`QueryService` that re-executes every cache hit and raises
    on any mismatch (hits are *proven* fresh); ``serve="replay"`` runs
    the production path, where hits replay the entry's recorded access
    positions — final table state equal to the baseline proves the
    replay accounting exact.  Every query is issued twice per round so
    the second issue can hit the cache.
    """
    catalog = Catalog(plan=plan, stats=stats, workers=workers)
    table = catalog.create_table("t", ["a"])
    if plan in ("index", "cost"):
        catalog.create_index("t", "a", SortedIndex, merge_threshold=32)
    service = token = None
    if serve is not None:
        service = QueryService(catalog, paranoid=(serve == "paranoid"))
        service.register_tenant("tenant", tables={"t"})
        token = service.open_session("tenant").token
    policy = _make_policy(policy_name)
    policy_rng = np.random.default_rng(7)
    data_rng = np.random.default_rng(5)
    observed: list = []
    for _ in range(6):
        batch = data_rng.integers(0, 500, 30)
        epoch = table.cohorts.latest_epoch + 1
        if service is not None:
            service.handle(
                {
                    "op": "ingest",
                    "token": token,
                    "source": "t",
                    "rows": {"a": batch.tolist()},
                }
            )
        else:
            with catalog.source_lock("t"):
                table.insert_batch(epoch, {"a": batch})
        for low, width in _SERVE_QUERIES:
            for _repeat in range(2):
                if service is not None:
                    resp = service.handle(
                        {
                            "op": "query",
                            "token": token,
                            "source": "t",
                            "kind": "range",
                            "predicate": {
                                "type": "range",
                                "column": "a",
                                "low": low,
                                "high": low + width,
                            },
                        }
                    )
                    payload = {
                        key: resp[key]
                        for key in (
                            "kind",
                            "rf",
                            "mf",
                            "oracle_count",
                            "precision",
                            "fingerprint",
                        )
                    }
                else:
                    result = catalog.execute(
                        "t",
                        RangeQuery(RangePredicate("a", low, low + width)),
                        epoch,
                    )
                    payload = _served_range_payload(result)
                observed.append(payload)
        for spec in (("avg", 50, 300), ("sum", None, None)):
            function, agg_low, agg_high = spec
            for _repeat in range(2):
                if service is not None:
                    request = {
                        "op": "query",
                        "token": token,
                        "source": "t",
                        "kind": "aggregate",
                        "function": function,
                        "column": "a",
                        "predicate": None
                        if agg_low is None
                        else {
                            "type": "range",
                            "column": "a",
                            "low": agg_low,
                            "high": agg_high,
                        },
                    }
                    resp = service.handle(request)
                    payload = {
                        key: resp[key]
                        for key in (
                            "kind",
                            "function",
                            "column",
                            "amnesiac_value",
                            "oracle_value",
                            "active_matches",
                            "oracle_matches",
                        )
                    }
                else:
                    query = AggregateQuery(
                        AggregateFunction(function),
                        "a",
                        None
                        if agg_low is None
                        else RangePredicate("a", agg_low, agg_high),
                    )
                    result = catalog.execute("t", query, epoch)
                    payload = _served_aggregate_payload(result)
                observed.append(payload)
        victims_n = min(12, table.active_count)
        if victims_n:
            victims = np.asarray(
                policy.select_victims(table, victims_n, epoch, policy_rng),
                dtype=np.int64,
            )
            if service is not None:
                resp = service.handle(
                    {
                        "op": "forget",
                        "token": token,
                        "source": "t",
                        "positions": victims.tolist(),
                    }
                )
                observed.append(resp["forgotten"])
            else:
                with catalog.source_lock("t"):
                    observed.append(int(table.forget(victims, epoch)))
    observed.append(table.active_mask().tolist())
    observed.append(table.access_counts().tolist())
    observed.append(table.last_access_epochs().tolist())
    observed.append(table.forgotten_epochs().tolist())
    if service is not None:
        status = service.stats()
        # The workload must actually exercise the cache, and paranoid
        # verification must never have caught a stale hit.
        assert status["result_cache"]["hits"] > 0
        assert status["stale_hits"] == 0
        service.close()
    catalog.close()
    return observed


_SERVED_BASELINES: dict = {}


def _served_baseline(policy_name: str, stats: str = "uniform"):
    key = (policy_name, stats)
    if key not in _SERVED_BASELINES:
        _SERVED_BASELINES[key] = _run_served_scenario(
            policy_name, "scan", stats=stats, workers=1, serve=None
        )
    return _SERVED_BASELINES[key]


@pytest.mark.parametrize("serve", ("paranoid", "replay"))
@pytest.mark.parametrize("plan", PLAN_VARIANTS)
@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_served_caches_identical_to_uncached(policy_name, plan, serve):
    """The serving headline: every served answer — cache hits included
    — and every policy-visible observable equals the uncached scan
    baseline bit for bit, under active policy-driven forgetting, for
    every amnesia policy and plan mode.  ``paranoid`` proves each hit
    against a same-lock fresh execution; ``replay`` proves the
    production hit path's access accounting leaves the policy
    trajectory exactly where fresh execution leaves it."""
    got = _run_served_scenario(policy_name, plan, serve=serve)
    assert got == _served_baseline(policy_name)


@pytest.mark.parametrize("workers", (1, 4))
@pytest.mark.parametrize("stats", ("uniform", "hist"))
@pytest.mark.parametrize("policy_name", ("fifo", "rot"))
def test_served_caches_identical_under_stats_and_workers(
    policy_name, stats, workers
):
    """The serving stack composes with both statistics sources and any
    catalog fan-out width: generation-keyed plan reuse over histogram
    statistics changes nothing observable."""
    got = _run_served_scenario(
        policy_name, "cost", stats=stats, workers=workers, serve="replay"
    )
    assert got == _served_baseline(policy_name, stats=stats)


def test_forget_invalidates_only_intersecting_cohorts():
    """Selective invalidation: a forget event evicts exactly the cached
    entries whose recorded cohort sets it touches."""
    catalog = Catalog(plan="cost", stats="hist")
    table = catalog.create_table("t", ["a"])
    table.insert_batch(0, {"a": np.arange(0, 100)})
    table.insert_batch(1, {"a": np.arange(1000, 1100)})
    service = QueryService(catalog)
    service.register_tenant("tenant", tables={"t"})
    token = service.open_session("tenant").token

    def query(low, high):
        return service.handle(
            {
                "op": "query",
                "token": token,
                "source": "t",
                "kind": "range",
                "predicate": {
                    "type": "range",
                    "column": "a",
                    "low": low,
                    "high": high,
                },
            }
        )

    first_low = query(0, 100)
    first_high = query(1000, 1100)
    assert not first_low["cached"] and not first_high["cached"]
    assert service.result_cache.entries_for("t") == 2

    # Forget rows of cohort 1 only: the low-range entry must survive.
    service.handle(
        {
            "op": "forget",
            "token": token,
            "source": "t",
            "positions": list(range(100, 110)),
        }
    )
    assert service.result_cache.entries_for("t") == 1
    second_low = query(0, 100)
    assert second_low["cached"]
    assert second_low["fingerprint"] == first_low["fingerprint"]
    second_high = query(1000, 1100)
    assert not second_high["cached"]
    assert second_high["rf"] == 90 and second_high["mf"] == 10

    # And the surviving entry is really still fresh: paranoid re-check.
    service.paranoid = True
    third_low = query(0, 100)
    assert third_low["cached"]
    assert service.stats()["stale_hits"] == 0
    service.close()
    catalog.close()


# -- crash-at-every-point: failure-path equivalence -------------------------
#
# The harness invariant, extended from "every execution path" to "every
# failure path": for each registered fault point, inject a crash there,
# recover the way a restarted driver would, continue the run, and the
# final state — results, access accounting, on-disk checkpoints — must
# be bit-identical to the uninterrupted run.  A completeness test pins
# these scenarios to ``faults.registered_points()`` so a new point
# cannot be added without extending the suite.

#: Checkpoint-path points, each crashed on the *second* save (the first
#: save of a fresh run has nothing durable behind it yet — the one
#: documented window where recovery has nothing to offer).
_CHECKPOINT_CRASH_POINTS = (
    "checkpoint.tmp",
    "checkpoint.rotate",
    "checkpoint.done",
)

#: Ingest-path points with crash ordinals chosen to land mid-run.
_INGEST_CRASH_SPECS = {
    "ingest.enqueue": "ingest.enqueue:crash@7",
    "ingest.apply": "ingest.apply:crash@8",
    "ingest.applied": "ingest.applied:crash@3",
    "rebalance.adapt": "rebalance.adapt:crash@3",
}

#: Serving-path fault specs; "transient" marks the flaky (retryable
#: 503) flavour rather than a hard crash.
_SERVE_FAULT_SPECS = (
    ("serve.handle:crash@4", "serve.handle"),
    ("serve.query:crash@3", "serve.query"),
    ("serve.query:flaky=0.35;seed=13", "transient"),
)


def test_crash_suite_covers_every_registered_point():
    """Adding a fault point without a crash-recovery scenario fails here."""
    exercised = (
        set(_CHECKPOINT_CRASH_POINTS)
        | set(_INGEST_CRASH_SPECS)
        | {"serve.handle", "serve.query"}
    )
    assert exercised == set(faults.registered_points())


def _checkpointed_sim_run(base_dir, plan: str, spec: str | None = None):
    """A checkpointing simulator run under ``spec``; the driver recovers
    from injected checkpoint crashes the way a restarted process would:
    prove ``recover_store`` finds a valid snapshot, redo the lost save,
    continue.  Returns ``(fingerprint, crash_points)``."""
    base_dir.mkdir(parents=True, exist_ok=True)
    config = SimulationConfig(
        dbsize=80,
        epochs=4,
        queries_per_epoch=6,
        plan=plan,
        checkpoint=str(base_dir / "ckpt"),
    )
    sim = AmnesiaSimulator(config, UniformDistribution(500), _make_policy("fifo"))
    crashes: list[str] = []
    context = faults.armed(spec) if spec else contextlib.nullcontext()
    with context:
        sim.load_initial()  # save #1 — crashes are armed at hit 2
        while sim.current_epoch < config.epochs:
            try:
                sim.step()
            except FaultInjected as fault:
                crashes.append(fault.point)
                # The crash interrupted the save only: prove the disk
                # still holds a loadable snapshot, then redo the save
                # the crash destroyed (the epoch itself completed).
                recovered, _ = recover_store(config.checkpoint)
                assert recovered.active_count == config.dbsize
                sim.checkpoint(config.checkpoint, rotate=True)
    digest: list = [
        (r.epoch, r.active_rows, r.total_rows, r.inserted, r.forgotten,
         r.divergence_js)
        for r in sim.reports
    ]
    digest.append(sim.table.values(config.column).tolist())
    digest.append(sim.table.active_mask().tolist())
    digest.append(sim.table.access_counts().tolist())
    # The durable state must converge too: the final checkpoint of a
    # crashed-and-recovered run equals the uninterrupted run's.
    final, _ = recover_store(config.checkpoint)
    digest.append(final.values(config.column).tolist())
    digest.append(final.active_mask().tolist())
    return digest, crashes


@pytest.mark.parametrize("point", _CHECKPOINT_CRASH_POINTS)
@pytest.mark.parametrize("plan", ("scan", "cost"))
def test_crash_during_checkpoint_invisible_after_recovery(
    tmp_path, point, plan
):
    clean, no_crashes = _checkpointed_sim_run(tmp_path / "clean", plan)
    assert no_crashes == []
    faulted, crashes = _checkpointed_sim_run(
        tmp_path / "faulted", plan, f"{point}:crash@2"
    )
    assert crashes == [point]
    assert faulted == clean


def _crash_recovering_ingest_run(
    policy_name: str, workers: int, spec: str | None = None
):
    """Batched sharded ingest where every write operation survives one
    injected crash by retrying — the in-process equivalent of a driver
    restart against intact shared state.  Returns
    ``(fingerprint, crash_points)``."""
    store = PartitionedAmnesiaDatabase(
        "a",
        (0, 250, 500, 1000),
        total_budget=120,
        policy_factory=lambda: _make_policy(policy_name),
        seed=9,
        plan="cost",
        workers=workers,
        rebalance="adaptive",
        split_threshold=1.5,
    )
    rng = np.random.default_rng(3)
    observed: list = []
    crashes: list[str] = []

    def attempt(operation):
        try:
            return operation()
        except FaultInjected as fault:
            crashes.append(fault.point)
            return operation()

    context = faults.armed(spec) if spec else contextlib.nullcontext()
    with context:
        for _ in range(5):
            for batch in (rng.integers(-100, 1100, 40) for _ in range(3)):
                attempt(lambda b=batch: store.enqueue({"a": b}))
            observed.append(attempt(store.flush))
            assert store.pending_batches == 0
            for low, width in _INGEST_QUERIES:
                result = store.range_query(low, low + width)
                observed.append((result.rf, result.mf, result.precision))
            observed.append(attempt(lambda: store.rebalance(floor=5)))
            observed.append(store.boundaries)
    observed.append(store.adaptations)
    for partition in store.partitions:
        observed.append(partition.db.table.active_mask().tolist())
        observed.append(partition.db.table.access_counts().tolist())
        observed.append(partition.db.table.last_access_epochs().tolist())
        observed.append(partition.db.table.forgotten_epochs().tolist())
    store.close()
    return observed, crashes


@pytest.mark.parametrize("workers", (1, 4))
@pytest.mark.parametrize("policy_name", ("fifo", "uniform"))
@pytest.mark.parametrize("point", sorted(_INGEST_CRASH_SPECS))
def test_crash_during_ingest_invisible_after_retry(
    point, policy_name, workers
):
    """A crash in enqueue/apply/publish/rebalance, once recovered by a
    retry, leaves every observable — results, epochs, boundaries,
    access accounting, forgetting — bit-identical to the crash-free
    run, at both worker widths."""
    clean, no_crashes = _crash_recovering_ingest_run(policy_name, workers)
    assert no_crashes == []
    faulted, crashes = _crash_recovering_ingest_run(
        policy_name, workers, _INGEST_CRASH_SPECS[point]
    )
    assert crashes == [point]
    assert faulted == clean


def _crash_recovering_service_run(plan: str, spec: str | None = None):
    """Drive a paranoid QueryService through queries, cache hits,
    ingests and forgets, retrying through injected crashes and
    transient faults.  Returns ``(fingerprint, crash_points)``."""
    catalog = Catalog(plan=plan, stats="hist")
    table = catalog.create_table("obs", ["value"])
    table.insert_batch(0, {"value": np.arange(300) % 211})
    service = QueryService(catalog, paranoid=True)
    service.register_tenant("alice")
    token = service.open_session("alice").token
    observed: list = []
    crashes: list[str] = []

    def attempt(operation):
        for _ in range(10):
            try:
                return operation()
            except FaultInjected as fault:
                crashes.append(fault.point)
            except TransientFault:
                crashes.append("transient")
        raise AssertionError("retry budget exhausted")

    context = faults.armed(spec) if spec else contextlib.nullcontext()
    with context:
        for round_no in range(3):
            for low in (0, 40, 80, 0, 40):  # repeats drive cache hits
                request = {
                    "op": "query",
                    "token": token,
                    "source": "obs",
                    "kind": "range",
                    "predicate": {
                        "type": "range",
                        "column": "value",
                        "low": low,
                        "high": low + 50,
                    },
                }
                response = attempt(lambda r=request: service.handle(r))
                observed.append(
                    (
                        response["rf"],
                        response["mf"],
                        response["cached"],
                        response["epoch"],
                        response["fingerprint"],
                    )
                )
            aggregate = attempt(
                lambda: service.handle(
                    {
                        "op": "query",
                        "token": token,
                        "source": "obs",
                        "kind": "aggregate",
                        "function": "avg",
                        "column": "value",
                        "predicate": {
                            "type": "range",
                            "column": "value",
                            "low": 20,
                            "high": 160,
                        },
                    }
                )
            )
            observed.append(
                (
                    aggregate["amnesiac_value"],
                    aggregate["oracle_value"],
                    aggregate["cached"],
                )
            )
            ingested = attempt(
                lambda r=round_no: service.handle(
                    {
                        "op": "ingest",
                        "token": token,
                        "source": "obs",
                        "rows": {"value": list(range(r * 5, r * 5 + 7))},
                    }
                )
            )
            observed.append((ingested["inserted"], ingested["epoch"]))
            forgotten = attempt(
                lambda: service.handle(
                    {"op": "forget", "token": token, "source": "obs", "n": 7}
                )
            )
            observed.append((forgotten["forgotten"], forgotten["epoch"]))
    observed.append(table.values("value").tolist())
    observed.append(table.active_mask().tolist())
    observed.append(table.access_counts().tolist())
    service.close()
    catalog.close()
    return observed, crashes


@pytest.mark.parametrize("plan", ("cost", "zonemap"))
@pytest.mark.parametrize("spec,point", _SERVE_FAULT_SPECS)
def test_fault_during_serving_invisible_after_retry(plan, spec, point):
    """Both serving points fire before any mutation, so a crashed or
    transiently-failed request retried by the client leaves responses,
    cache behaviour and access accounting bit-identical to the
    fault-free run — including under paranoid cache validation."""
    clean, no_crashes = _crash_recovering_service_run(plan)
    assert no_crashes == []
    faulted, crashes = _crash_recovering_service_run(plan, spec)
    assert crashes and set(crashes) == {point}
    if "crash" in spec:
        assert crashes == [point]  # one-shot: exactly one retry needed
    assert faulted == clean
