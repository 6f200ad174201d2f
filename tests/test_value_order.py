"""Value-order reads split matches exactly like the full mask scan.

Outside ``scan`` mode a single-column range or point read that the
planner answers unpruned probes a :class:`~repro.query.value_order.
ValueOrder`: sorted position runs, an unsorted tail and per-run value
fences.  An index plan reads its missed side off the same order.  For
random interleavings of inserts (batch sizes on both sides of the run
threshold, duplicate-heavy, int64-extreme and value-sorted batches),
forgets and probes (points, empty ranges, bounds of +-2**62 and past
the int64 range), every pruned plan mode, with compression off and on,
with and without a zone map, and with a ``SortedIndex`` and a
``BlockRangeIndex`` registered, must return the ``(active, missed)``
positions of a ``scan``-mode planner bit for bit, whether the planner
picks its own path or is handed a scan plan.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.indexes import BlockRangeIndex, SortedIndex
from repro.query import PointPredicate, QueryPlan, QueryPlanner, RangePredicate
from repro.query.planner import table_planner
from repro.query.value_order import RUN_THRESHOLD, ValueOrder
from repro.storage import Table

MODES = ("auto", "zonemap", "index", "cost")
EXTREMES = (-(2**63), -(2**62), 2**62, 2**63 - 1)
BOUNDS = st.one_of(
    st.integers(-40, 1_040),
    st.sampled_from(
        [*EXTREMES, -(2**63) - 1, 2**63, -(2**70), 2**70, 0, 16]
    ),
)
OPS = st.one_of(
    # (kind, rows, value domain width, sorted): width 16 makes
    # duplicates; a sorted batch gives the block-range index narrow
    # blocks to prune.
    st.tuples(
        st.just("insert"),
        st.sampled_from([1, 4095, RUN_THRESHOLD, 4097, 9_000]),
        st.sampled_from([16, 1_000]),
        st.booleans(),
    ),
    st.tuples(st.just("forget"), st.floats(0.1, 0.9)),
    st.tuples(st.just("range"), BOUNDS, BOUNDS),
    st.tuples(st.just("point"), BOUNDS),
)
#: Forgets before and after a merge: the second 4097-row run merges
#: into the first, and reads land between.
MERGE_ACROSS_FORGETS = [
    ("insert", 4097, 1_000, False),
    ("range", 100, 600),
    ("forget", 0.5),
    ("insert", 4097, 1_000, False),
    ("range", 100, 600),
    ("forget", 0.5),
    ("point", 16),
    ("range", -(2**70), 2**70),
]


def _predicate(op):
    if op[0] == "point":
        return PointPredicate("a", op[1])
    low, high = sorted(op[1:])
    return RangePredicate("a", low, high)


#: Cost plans pick each index kind: the first read finds the sorted
#: index merged and probes it; after a 4095-row sorted batch waits in
#: its write buffer, the block-range index prunes to a few blocks and
#: wins.  Every cohort spans the domain, so the zone map prunes nothing.
INDEX_PICKS = [
    ("insert", 9_000, 1_000, True),
    ("forget", 0.5),
    ("range", 100, 110),
    ("insert", 4095, 1_000, True),
    ("forget", 0.3),
    ("range", 500, 510),
    ("point", 16),
]


def _planners(table: Table) -> list[QueryPlanner]:
    """Every pruned mode over a zone map with compression off and on,
    index plans through each index kind, and index and cost plans with
    no zone map."""
    by_rank = SortedIndex(table, "a")
    by_block = BlockRangeIndex(table, "a")
    planners = []
    for compress in ("off", "on"):
        for mode in MODES:
            planners.append(
                table_planner(table, mode, stats="uniform", compress=compress)
            )
        for mode, indexes in (
            ("index", [by_rank]),
            ("index", [by_block]),
            ("cost", [by_rank, by_block]),
        ):
            planner = table_planner(table, mode, stats="uniform", compress=compress)
            for index in indexes:
                planner.register_index(index)
            planners.append(planner)
    planners.append(QueryPlanner(table, mode="index", indexes=[by_rank]))
    planners.append(QueryPlanner(table, mode="cost", indexes=[by_rank, by_block]))
    return planners


def _run(ops, seed: int) -> Counter:
    """Replay ``ops``; count each index kind's executed index plans."""
    rng = np.random.default_rng(seed)
    table = Table("t", ["a"])
    baseline = QueryPlanner(table, mode="scan")
    planners = _planners(table)
    picks: Counter = Counter()
    epoch = 0
    for op in ops:
        if op[0] == "insert":
            epoch += 1
            _, rows, width, ordered = op
            values = rng.integers(0, width, rows)
            values[rng.random(rows) < 0.01] = rng.choice(EXTREMES)
            if ordered:
                values.sort()
            table.insert_batch(epoch, {"a": values})
            for planner in planners:
                if planner.compressed is not None:
                    planner.compressed.demote_cold(epoch)
            continue
        if op[0] == "forget":
            active = table.active_positions()
            table.forget(active[rng.random(active.size) < op[1]], epoch)
            continue
        predicate = _predicate(op)
        want_active, want_missed, _ = baseline.match(predicate, ("a",))
        for planner in planners:
            forced = QueryPlan("scan", planner.mode, "value order under test")
            for plan in (forced, None):
                active, missed, execution = planner.match(
                    predicate, ("a",), plan=plan
                )
                assert active.dtype == missed.dtype == np.int64
                assert np.array_equal(active, want_active), (planner.mode, op)
                assert np.array_equal(missed, want_missed), (planner.mode, op)
                chosen = execution.plan
                if plan is None and planner.mode == "index" and planner._indexes:
                    assert chosen.mode == "index"
                # An index plan reads its probe, then the order.
                reads = 2 if chosen.mode == "index" else 1
                assert execution.rows_considered <= reads * table.total_rows
                if chosen.mode == "index":
                    picks[planner.mode, type(chosen.index).__name__] += 1
            _check_shape(planner._orders["a"], table.total_rows)
    assert not baseline._orders  # scan mode builds nothing
    return picks


def _check_shape(order: ValueOrder, total: int) -> None:
    """After a probe: runs shrink geometrically, the tail is short and
    the order holds about 4.1 bytes per row."""
    sizes = order.run_sizes
    assert all(2 * later < earlier for earlier, later in zip(sizes, sizes[1:]))
    assert total - sum(sizes) <= RUN_THRESHOLD
    assert order.nbytes <= 4.2 * sum(sizes)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(ops=st.lists(OPS, min_size=1, max_size=14), seed=st.integers(0, 2**32 - 1))
@example(ops=MERGE_ACROSS_FORGETS, seed=0)
def test_value_order_matches_mask_scan(ops, seed):
    _run(ops, seed)


def test_cost_plans_pick_each_index():
    """The property runs real index plans: forced ones through either
    index kind, and cost plans that pick each kind by its price."""
    picks = _run(INDEX_PICKS, seed=0)
    for kind in ("SortedIndex", "BlockRangeIndex"):
        assert picks["index", kind] > 0
        assert picks["cost", kind] > 0


def test_tail_threshold_and_merges():
    """A tail of exactly the threshold stays unsorted; one more row makes
    a run, and an equal-sized next run merges into it."""
    table = Table("t", ["a"])
    order = ValueOrder(table, "a")
    rng = np.random.default_rng(3)
    table.insert_batch(0, {"a": rng.integers(0, 50, RUN_THRESHOLD)})
    _, read = order.probe(10, 20)
    assert (order.run_sizes, read) == ([], RUN_THRESHOLD)
    table.insert_batch(1, {"a": rng.integers(0, 50, 1)})
    order.probe(10, 20)
    assert order.run_sizes == [RUN_THRESHOLD + 1]
    table.insert_batch(2, {"a": rng.integers(0, 50, RUN_THRESHOLD + 1)})
    hits, read = order.probe(10, 20)
    assert order.run_sizes == [2 * RUN_THRESHOLD + 2]
    values = table.values("a")
    assert np.array_equal(hits, np.flatnonzero((values >= 10) & (values < 20)))
    assert read == hits.size  # no tail: every entry read is a match


def test_concurrent_readers_probe_one_planner():
    """Readers racing to extend and merge the order get exact answers.

    Four reader threads (more than the two cores CI runners have) with
    a short switch interval, so a torn ``(runs, through)`` pair or a
    lost run would show as a wrong answer.
    """
    rng = np.random.default_rng(11)
    table = Table("t", ["a"])
    baseline = QueryPlanner(table, mode="scan")
    planner = QueryPlanner(table, mode="cost")
    readers = 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for epoch, rows in enumerate((20_000, 6_000, 6_000, 9_000)):
            table.insert_batch(epoch, {"a": rng.integers(0, 5_000, rows)})
            active = table.active_positions()
            table.forget(active[rng.random(active.size) < 0.3], epoch)
            lows = rng.integers(-10, 5_000, 60).tolist()
            predicates = [RangePredicate("a", low, low + 40) for low in lows]
            want = [baseline.match(p, ("a",))[:2] for p in predicates]
            barrier = threading.Barrier(readers)
            answered = []

            def read(chunk):
                barrier.wait(timeout=30)
                for k in chunk:
                    got = planner.match(predicates[k], ("a",))[:2]
                    exact = all(np.array_equal(g, w) for g, w in zip(got, want[k]))
                    answered.append((k, exact))

            threads = [
                threading.Thread(target=read, args=(range(i, 60, readers),))
                for i in range(readers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert sorted(answered) == [(k, True) for k in range(60)]
            _check_shape(planner._orders["a"], table.total_rows)
    finally:
        sys.setswitchinterval(interval)
