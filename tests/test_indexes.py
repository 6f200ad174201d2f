"""Tests for repro.indexes: sorted and BRIN."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro._util.errors import ConfigError, IndexError_
from repro.indexes import BlockRangeIndex, SortedIndex
from repro.storage import Table


@pytest.fixture
def indexed_table(rng):
    table = Table("t", ["a"])
    table.insert_batch(0, {"a": rng.integers(0, 1000, 5000)})
    return table


def brute_force(table, low, high):
    values = table.values("a")
    mask = (values >= low) & (values < high) & table.active_mask()
    return set(np.flatnonzero(mask).tolist())


@pytest.mark.parametrize(
    "index_factory",
    [
        SortedIndex,
        lambda t, c: BlockRangeIndex(t, c, block_size=64),
    ],
    ids=["sorted", "brin"],
)
class TestIndexContract:
    """Every index type must agree with the brute-force scan."""

    def test_matches_scan_fresh(self, indexed_table, index_factory):
        index = index_factory(indexed_table, "a")
        probe = index.lookup_range(100, 150)
        assert set(probe.positions.tolist()) == brute_force(indexed_table, 100, 150)

    def test_skips_forgotten(self, indexed_table, index_factory, rng):
        index = index_factory(indexed_table, "a")
        victims = rng.choice(5000, 2500, replace=False)
        indexed_table.forget(victims, epoch=1)
        probe = index.lookup_range(0, 500)
        assert set(probe.positions.tolist()) == brute_force(indexed_table, 0, 500)

    def test_sees_inserts(self, indexed_table, index_factory):
        index = index_factory(indexed_table, "a")
        indexed_table.insert_batch(1, {"a": np.array([50, 51, 52])})
        probe = index.lookup_range(50, 53)
        assert set(probe.positions.tolist()) == brute_force(indexed_table, 50, 53)
        assert {5000, 5001, 5002} <= set(probe.positions.tolist())

    def test_mixed_insert_forget_stream(self, indexed_table, index_factory, rng):
        index = index_factory(indexed_table, "a")
        for epoch in range(1, 6):
            indexed_table.insert_batch(
                epoch, {"a": rng.integers(0, 1000, 500)}
            )
            active = indexed_table.active_positions()
            victims = rng.choice(active, 500, replace=False)
            indexed_table.forget(victims, epoch=epoch)
        for low in (0, 250, 990):
            probe = index.lookup_range(low, low + 20)
            assert set(probe.positions.tolist()) == brute_force(
                indexed_table, low, low + 20
            )

    def test_lookup_value(self, indexed_table, index_factory):
        index = index_factory(indexed_table, "a")
        probe = index.lookup_value(123)
        assert set(probe.positions.tolist()) == brute_force(indexed_table, 123, 124)

    def test_drop_and_rebuild(self, indexed_table, index_factory):
        index = index_factory(indexed_table, "a")
        index.drop()
        assert index.is_dropped
        assert index.nbytes() == 0
        with pytest.raises(IndexError_):
            index.lookup_range(0, 10)
        # Mutations while dropped are absorbed at rebuild time.
        indexed_table.insert_batch(1, {"a": np.array([7])})
        indexed_table.forget(np.array([0]), epoch=1)
        index.rebuild()
        probe = index.lookup_range(0, 1000)
        assert set(probe.positions.tolist()) == brute_force(indexed_table, 0, 1000)

    def test_empty_range(self, indexed_table, index_factory):
        index = index_factory(indexed_table, "a")
        probe = index.lookup_range(2000, 3000)
        assert probe.count == 0

    def test_maintenance_counter(self, indexed_table, index_factory):
        index = index_factory(indexed_table, "a")
        before = index.maintenance_ops
        indexed_table.insert_batch(1, {"a": np.array([1, 2])})
        indexed_table.forget(np.array([10]), epoch=1)
        assert index.maintenance_ops == before + 3


class TestSortedIndexSpecifics:
    def test_delta_merges(self, rng):
        table = Table("t", ["a"])
        table.insert_batch(0, {"a": rng.integers(0, 100, 10)})
        index = SortedIndex(table, "a", merge_threshold=16)
        for epoch in range(1, 6):
            table.insert_batch(epoch, {"a": rng.integers(0, 100, 10)})
        # 50 delta rows exceed the threshold: a merge must have fired.
        assert index._delta_positions.size < 50
        probe = index.lookup_range(0, 100)
        assert probe.count == table.active_count

    def test_forgotten_purged_at_merge(self, rng):
        table = Table("t", ["a"])
        table.insert_batch(0, {"a": np.arange(10)})
        index = SortedIndex(table, "a", merge_threshold=4)
        table.forget(np.array([0, 1]), epoch=1)
        table.insert_batch(1, {"a": np.arange(10, 20)})  # triggers merge
        probe = index.lookup_range(0, 30)
        assert probe.count == 18

    def test_probe_cost_proportional_to_range(self, indexed_table):
        index = SortedIndex(indexed_table, "a")
        narrow = index.lookup_range(0, 10)
        wide = index.lookup_range(0, 500)
        assert narrow.entries_touched < wide.entries_touched


class TestBrinSpecifics:
    def test_block_pruning_on_clustered_data(self):
        table = Table("t", ["a"])
        table.insert_batch(0, {"a": np.arange(10_000)})
        index = BlockRangeIndex(table, "a", block_size=100)
        probe = index.lookup_range(5000, 5050)
        assert probe.entries_touched <= 200
        assert index.pruned_fraction(5000, 5050) > 0.97

    def test_fully_forgotten_blocks_skipped(self):
        table = Table("t", ["a"])
        table.insert_batch(0, {"a": np.arange(1000)})
        index = BlockRangeIndex(table, "a", block_size=100)
        table.forget(np.arange(0, 100), epoch=1)  # block 0 entirely
        assert 0 not in index.candidate_blocks(0, 100).tolist()
        assert index.lookup_range(0, 100).count == 0

    def test_bounds_loose_after_forget_tight_after_rebuild(self):
        table = Table("t", ["a"])
        table.insert_batch(0, {"a": np.arange(100)})
        index = BlockRangeIndex(table, "a", block_size=50)
        table.forget(np.arange(0, 25), epoch=1)  # first half of block 0
        # Loose bounds still make block 0 a candidate for [0, 25).
        assert 0 in index.candidate_blocks(0, 25).tolist()
        index.rebuild()
        assert 0 not in index.candidate_blocks(0, 25).tolist()

    def test_block_size_validated(self, indexed_table):
        with pytest.raises(ConfigError):
            BlockRangeIndex(indexed_table, "a", block_size=0)

    def test_block_count(self):
        table = Table("t", ["a"])
        table.insert_batch(0, {"a": np.arange(250)})
        index = BlockRangeIndex(table, "a", block_size=100)
        assert index.block_count == 3


class TestObserverSafety:
    def test_unknown_column_rejected(self, indexed_table):
        from repro._util.errors import UnknownColumnError

        with pytest.raises(UnknownColumnError):
            SortedIndex(indexed_table, "missing")

    def test_nbytes_positive_when_built(self, indexed_table):
        for factory in (SortedIndex, BlockRangeIndex):
            index = factory(indexed_table, "a")
            assert index.nbytes() > 0
            indexed_table.remove_observer(index)


class TestForgettingStopsIndexHits:
    """Forgotten rows must never surface through index lookups (§1:
    "stop indexing the forgotten data")."""

    def _serial_table(self, n=200):
        table = Table("t", ["a"])
        table.insert_batch(0, {"a": np.arange(n)})
        return table

    def test_sorted_point_lookup_drops_forgotten(self):
        table = self._serial_table()
        index = SortedIndex(table, "a")
        assert index.lookup_value(42).positions.tolist() == [42]
        table.forget(np.array([42]), epoch=1)
        assert index.lookup_value(42).positions.size == 0
        assert index.lookup_range(40, 45).positions.tolist() == [40, 41, 43, 44]

    def test_sorted_run_tombstones_forgotten(self):
        table = self._serial_table()
        index = SortedIndex(table, "a")
        table.forget(np.arange(0, 200, 2), epoch=1)
        hits = index.lookup_range(0, 50).positions
        assert hits.tolist() == list(range(1, 50, 2))

    def test_sorted_delta_buffer_respects_forgetting(self):
        table = self._serial_table(n=10)
        index = SortedIndex(table, "a", merge_threshold=1000)  # never merge
        table.insert_batch(1, {"a": np.arange(100, 110)})  # lands in delta
        table.forget(np.array([12, 14]), epoch=2)  # forget delta rows
        assert index._delta_positions.size > 0  # still buffered, not merged
        hits = index.lookup_range(100, 110).positions
        assert sorted(hits.tolist()) == [10, 11, 13, 15, 16, 17, 18, 19]

    def test_sorted_merge_purges_tombstones(self):
        table = self._serial_table(n=10)
        index = SortedIndex(table, "a", merge_threshold=4)
        table.forget(np.array([2, 3]), epoch=1)
        table.insert_batch(1, {"a": np.arange(100, 108)})  # exceeds threshold
        assert index._delta_positions.size == 0  # merged
        assert index.lookup_range(0, 10).positions.tolist() == [0, 1] + list(
            range(4, 10)
        )
        assert index.lookup_range(100, 108).count == 8

    def test_brin_skips_fully_forgotten_blocks(self):
        table = self._serial_table(n=256)
        index = BlockRangeIndex(table, "a", block_size=64)
        table.forget(np.arange(64), epoch=1)  # block 0 fully forgotten
        assert index.candidate_blocks(0, 64).size == 0
        probe = index.lookup_range(0, 64)
        assert probe.positions.size == 0
        assert probe.entries_touched == 0  # skipping costs nothing

    def test_forget_then_reinsert_same_values(self):
        """New rows holding previously forgotten values are indexed."""
        table = self._serial_table(n=5)
        indexes = (
            SortedIndex(table, "a", merge_threshold=2),
            BlockRangeIndex(table, "a", block_size=4),
        )
        table.forget(np.array([3]), epoch=1)
        table.insert_batch(1, {"a": [3]})  # position 5, value 3
        for index in indexes:
            assert index.lookup_value(3).positions.tolist() == [5]


#: One step of an index workload: insert ``n`` rows; forget positions
#: picked in the sorted run, in the delta buffer or anywhere (so some
#: are forgotten already); or drop a built index / rebuild a dropped one.
_STEPS = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 40)),
    st.tuples(
        st.sampled_from(("forget-run", "forget-delta", "forget-any")),
        st.lists(st.integers(0, 10**6), max_size=12),
    ),
    st.tuples(st.just("toggle"), st.sampled_from(("sorted", "brin"))),
)


@seed(20170108)
@given(
    merge_threshold=st.integers(1, 64),
    block_size=st.integers(1, 16),
    steps=st.lists(_STEPS, min_size=1, max_size=25),
    ranges=st.lists(
        st.tuples(st.integers(-10, 60), st.integers(-5, 70)), min_size=1, max_size=4
    ),
)
@settings(max_examples=150, deadline=None)
def test_interleaved_maintenance_matches_active_scan(
    merge_threshold, block_size, steps, ranges
):
    """After every insert, forget, drop or rebuild, each built index's
    probe equals a brute-force scan of the active rows."""
    rng = np.random.default_rng(merge_threshold * 100 + block_size)
    table = Table("t", ["a"])
    table.insert_batch(0, {"a": rng.integers(0, 50, 30)})
    indexes = {
        "sorted": SortedIndex(table, "a", merge_threshold=merge_threshold),
        "brin": BlockRangeIndex(table, "a", block_size=block_size),
    }
    sorted_index = indexes["sorted"]
    for epoch, (kind, arg) in enumerate(steps, start=1):
        total = table.total_rows
        # The delta buffer holds the rows inserted since the last merge
        # or rebuild: the newest ``_delta_positions.size`` positions.
        delta_start = total - sorted_index._delta_positions.size
        if kind == "insert":
            table.insert_batch(epoch, {"a": rng.integers(0, 50, arg)})
        elif kind == "toggle":
            if indexes[arg].is_dropped:
                indexes[arg].rebuild()
            else:
                indexes[arg].drop()
        else:
            start, stop = {
                "forget-run": (0, delta_start),
                "forget-delta": (delta_start, total),
                "forget-any": (0, total),
            }[kind]
            if stop > start:
                picks = start + np.asarray(arg, dtype=np.int64) % (stop - start)
                table.forget(picks, epoch=epoch)
        delta = sorted_index._delta_positions.size
        assert delta <= merge_threshold
        merged = (kind == "insert" and arg > 0) or (kind, arg) == ("toggle", "sorted")
        if merged and not sorted_index.is_dropped and delta == 0:
            # A merge or rebuild just ran: the run holds the active rows only.
            probe = sorted_index.lookup_range(-(2**62), 2**62)
            assert probe.entries_touched == table.active_count
        values = table.values("a")
        for low, width in ranges:
            high = low + width
            hits = (values >= low) & (values < high) & table.active_mask()
            want = np.flatnonzero(hits)
            for index in indexes.values():
                if index.is_dropped:
                    continue
                probe = index.lookup_range(low, high)
                np.testing.assert_array_equal(np.sort(probe.positions), want)
