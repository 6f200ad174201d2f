"""Tests for repro.storage.cohorts."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro._util.errors import StorageError
from repro.storage import Cohort, CohortLog


class TestCohort:
    def test_size_and_positions(self):
        cohort = Cohort(epoch=2, start=10, stop=15)
        assert cohort.size == 5
        assert cohort.positions().tolist() == [10, 11, 12, 13, 14]

    def test_contains(self):
        cohort = Cohort(epoch=0, start=0, stop=3)
        assert 0 in cohort and 2 in cohort
        assert 3 not in cohort


class TestCohortLog:
    def test_record_and_lookup(self):
        log = CohortLog()
        log.record(0, 0, 100)
        log.record(1, 100, 120)
        assert len(log) == 2
        assert log.total_rows == 120
        assert log.latest_epoch == 1
        assert log[1] == Cohort(epoch=1, start=100, stop=120)

    def test_record_enforces_contiguity(self):
        log = CohortLog()
        log.record(0, 0, 10)
        with pytest.raises(StorageError):
            log.record(1, 11, 20)

    def test_record_enforces_epoch_order(self):
        log = CohortLog()
        log.record(1, 0, 10)
        with pytest.raises(StorageError):
            log.record(1, 10, 20)
        with pytest.raises(StorageError):
            log.record(0, 10, 20)

    def test_record_rejects_reversed_range(self):
        with pytest.raises(StorageError):
            CohortLog().record(0, 0, -1)

    def test_empty_cohort_allowed(self):
        log = CohortLog()
        log.record(0, 0, 0)
        assert log.total_rows == 0
        assert log[0].size == 0

    def test_iteration_and_epochs(self):
        log = CohortLog()
        log.record(0, 0, 5)
        log.record(2, 5, 8)
        assert [c.epoch for c in log] == [0, 2]
        assert log.epochs() == [0, 2]

    def test_empty_log_properties(self):
        log = CohortLog()
        assert log.total_rows == 0
        assert log.latest_epoch == -1


class TestCohortZoneMap:
    def _table(self):
        from repro.storage import Table

        table = Table("t", ["a", "b"])
        table.insert_batch(0, {"a": [5, 7, 9], "b": [50, 70, 90]})
        table.insert_batch(1, {"a": [100, 110], "b": [1, 2]})
        return table

    def test_tracks_bounds_and_active_counts(self):
        from repro.storage import CohortZoneMap

        table = self._table()
        zm = CohortZoneMap(table)
        mins, maxs = zm.bounds("a")
        assert mins.tolist() == [5, 100]
        assert maxs.tolist() == [9, 110]
        assert zm.active_counts().tolist() == [3, 2]
        assert zm.cohort_count == 2
        assert zm.covers("a") and zm.covers("b")

    def test_candidate_ranges_prune_by_value(self):
        from repro.storage import CohortZoneMap

        table = self._table()
        zm = CohortZoneMap(table)
        assert zm.candidate_ranges("a", 0, 50) == [(0, 3)]
        assert zm.candidate_ranges("a", 105, 200) == [(3, 5)]
        assert zm.candidate_ranges("a", 0, 200) == [(0, 3), (3, 5)]
        assert zm.candidate_ranges("a", 20, 90) == []

    def test_forget_updates_counts_not_bounds(self):
        from repro.storage import CohortZoneMap

        table = self._table()
        zm = CohortZoneMap(table)
        table.forget(np.array([0, 1, 2]), epoch=2)
        assert zm.active_counts().tolist() == [0, 2]
        # Bounds stay as safe insert-time zones.
        mins, _ = zm.bounds("a")
        assert mins.tolist() == [5, 100]
        # A wholly forgotten cohort stays a candidate: the forgotten
        # side of a read still has to see its rows.
        assert zm.candidate_ranges("a", 0, 50) == [(0, 3)]

    def test_late_attachment_backfills_history(self):
        """A zone map attached after inserts AND forgets is immediately exact."""
        from repro.storage import CohortZoneMap

        table = self._table()
        table.forget(np.array([1, 3]), epoch=2)
        zm = CohortZoneMap(table)
        mins, maxs = zm.bounds("a")
        assert mins.tolist() == [5, 100]
        assert maxs.tolist() == [9, 110]
        assert zm.active_counts().tolist() == [2, 1]

    def test_incremental_matches_late_attachment(self):
        """Observer-maintained stats equal stats rebuilt from scratch."""
        from repro.storage import CohortZoneMap, Table

        rng = np.random.default_rng(3)
        live = Table("live", ["a"])
        zm_live = CohortZoneMap(live)
        for epoch in range(6):
            live.insert_batch(epoch, {"a": rng.integers(0, 1000, 40)})
            victims = np.flatnonzero(rng.random(live.total_rows) < 0.2)
            live.forget(victims, epoch=epoch)
        zm_late = CohortZoneMap(live)
        assert zm_live.active_counts().tolist() == zm_late.active_counts().tolist()
        assert zm_live.bounds("a")[0].tolist() == zm_late.bounds("a")[0].tolist()
        assert zm_live.bounds("a")[1].tolist() == zm_late.bounds("a")[1].tolist()

    def test_unknown_column_rejected(self):
        from repro.storage import CohortZoneMap

        table = self._table()
        zm = CohortZoneMap(table, columns=["a"])
        assert not zm.covers("b")
        with pytest.raises(StorageError):
            zm.candidate_ranges("b", 0, 10)
        with pytest.raises(StorageError):
            CohortZoneMap(table, columns=[])

    def test_pruned_fraction_and_nbytes(self):
        from repro.storage import CohortZoneMap

        table = self._table()
        zm = CohortZoneMap(table)
        assert zm.pruned_fraction("a", 0, 50) == pytest.approx(2 / 5)
        assert zm.nbytes() > 0

    def test_reregistration_replay_is_idempotent(self):
        """remove + re-add must not corrupt counts (backfill replays)."""
        from repro.storage import CohortZoneMap

        table = self._table()
        zm = CohortZoneMap(table)
        table.forget(np.array([0]), epoch=2)
        before = zm.active_counts().tolist()
        table.remove_observer(zm)
        table.add_observer(zm)  # backfill replays all history
        assert zm.active_counts().tolist() == before == [2, 2]
        assert zm.candidate_ranges("a", 0, 50) == [(0, 3)]

    @seed(20170108)
    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 40), min_size=1, max_size=15),
        forgets=st.lists(
            st.lists(st.floats(0.0, 1.0), max_size=30), max_size=5
        ),
    )
    def test_recount_matches_per_cohort_count(self, sizes, forgets):
        """Active counts equal a per-cohort count_nonzero of the bitmap.

        Over layouts with empty cohorts and forgets spread over any
        subset of cohorts, live and after a backfill replay.
        """
        from repro.storage import CohortZoneMap, Table

        table = Table("t", ["a"])
        zm = CohortZoneMap(table)
        epoch = 0
        for size in sizes:
            table.insert_batch(epoch, {"a": np.arange(size)})
            epoch += 1
        for fractions in forgets:
            if table.total_rows:
                picks = (np.array(fractions) * (table.total_rows - 1)).astype(int)
                table.forget(np.unique(picks), epoch=epoch)
                epoch += 1
        mask = table.active_mask()
        expected = [
            int(np.count_nonzero(mask[c.start : c.stop])) for c in table.cohorts
        ]
        assert zm.active_counts().tolist() == expected
        table.remove_observer(zm)
        table.add_observer(zm)
        assert zm.active_counts().tolist() == expected


    def test_walk_cost_meets_every_zone_without_a_mask(self, monkeypatch):
        from repro.storage import CohortZoneMap, Table

        table = Table("t", ["a"])
        zm = CohortZoneMap(table)
        table.insert_batch(0, {"a": np.arange(10)})
        table.insert_batch(1, {"a": np.arange(5, 15)})

        def forbidden(*_args):
            raise AssertionError("walk_cost masked the cohorts")

        # [9, 10) lies above the largest cohort min and reaches the
        # smallest cohort max, so it meets both zones.
        monkeypatch.setattr(CohortZoneMap, "_intersects", forbidden)
        assert zm.walk_cost("a", 9, 10) == (20, 2, 0.0)
        monkeypatch.undo()
        assert zm.walk_cost("a", 10, 20) == (10, 1, 0.0)
        # An insert refreshes the spans: the new zone [0, 1] misses 9.
        table.insert_batch(2, {"a": np.arange(2)})
        assert zm.walk_cost("a", 9, 10) == (20, 2, 0.0)

    @seed(20261019)
    @settings(max_examples=60, deadline=None)
    @given(
        batches=st.lists(
            st.lists(st.integers(-50, 50), max_size=20), min_size=1, max_size=10
        ),
        bounds=st.lists(
            st.tuples(st.integers(-60, 60), st.integers(-60, 60)), max_size=8
        ),
        late=st.booleans(),
    )
    def test_walk_cost_prices_the_candidate_ranges(self, batches, bounds, late):
        """Off the column's spans or a cohort mask, ``walk_cost`` counts
        exactly the rows and ranges a walk visits, with empty cohorts,
        ranges that meet every zone and a zone map attached late."""
        from repro.storage import CohortZoneMap, Table

        table = Table("t", ["a"])
        zm = None if late else CohortZoneMap(table)
        for epoch, values in enumerate(batches):
            table.insert_batch(epoch, {"a": np.array(values, dtype=np.int64)})
        if late:
            zm = CohortZoneMap(table)
        for low, high in [*bounds, (-(2**70), 2**70), (2**63, 2**64)]:
            ranges = zm.candidate_ranges("a", low, high)
            rows = sum(stop - start for start, stop in ranges)
            assert zm.walk_cost("a", low, high) == (rows, len(ranges), 0.0)
            assert zm.walk_cost("a", low, high, limit=rows) == (rows, 0, 0.0)


class TestCohortLogIndexOf:
    def test_index_of_vectorised(self):
        log = CohortLog()
        log.record(0, 0, 100)
        log.record(1, 100, 120)
        assert log.index_of(np.array([0, 99, 100, 119])).tolist() == [0, 0, 1, 1]

    def test_index_of_empty_and_bounds(self):
        log = CohortLog()
        log.record(0, 0, 10)
        assert log.index_of(np.array([], dtype=np.int64)).size == 0
        with pytest.raises(IndexError):
            log.index_of(np.array([10]))


class TestCardinalityEstimate:
    def _table(self):
        from repro.storage import Table

        table = Table("t", ["a"])
        table.insert_batch(0, {"a": np.arange(0, 100)})      # span [0, 99]
        table.insert_batch(1, {"a": np.arange(200, 250)})    # span [200, 249]
        table.forget(np.arange(0, 50), epoch=2)              # half of cohort 0
        return table

    def test_exact_pruned_scan_costs(self):
        from repro.storage import CohortZoneMap

        zm = CohortZoneMap(self._table())
        estimate = zm.estimate("a", 0, 100)
        assert estimate.candidate_rows == 100          # cohort 0 only
        estimate = zm.estimate("a", 200, 250)
        assert estimate.candidate_rows == 50           # cohort 1 only
        assert estimate.est_forgotten == 0.0           # nothing forgotten there

    def test_uniform_interpolation_of_matches(self):
        from repro.storage import CohortZoneMap

        zm = CohortZoneMap(self._table())
        # Probe half of cohort 0's value span: expect ~half its rows.
        estimate = zm.estimate("a", 0, 50)
        assert estimate.est_active == pytest.approx(25.0)
        assert estimate.est_forgotten == pytest.approx(25.0)
        assert estimate.est_rows == pytest.approx(50.0)

    def test_disjoint_probe_estimates_zero(self):
        from repro.storage import CohortZoneMap

        zm = CohortZoneMap(self._table())
        estimate = zm.estimate("a", 300, 400)
        assert estimate.candidate_rows == 0
        assert estimate.est_rows == 0.0

    def test_untracked_column_rejected(self):
        from repro.storage import CohortZoneMap

        zm = CohortZoneMap(self._table())
        with pytest.raises(StorageError):
            zm.estimate("missing", 0, 10)

    def test_empty_table_estimates_zero(self):
        from repro.storage import CohortZoneMap, Table

        table = Table("t", ["a"])
        zm = CohortZoneMap(table)
        estimate = zm.estimate("a", 0, 10)
        assert estimate.candidate_rows == 0
        assert estimate.est_rows == 0.0


class TestCohortLogLedger:
    """The log owns every cohort's span and active-row count."""

    def _log(self):
        log = CohortLog()
        log.record(0, 0, 4)
        log.record(2, 4, 4)  # empty, mid-stream
        log.record(5, 4, 7)
        return log

    def test_arrays_are_read_only_views(self):
        log = self._log()
        assert log.starts().tolist() == [0, 4, 4]
        assert log.stops().tolist() == [4, 4, 7]
        assert log.active_counts().tolist() == [4, 0, 3]
        for array in (log.starts(), log.stops(), log.active_counts()):
            with pytest.raises(ValueError):
                array[0] = 9

    def test_forget_counts_rows_out_of_their_cohorts(self):
        log = self._log()
        log.forget(np.array([0, 3, 4, 6]))
        assert log.active_counts().tolist() == [2, 0, 1]

    def test_negative_index_and_iteration(self):
        log = self._log()
        assert log[-1] == Cohort(epoch=5, start=4, stop=7)
        assert log[-3] == log[0] == Cohort(epoch=0, start=0, stop=4)
        assert list(log) == [log[0], log[1], log[2]]
        with pytest.raises(IndexError):
            log[3]
        with pytest.raises(IndexError):
            log[-4]

    def test_count_through(self):
        log = self._log()
        assert [log.count_through(e) for e in (-1, 0, 1, 2, 4, 5, 9)] == [
            0, 1, 1, 2, 2, 3, 3,
        ]

    def test_grows_past_its_first_capacity(self):
        log = CohortLog()
        for epoch in range(100):
            log.record(epoch, epoch * 2, epoch * 2 + 2)
        assert len(log) == 100 and log.total_rows == 200
        assert log.epochs() == list(range(100))
        assert log.index_of(np.array([0, 199])).tolist() == [0, 99]


def _reduceat_activity(table):
    """The amnesia-map row as one ``np.add.reduceat`` over the activity
    mask, with its empty-cohort workarounds: the formula the log's
    counts replace, kept here as the reference."""
    cohorts = list(table.cohorts)
    if not cohorts:
        return {}
    mask = table.active_mask()
    sizes = np.asarray([c.size for c in cohorts], dtype=np.int64)
    if mask.size == 0:
        fractions = np.zeros(len(cohorts))
    else:
        starts = np.asarray([c.start for c in cohorts], dtype=np.int64)
        counts = np.zeros(len(cohorts), dtype=np.int64)
        valid = starts < mask.size
        counts[valid] = np.add.reduceat(mask.astype(np.int64), starts[valid])
        fractions = np.where(sizes > 0, counts / np.maximum(sizes, 1), 0.0)
    return {c.epoch: float(f) for c, f in zip(cohorts, fractions)}


_LEDGER_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.lists(st.integers(-40, 40), max_size=12)),
        st.tuples(st.just("forget"), st.lists(st.floats(0.0, 1.0), max_size=12)),
        st.tuples(st.just("detach"), st.none()),
        st.tuples(st.just("attach"), st.none()),
    ),
    max_size=25,
)
_PROBES = [(-50, 50), (-10, 5), (0, 1), (17, 18), (30, 100), (100, 200)]


class TestLedgerProperty:
    @seed(20170108)
    @settings(max_examples=80, deadline=None)
    @given(ops=_LEDGER_OPS, trailing_empty=st.booleans(), replay=st.booleans())
    @example(
        ops=[
            ("insert", [1, 2, 3]),
            ("insert", []),
            ("forget", [0.0, 0.0, 0.5]),
            ("detach", None),
            ("insert", [20, -5]),
            ("attach", None),
            ("forget", [1.0, 1.0]),
        ],
        trailing_empty=True,
        replay=True,
    )
    def test_ledger_matches_recounts_and_a_fresh_zone_map(
        self, ops, trailing_empty, replay
    ):
        """After any insert/forget sequence — empty cohorts mid-stream
        and at the end, repeated forget positions, a zone map detached
        and re-attached, a replay rebuild — the log's counts equal a
        recount of the activity mask, the amnesia-map row equals the
        reduceat formula, and the live zone map prunes and estimates
        exactly like one built fresh over the finished table."""
        from repro.storage import CohortZoneMap, Table

        table = Table("t", ["a"])
        zm = CohortZoneMap(table)
        attached = True
        epoch = 0
        for op, arg in ops:
            epoch += 1
            if op == "insert":
                table.insert_batch(epoch, {"a": np.array(arg, dtype=np.int64)})
            elif op == "forget" and table.total_rows:
                picks = (np.array(arg) * (table.total_rows - 1)).astype(np.int64)
                table.forget(np.concatenate([picks, picks[::-1]]), epoch=epoch)
            elif op == "detach" and attached:
                table.remove_observer(zm)
                attached = False
            elif op == "attach" and not attached:
                table.add_observer(zm)
                attached = True
        if not attached:
            table.add_observer(zm)
        if trailing_empty:
            table.insert_batch(epoch + 1, {"a": np.empty(0, dtype=np.int64)})
        if replay:
            rebuilt = Table("t", ["a"])
            zm = CohortZoneMap(rebuilt)
            rebuilt.replay_history(
                [(c.epoch, c.start, c.stop) for c in table.cohorts],
                {"a": table.values("a")},
                table.active_mask(),
                table.forgotten_epochs(),
                table.access_counts(),
                table.last_access_epochs(),
                None,
            )
            table = rebuilt

        mask = table.active_mask()
        recount = [int(mask[c.start : c.stop].sum()) for c in table.cohorts]
        assert table.cohorts.active_counts().tolist() == recount
        assert zm.active_counts().tolist() == recount
        assert table.cohort_activity() == _reduceat_activity(table)
        fresh = CohortZoneMap(table)
        for low, high in _PROBES:
            assert zm.candidate_ranges("a", low, high) == fresh.candidate_ranges(
                "a", low, high
            )
            assert zm.estimate("a", low, high) == fresh.estimate("a", low, high)
