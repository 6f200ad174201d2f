"""Tests for repro.storage.table and catalog."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util.errors import (
    ConfigError,
    SchemaError,
    StorageError,
    UnknownColumnError,
)
from repro.storage import Catalog, Table

#: One catalog-table step: insert a batch, forget some rows (indexes
#: taken modulo the rows present), or plan a probe mid-stream so the
#: live structures are read (and rebuilt when stale) along the way.
catalog_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.lists(st.integers(-50, 500), min_size=1, max_size=25),
        ),
        st.tuples(
            st.just("forget"),
            st.lists(st.integers(0, 10_000), min_size=1, max_size=15),
        ),
        st.tuples(
            st.just("probe"), st.tuples(st.integers(-60, 510), st.integers(0, 200))
        ),
    ),
    min_size=1,
    max_size=14,
)


class TestSchema:
    def test_requires_name_and_columns(self):
        with pytest.raises(SchemaError):
            Table("", ["a"])
        with pytest.raises(SchemaError):
            Table("t", [])
        with pytest.raises(SchemaError):
            Table("t", ["a", "a"])

    def test_column_access(self, small_table):
        assert small_table.column_names == ("a",)
        assert small_table.has_column("a")
        assert not small_table.has_column("b")
        with pytest.raises(UnknownColumnError):
            small_table.values("b")


class TestInsert:
    def test_insert_returns_positions(self):
        table = Table("t", ["a", "b"])
        positions = table.insert_batch(0, {"a": [1, 2], "b": [3, 4]})
        assert positions.tolist() == [0, 1]
        assert table.total_rows == 2

    def test_insert_validates_columns(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(SchemaError):
            table.insert_batch(0, {"a": [1]})
        with pytest.raises(SchemaError):
            table.insert_batch(0, {"a": [1], "b": [2], "c": [3]})

    def test_insert_validates_lengths(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(SchemaError):
            table.insert_batch(0, {"a": [1, 2], "b": [3]})

    @pytest.mark.parametrize("bad", [[1.5], [2**70], ["x"]])
    def test_rejected_column_leaves_table_untouched(self, bad):
        # The bad column comes last, after one that converts cleanly:
        # nothing of the batch may land, or every later insert would
        # fail on a cohort log that ran ahead of the columns.
        table = Table("t", ["a", "b"])
        table.insert_batch(0, {"a": [1, 2], "b": [3, 4]})
        inserts = []

        class Recorder:
            def on_insert(self, table, positions):
                inserts.append(positions.tolist())

            def on_forget(self, table, positions):
                pass

        table.add_observer(Recorder(), backfill=False)
        with pytest.raises(ConfigError):
            table.insert_batch(1, {"a": [5], "b": bad})
        assert table.total_rows == 2
        assert len(table.cohorts) == 1
        assert [len(table.values(name)) for name in ("a", "b")] == [2, 2]
        assert table.active_count == 2
        assert inserts == []
        assert table.insert_batch(1, {"a": [5], "b": [6]}).tolist() == [2]
        assert table.values("b").tolist() == [3, 4, 6]
        assert inserts == [[2]]

    def test_insert_epochs_must_increase(self, small_table):
        with pytest.raises(StorageError):
            small_table.insert_batch(0, {"a": [1]})

    def test_metadata_initialised(self, small_table):
        assert (small_table.insert_epochs() == 0).all()
        assert (small_table.access_counts() == 0).all()
        assert (small_table.last_access_epochs() == -1).all()
        assert (small_table.forgotten_epochs() == -1).all()


class TestForget:
    def test_forget_flips_and_stamps(self, small_table):
        flipped = small_table.forget(np.array([0, 5]), epoch=3)
        assert flipped == 2
        assert small_table.active_count == 98
        assert small_table.forgotten_count == 2
        stamps = small_table.forgotten_epochs()
        assert stamps[0] == 3 and stamps[5] == 3 and stamps[1] == -1

    def test_forget_idempotent(self, small_table):
        small_table.forget(np.array([0]), epoch=1)
        assert small_table.forget(np.array([0]), epoch=2) == 0
        # First stamp is preserved.
        assert small_table.forgotten_epochs()[0] == 1

    def test_forget_empty(self, small_table):
        assert small_table.forget(np.empty(0, dtype=np.int64), epoch=1) == 0

    def test_views_after_forget(self, small_table):
        small_table.forget(np.arange(0, 100, 2), epoch=1)
        assert small_table.active_positions().tolist() == list(range(1, 100, 2))
        assert small_table.forgotten_positions().tolist() == list(range(0, 100, 2))
        assert small_table.is_active(np.array([0, 1])).tolist() == [False, True]
        assert small_table.active_values("a").tolist() == list(range(1, 100, 2))

    def test_unsorted_repeats_flip_once_and_leave_the_log_exact(self, epoch_table):
        assert epoch_table.forget(np.array([25, 3, 25, 0, 3]), epoch=3) == 3
        assert epoch_table.forgotten_positions().tolist() == [0, 3, 25]
        mask = epoch_table.active_mask()
        assert epoch_table.cohorts.active_counts().tolist() == [
            int(mask[c.start : c.stop].sum()) for c in epoch_table.cohorts
        ]


class TestAccessAccounting:
    def test_record_access_accumulates(self, small_table):
        small_table.record_access(np.array([1, 1, 2]), epoch=4)
        counts = small_table.access_counts()
        assert counts[1] == 2 and counts[2] == 1
        last = small_table.last_access_epochs()
        assert last[1] == 4 and last[2] == 4 and last[0] == -1

    def test_record_access_empty(self, small_table):
        small_table.record_access(np.empty(0, dtype=np.int64), epoch=1)
        assert (small_table.access_counts() == 0).all()


class TestRowStore:
    def test_every_view_is_read_only(self, small_table):
        views = [
            small_table.active_mask(),
            small_table.values("a"),
            small_table.insert_epochs(),
            small_table.access_counts(),
            small_table.last_access_epochs(),
            small_table.forgotten_epochs(),
        ]
        for view in views:
            assert view.size == small_table.total_rows
            with pytest.raises(ValueError):
                view[0] = 1

    @pytest.mark.parametrize("bad", [[100], [-1], [0, 100]])
    def test_out_of_range_positions_change_nothing(self, small_table, bad):
        small_table.forget(np.array([7]), epoch=1)
        small_table.record_access(np.array([3]), epoch=1)

        def state():
            return [
                small_table.active_count,
                small_table.active_mask().tolist(),
                small_table.access_counts().tolist(),
                small_table.last_access_epochs().tolist(),
                small_table.forgotten_epochs().tolist(),
            ]

        before = state()
        positions = np.array(bad)
        calls = [
            lambda: small_table.forget(positions, epoch=2),
            lambda: small_table.record_access(positions, epoch=2),
            lambda: small_table.is_active(positions),
        ]
        for call in calls:
            with pytest.raises(IndexError):
                call()
            assert state() == before


class TestReplayChecks:
    """``replay_history`` checks every per-row array and the cohort
    tiling before it inserts anything."""

    ROWS = 6
    COHORTS = [(0, 0, 4), (1, 4, 6)]

    def _replay(self, table, cohorts=None, **override):
        rows = self.ROWS
        arrays = {
            "columns": {"a": np.arange(rows), "b": np.arange(rows) * 10},
            "active": np.array([True, False] * 3),
            "forgotten_epochs": np.array([-1, 2] * 3),
            "access_counts": np.zeros(rows, dtype=np.int64),
            "last_access_epochs": np.full(rows, -1),
        }
        arrays.update(override)
        table.replay_history(
            self.COHORTS if cohorts is None else cohorts,
            arrays["columns"],
            arrays["active"],
            arrays["forgotten_epochs"],
            arrays["access_counts"],
            arrays["last_access_epochs"],
            None,
        )

    def test_full_arrays_replay(self):
        table = Table("t", ["a", "b"])
        self._replay(table)
        assert table.total_rows == 6 and table.forgotten_count == 3
        assert table.cohorts.active_counts().tolist() == [2, 1]

    @pytest.mark.parametrize(
        "override",
        [
            {"columns": {"a": np.arange(6), "b": np.arange(5)}},
            {"forgotten_epochs": np.array([-1, 2] * 2 + [-1])},
            {"active": np.array([True, False] * 2 + [True])},
            {"access_counts": np.zeros(7, dtype=np.int64)},
        ],
        ids=["short-column", "short-forgotten-epochs", "short-active", "long-access"],
    )
    def test_a_wrong_length_array_inserts_nothing(self, override):
        table = Table("t", ["a", "b"])
        with pytest.raises(StorageError, match=r"\(6,\) per-row values"):
            self._replay(table, **override)
        assert table.total_rows == 0 and len(table.cohorts) == 0

    @pytest.mark.parametrize(
        "cohorts",
        [
            [(0, 0, 4), (1, 5, 6)],
            [(0, 0, 4), (1, 3, 6)],
            [(0, 1, 4), (1, 4, 6)],
            [(1, 0, 4), (0, 4, 6)],
            [(0, 0, 4), (1, 4, 3)],
        ],
        ids=["gap", "overlap", "late-start", "epoch-order", "reversed"],
    )
    def test_cohorts_that_do_not_tile_insert_nothing(self, cohorts):
        table = Table("t", ["a", "b"])
        with pytest.raises(StorageError):
            self._replay(table, cohorts=cohorts)
        assert table.total_rows == 0 and len(table.cohorts) == 0


class TestCohortActivity:
    def test_activity_fractions(self, epoch_table):
        # Forget all of epoch 0's 20 rows and half of epoch 1's.
        epoch_table.forget(np.arange(20), epoch=3)
        epoch_table.forget(np.arange(20, 30), epoch=3)
        activity = epoch_table.cohort_activity()
        assert activity[0] == 0.0
        assert activity[1] == 0.5
        assert activity[2] == 1.0

    def test_empty_cohorts_anywhere_in_the_log(self):
        """Zero-row batches must not perturb their neighbours' counts
        (regression: a trailing empty cohort once stole the last row of
        the cohort before it)."""
        table = Table("t", ["a"])
        table.insert_batch(0, {"a": [5, 6]})
        table.insert_batch(1, {"a": []})
        assert table.cohort_activity() == {0: 1.0, 1: 0.0}
        table.insert_batch(2, {"a": [7, 8, 9]})
        table.insert_batch(3, {"a": []})
        table.insert_batch(4, {"a": []})
        table.forget(np.array([2]), epoch=5)
        assert table.cohort_activity() == {
            0: 1.0, 1: 0.0, 2: 2 / 3, 3: 0.0, 4: 0.0,
        }
        empty = Table("e", ["a"])
        assert empty.cohort_activity() == {}
        empty.insert_batch(0, {"a": []})
        assert empty.cohort_activity() == {0: 0.0}


class TestObservers:
    class Recorder:
        def __init__(self):
            self.inserted = []
            self.forgotten = []

        def on_insert(self, table, positions):
            self.inserted.append(positions.tolist())

        def on_forget(self, table, positions):
            self.forgotten.append(positions.tolist())

    def test_observer_notified(self, small_table):
        recorder = self.Recorder()
        small_table.add_observer(recorder, backfill=False)
        small_table.insert_batch(1, {"a": [7, 8]})
        small_table.forget(np.array([0, 1]), epoch=1)
        assert recorder.inserted == [[100, 101]]
        assert recorder.forgotten == [[0, 1]]

    def test_registration_backfills_existing_rows(self, small_table):
        recorder = self.Recorder()
        small_table.forget(np.array([0]), epoch=1)
        small_table.add_observer(recorder)
        assert recorder.inserted == [list(range(100))]
        assert recorder.forgotten == [[0]]

    def test_backfilled_observer_sees_only_new_forgets_afterwards(
        self, small_table
    ):
        recorder = self.Recorder()
        small_table.forget(np.array([0]), epoch=1)
        small_table.add_observer(recorder)
        small_table.forget(np.array([0, 1]), epoch=2)
        # Backfill delivered [0]; the live stream adds only the new [1].
        assert recorder.forgotten == [[0], [1]]

    def test_backfill_skipped_on_empty_table(self):
        table = Table("t", ["a"])
        recorder = self.Recorder()
        table.add_observer(recorder)
        assert recorder.inserted == []
        assert recorder.forgotten == []

    def test_backfill_opt_out_sees_only_live_stream(self, small_table):
        recorder = self.Recorder()
        small_table.forget(np.array([0]), epoch=1)
        small_table.add_observer(recorder, backfill=False)
        small_table.forget(np.array([0, 1]), epoch=2)
        assert recorder.inserted == []
        assert recorder.forgotten == [[1]]

    def test_observer_registration_errors(self, small_table):
        recorder = self.Recorder()
        small_table.add_observer(recorder)
        with pytest.raises(StorageError):
            small_table.add_observer(recorder)
        small_table.remove_observer(recorder)
        with pytest.raises(StorageError):
            small_table.remove_observer(recorder)


class TestCatalog:
    def test_create_and_get(self):
        catalog = Catalog()
        table = catalog.create_table("t", ["a"])
        assert catalog.get("t") is table
        assert "t" in catalog
        assert len(catalog) == 1
        assert catalog.names() == ["t"]

    def test_duplicate_rejected(self):
        catalog = Catalog()
        catalog.create_table("t", ["a"])
        with pytest.raises(SchemaError):
            catalog.create_table("t", ["b"])
        with pytest.raises(SchemaError):
            catalog.register(Table("t", ["c"]))

    def test_drop(self):
        catalog = Catalog()
        catalog.create_table("t", ["a"])
        catalog.drop("t")
        assert "t" not in catalog
        with pytest.raises(SchemaError):
            catalog.drop("t")
        with pytest.raises(SchemaError):
            catalog.get("t")

    def test_register_external(self):
        catalog = Catalog()
        table = Table("ext", ["a"])
        catalog.register(table)
        assert catalog.get("ext") is table
        assert list(catalog) == [table]


class TestCatalogPlanning:
    def _loaded(self, plan=None):
        catalog = Catalog(plan=plan)
        table = catalog.create_table("obs", ["a"])
        table.insert_batch(0, {"a": np.arange(100)})
        return catalog, table

    def test_planner_and_executor_are_cached(self):
        catalog, _ = self._loaded(plan="auto")
        assert catalog.planner("obs") is catalog.planner("obs")
        assert catalog.executor("obs") is catalog.executor("obs")
        assert catalog.executor("obs").planner is catalog.planner("obs")

    def test_record_access_variants_cached_separately(self):
        """A read-only pass builds its own non-recording executor on
        the catalog's planner; the catalog's executor records."""
        from repro.query import QueryExecutor, RangePredicate, RangeQuery

        catalog, table = self._loaded(plan="auto")
        query = RangeQuery(RangePredicate("a", 0, 10))
        QueryExecutor(
            table, record_access=False, planner=catalog.planner("obs")
        ).execute(query, epoch=1)
        assert table.access_counts().sum() == 0
        catalog.execute("obs", query, epoch=1)  # default: recording
        assert table.access_counts().sum() == 10

    def test_plan_and_report(self):
        from repro.query import RangePredicate

        catalog, _ = self._loaded(plan="cost")
        plan = catalog.plan("obs", RangePredicate("a", 0, 10))
        assert plan.requested == "cost"
        assert catalog.explain("obs", RangePredicate("a", 0, 10)).mode == plan.mode
        report = catalog.plan_report()
        assert "table 'obs'" in report

    def test_invalid_plan_rejected(self):
        with pytest.raises(Exception):
            Catalog(plan="warp")

    def test_invalid_workers_rejected(self):
        catalog = Catalog(workers=2)
        for workers in (0, 2.5, True, 1.5):
            with pytest.raises(ConfigError):
                Catalog(workers=workers)
            with pytest.raises(ConfigError):
                catalog.workers = workers  # 1.5 is rejected, not truncated
        assert catalog.workers == 2

    def test_concurrent_batches_share_tables_exactly(self):
        """Two caller threads running request lists over the *same*
        table: the per-table source lock keeps access accounting exact
        (each query's bump lands atomically), so the final counters
        equal the sequential double-run."""
        import threading

        from repro.query import RangePredicate, RangeQuery

        def build():
            catalog = Catalog(plan="auto")
            table = catalog.create_table("s1", ["a"])
            table.insert_batch(0, {"a": np.arange(400)})
            return catalog

        requests = [
            ("s1", RangeQuery(RangePredicate("a", low, low + 120)))
            for low in (0, 60, 180, 240)
        ] * 5

        def run(catalog):
            for name, query in requests:
                catalog.execute(name, query, epoch=1)

        sequential = build()
        for _ in range(2):
            run(sequential)
        expected = sequential.get("s1").access_counts().tolist()

        concurrent = build()
        threads = [
            threading.Thread(target=run, args=(concurrent,)) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert concurrent.get("s1").access_counts().tolist() == expected

    def test_source_lock_surface(self):
        """Tables share one lock per name; sharded sources are a null
        context (they serialize per shard internally)."""
        from repro.amnesia import FifoAmnesia
        from repro.partitioning import PartitionedAmnesiaDatabase

        catalog = Catalog()
        catalog.create_table("t", ["a"])
        assert catalog.source_lock("t") is catalog.source_lock("t")
        store = PartitionedAmnesiaDatabase(
            "a", (0, 10), total_budget=5, policy_factory=FifoAmnesia
        )
        catalog.register_sharded("sh", store)
        with catalog.source_lock("sh"):
            pass  # null context — no lock to hold
        with pytest.raises(SchemaError):
            catalog.source_lock("nope")

    def test_drop_clears_planner_and_executors(self):
        catalog, _ = self._loaded(plan="auto")
        catalog.drop("obs")
        with pytest.raises(SchemaError):
            catalog.planner("obs")
        with pytest.raises(SchemaError):
            catalog.executor("obs")

    @pytest.mark.parametrize("stats", ["uniform", "hist"])
    @given(steps=catalog_steps)
    @settings(max_examples=60, deadline=None)
    def test_live_structures_equal_backfilled(self, stats, steps):
        """A catalog table's planner observes the table from
        registration on; its zone map, histograms and estimates must
        equal those of a planner built over the finished table."""
        from repro.query import RangePredicate
        from repro.query.planner import table_planner

        catalog = Catalog(plan="cost", stats=stats)
        table = catalog.create_table("obs", ["a"])
        live = catalog.planner("obs")
        for epoch, (kind, arg) in enumerate(steps):
            if kind == "insert":
                table.insert_batch(epoch, {"a": arg})
            elif kind == "forget" and table.total_rows:
                table.forget(np.asarray(arg) % table.total_rows, epoch)
            elif kind == "probe":
                live.plan(RangePredicate("a", arg[0], arg[0] + arg[1]))
        backfilled = table_planner(table, "cost", stats=stats)

        assert np.array_equal(
            live.zone_map.active_counts(), backfilled.zone_map.active_counts()
        )
        for got, want in zip(
            live.zone_map.bounds("a"), backfilled.zone_map.bounds("a")
        ):
            assert np.array_equal(got, want)
        if stats == "hist":
            for got, want in zip(
                live.table_stats.histograms("a"),
                backfilled.table_stats.histograms("a"),
            ):
                if want is None:
                    assert got is None
                    continue
                assert (got.lo, got.hi) == (want.lo, want.hi)
                assert np.array_equal(got.counts, want.counts)
        else:
            assert live.table_stats is None and backfilled.table_stats is None
        for low, high in ((-60, 600), (0, 1), (100, 250), (490, 510)):
            assert live.estimate("a", low, high) == backfilled.estimate(
                "a", low, high
            )
        catalog.close()
