"""Tests for repro.storage.table and catalog."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util.errors import (
    ConfigError,
    InsufficientVictimsError,
    SchemaError,
    StorageError,
    UnknownColumnError,
)
from repro.storage import Catalog, Table


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
            small_table.column("b")


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

    def test_require_victims(self, small_table):
        small_table.require_victims(100)
        with pytest.raises(InsufficientVictimsError):
            small_table.require_victims(101)

    def test_views_after_forget(self, small_table):
        small_table.forget(np.arange(0, 100, 2), epoch=1)
        assert small_table.active_positions().tolist() == list(range(1, 100, 2))
        assert small_table.forgotten_positions().tolist() == list(range(0, 100, 2))
        assert small_table.is_active(np.array([0, 1])).tolist() == [False, True]
        assert small_table.active_values("a").tolist() == list(range(1, 100, 2))


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
        """Zero-row batches must not perturb their neighbours' counts —
        the reduceat rewrite's edge cases (regression: a trailing empty
        cohort used to steal the last row of the cohort before it)."""
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
        """A read-only pass must not inherit (or freeze in) the
        accounting choice of an earlier caller."""
        from repro.query import RangePredicate, RangeQuery

        catalog, table = self._loaded(plan="auto")
        query = RangeQuery(RangePredicate("a", 0, 10))
        catalog.executor("obs", record_access=False).execute(query, epoch=1)
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

    def test_execute_batch_parallel_matches_sequential(self):
        """Batch fan-out across tables: request order, results and
        access accounting all match a sequential loop exactly."""
        from repro.query import RangePredicate, RangeQuery

        def build(workers):
            catalog = Catalog(plan="auto", workers=workers)
            for name in ("s1", "s2", "s3"):
                table = catalog.create_table(name, ["a"])
                table.insert_batch(0, {"a": np.arange(200)})
                table.forget(np.arange(0, 200, 3), epoch=1)
            return catalog

        requests = [
            (name, RangeQuery(RangePredicate("a", low, low + 40)))
            for low in (0, 50, 120)
            for name in ("s1", "s2", "s3", "s1")
        ]
        sequential = build(workers=1)
        parallel = build(workers=4)
        expected = [
            sequential.execute(name, query, epoch=2)
            for name, query in requests
        ]
        got = parallel.execute_batch(requests, epoch=2)
        assert [(r.rf, r.mf) for r in got] == [
            (r.rf, r.mf) for r in expected
        ]
        for name in ("s1", "s2", "s3"):
            assert (
                parallel.get(name).access_counts().tolist()
                == sequential.get(name).access_counts().tolist()
            )

    def test_execute_batch_duplicate_name_order_pinned(self):
        """Regression: a table name queried several times in one batch
        keeps its results at their request indices and its queries in
        submission order, at any worker width.

        The contract is pinned on full result fingerprints (positions
        and aggregate values, not just counts) plus the per-table
        planner/access state the submission order determines.
        """
        from repro.query import (
            AggregateFunction,
            AggregateQuery,
            RangePredicate,
            RangeQuery,
        )

        def build(workers):
            catalog = Catalog(plan="auto", workers=workers)
            for name in ("s1", "s2"):
                table = catalog.create_table(name, ["a"])
                table.insert_batch(0, {"a": np.arange(300)})
                table.forget(np.arange(0, 300, 5), epoch=1)
            return catalog

        def fingerprint(result):
            if hasattr(result, "active_positions"):
                return (
                    result.rf,
                    result.mf,
                    result.active_positions.tolist(),
                    result.missed_positions.tolist(),
                )
            return (result.amnesiac_value, result.oracle_value)

        requests = []
        for low in (0, 40, 150, 220):
            requests.append(
                ("s1", RangeQuery(RangePredicate("a", low, low + 50)))
            )
            requests.append(
                (
                    "s1",
                    AggregateQuery(
                        AggregateFunction.SUM,
                        "a",
                        RangePredicate("a", low, low + 80),
                    ),
                )
            )
            requests.append(
                ("s2", RangeQuery(RangePredicate("a", low, low + 50)))
            )
            requests.append(
                ("s1", RangeQuery(RangePredicate("a", low + 5, low + 30)))
            )
        sequential = build(workers=1)
        expected = [
            fingerprint(sequential.execute(name, query, epoch=2))
            for name, query in requests
        ]
        for workers in (2, 8):
            parallel = build(workers=workers)
            got = [
                fingerprint(r)
                for r in parallel.execute_batch(requests, epoch=2)
            ]
            assert got == expected
            for name in ("s1", "s2"):
                assert (
                    parallel.get(name).access_counts().tolist()
                    == sequential.get(name).access_counts().tolist()
                )
                assert (
                    parallel.planner(name).stats()
                    == sequential.planner(name).stats()
                )

    def test_concurrent_batches_share_tables_exactly(self):
        """Two caller threads batching over the *same* tables: the
        per-table source locks keep access accounting exact (each
        query's bump lands atomically), so the final counters equal the
        sequential double-run."""
        import threading

        from repro.query import RangePredicate, RangeQuery

        def build(workers):
            catalog = Catalog(plan="auto", workers=workers)
            table = catalog.create_table("s1", ["a"])
            table.insert_batch(0, {"a": np.arange(400)})
            return catalog

        requests = [
            ("s1", RangeQuery(RangePredicate("a", low, low + 120)))
            for low in (0, 60, 180, 240)
        ] * 5
        sequential = build(workers=1)
        for _ in range(2):
            sequential.execute_batch(requests, epoch=1)
        expected = sequential.get("s1").access_counts().tolist()

        parallel = build(workers=4)
        threads = [
            threading.Thread(
                target=parallel.execute_batch, args=(requests, 1)
            )
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert parallel.get("s1").access_counts().tolist() == expected

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
        catalog.executor("obs")
        catalog.executor("obs", record_access=False)
        catalog.drop("obs")
        assert not catalog._planners and not catalog._executors
