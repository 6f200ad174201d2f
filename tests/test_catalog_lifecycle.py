"""Catalog lifecycle: drop/recreate correctness and lock regressions.

Two races fixed alongside the serving layer are pinned here with
deterministic interleavings:

* ``Catalog.drop`` used to mutate the planner/executor caches without
  holding ``_build_lock``, so an in-flight lazy build could re-insert
  an entry for the dropped table — and a recreated table under the
  same name then served the *old* table's planner.
* ``Catalog.source_lock`` used to index ``_table_locks`` directly, so
  a concurrent drop between the existence check and the lookup leaked
  a bare ``KeyError`` instead of the library's ``SchemaError``.
"""

from __future__ import annotations

import threading
from contextlib import AbstractContextManager

import numpy as np
import pytest

from repro._util.errors import SchemaError
from repro.query import AggregateFunction, AggregateQuery, RangePredicate, RangeQuery
from repro.storage import Catalog, CohortZoneMap


def _query(low: int, high: int) -> RangeQuery:
    return RangeQuery(RangePredicate("a", low, high))


class TestDropBuildRace:
    def test_drop_blocks_on_inflight_lazy_build(self, monkeypatch):
        """A drop racing a lazy planner build must wait for the build
        lock — and the purge must land *after* the build's insertion,
        so a recreated table never inherits the stale planner."""
        catalog = Catalog(plan="auto")
        old = catalog.create_table("t", ["a"])
        old.insert_batch(0, {"a": [1, 2, 3]})

        in_build = threading.Event()
        resume = threading.Event()
        original_init = CohortZoneMap.__init__

        def paused_init(self, table, columns=None):
            # Pause the lazy build inside _build_lock, between the
            # existence check and the cache insertion — the exact
            # window the unfixed drop slipped through.
            if table is old:
                in_build.set()
                assert resume.wait(5)
            original_init(self, table, columns)

        monkeypatch.setattr(CohortZoneMap, "__init__", paused_init)

        def build():
            try:
                catalog.planner("t")
            except SchemaError:
                pass  # acceptable: the build lost the race cleanly

        builder = threading.Thread(target=build)
        builder.start()
        assert in_build.wait(5)

        dropper = threading.Thread(target=lambda: catalog.drop("t"))
        dropper.start()
        dropper.join(0.3)
        # The fixed drop is stuck on _build_lock while the build is in
        # flight; the unfixed drop completed here (and the build then
        # re-inserted a planner for the dropped table).
        assert dropper.is_alive(), "drop must serialize behind the lazy build"

        resume.set()
        builder.join(5)
        dropper.join(5)
        assert not dropper.is_alive()

        new = catalog.create_table("t", ["a"])
        new.insert_batch(0, {"a": [9, 10]})
        assert catalog.planner("t").table is new
        assert catalog.executor("t").table is new
        catalog.close()

    def test_recreate_asserts_no_stale_cache_survives(self):
        """The admission guard behind the fix: a surviving stale entry
        is a loud SchemaError, never a silent wrong planner."""
        catalog = Catalog(plan="auto")
        catalog.create_table("t", ["a"])
        catalog.get("t").insert_batch(0, {"a": [1]})
        catalog.planner("t")
        # Simulate the pre-fix corruption: drop without the purge.
        with catalog._build_lock:
            del catalog._tables["t"]
            catalog._table_locks.pop("t")
        with pytest.raises(SchemaError, match="stale planner/executor"):
            catalog.create_table("t", ["a"])
        catalog.close()


class TestSourceLockErrors:
    def test_unknown_name_raises_schema_error(self):
        catalog = Catalog()
        with pytest.raises(SchemaError, match="no table named 'missing'"):
            catalog.source_lock("missing")
        catalog.close()

    def test_racing_drop_raises_schema_error_not_keyerror(self, monkeypatch):
        """Drop landing between the existence check and the lock lookup
        must surface as SchemaError (pre-fix: a bare KeyError)."""
        catalog = Catalog()
        catalog.create_table("t", ["a"])
        real_get = Catalog.get

        def racing_get(self, name):
            table = real_get(self, name)
            if name == "t" and "t" in self._tables:
                # A concurrent caller drops the table right after the
                # check passed.
                self.drop("t")
            return table

        monkeypatch.setattr(Catalog, "get", racing_get)
        with pytest.raises(SchemaError, match="no table named 't'"):
            catalog.source_lock("t")
        catalog.close()

    def test_sharded_sources_get_a_null_context(self):
        """Sharded stores synchronize internally (EpochGate + per-shard
        locks): their source lock is a reusable null context."""
        catalog = Catalog()

        class FakeSharded:
            scan_rows = scan_chunks = estimate_scan = lambda self: None
            partition_count = 1
            plan_mode = "auto"

        catalog.register_sharded("s", FakeSharded())
        lock = catalog.source_lock("s")
        assert isinstance(lock, AbstractContextManager)
        with lock:
            pass
        catalog.close()


class TestDropRecreateEndToEnd:
    def test_name_reuse_reflects_only_the_new_table(self):
        """Satellite: after drop→recreate under one name, planner
        statistics, access accounting and plan_report describe only the
        new table's life."""
        catalog = Catalog(plan="cost", stats="hist")
        first = catalog.create_table("t", ["a"])
        first.insert_batch(0, {"a": np.arange(0, 100)})
        first.insert_batch(1, {"a": np.arange(100, 200)})
        for low in (0, 50, 120):
            catalog.execute("t", _query(low, low + 40), epoch=1)
        catalog.execute(
            "t", AggregateQuery(AggregateFunction.SUM, "a"), epoch=1
        )
        first.forget(np.arange(0, 50), epoch=2)
        old_planner = catalog.planner("t")
        assert old_planner.stats()["queries_planned"] == 4
        assert int(first.access_counts().sum()) > 0

        catalog.drop("t")
        second = catalog.create_table("t", ["a"])
        second.insert_batch(0, {"a": np.array([1000, 1001, 1002])})
        result = catalog.execute("t", _query(1000, 1002), epoch=0)

        planner = catalog.planner("t")
        assert planner is not old_planner
        assert planner.table is second
        assert catalog.executor("t").table is second
        stats = planner.stats()
        assert stats["queries_planned"] == 1  # only the new table's query
        assert stats["zone_map_cohorts"] == 1
        assert result.rf == 2 and result.mf == 0
        # Access accounting starts from zero on the new table.
        assert second.access_counts().tolist() == [1, 1, 0]
        assert second.forgotten_count == 0
        report = catalog.plan_report()
        assert "1 queries planned" in report or "1 queries" in report
        # The old table keeps its own life, unreferenced by the catalog.
        assert first.forgotten_count == 50
        assert "t" in catalog and len(catalog) == 1
        catalog.close()

    def test_lifecycle_hooks_fire_in_order(self):
        events: list = []
        catalog = Catalog()
        catalog.add_lifecycle_hook(lambda event, name: events.append((event, name)))
        catalog.create_table("t", ["a"])
        catalog.drop("t")
        catalog.create_table("t", ["a"])
        assert events == [("create", "t"), ("drop", "t"), ("create", "t")]
        catalog.close()
