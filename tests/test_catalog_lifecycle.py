"""Catalog lifecycle: registration races and drop/recreate correctness.

A table's planner, executor and lock are built when it is registered
and stored as one entry under its name, so a lookup can never pair a
table with another table's planner.  The registration race is pinned
with a deterministic interleaving: of two ``create_table`` calls for
one name racing through ``Table.__init__`` exactly one may succeed,
or the later one would silently replace the table the first caller
is already writing to.
"""

from __future__ import annotations

import sys
import threading
from contextlib import AbstractContextManager

import numpy as np
import pytest

from repro._util.errors import SchemaError
from repro.query import AggregateFunction, AggregateQuery, RangePredicate, RangeQuery
from repro.storage import Catalog, Table


def _query(low: int, high: int) -> RangeQuery:
    return RangeQuery(RangePredicate("a", low, high))


class TestRegistrationRace:
    def test_racing_create_table_keeps_the_first_registration(self, monkeypatch):
        """Thread A pauses inside ``Table.__init__`` while thread B
        creates the same name and writes to it: A must lose with a
        SchemaError, B's table must stay registered, and A's table must
        carry no observer of the catalog's."""
        catalog = Catalog(plan="cost", stats="hist")
        in_init = threading.Event()
        resume = threading.Event()
        paused: list[Table] = []
        original_init = Table.__init__

        def paused_init(self, name, column_names):
            original_init(self, name, column_names)
            if threading.current_thread() is racer:
                paused.append(self)
                in_init.set()
                assert resume.wait(5)

        monkeypatch.setattr(Table, "__init__", paused_init)
        outcome: list = []

        def create():
            try:
                outcome.append(catalog.create_table("t", ["a"]))
            except SchemaError as exc:
                outcome.append(exc)

        racer = threading.Thread(target=create)
        racer.start()
        assert in_init.wait(5)
        winner = catalog.create_table("t", ["a"])
        winner.insert_batch(0, {"a": [1, 2, 3]})
        resume.set()
        racer.join(5)
        assert not racer.is_alive()

        assert isinstance(outcome[0], SchemaError)
        assert catalog.get("t") is winner
        assert catalog.planner("t").table is winner
        assert catalog.execute("t", _query(0, 10), epoch=0).rf == 3
        assert paused[0]._observers == []
        catalog.close()

    def test_many_racing_registrations_have_one_winner(self):
        """Stress: more threads than cores race ``create_table`` on one
        name with a short switch interval; each round exactly one wins
        and the registered table is the winner's."""
        catalog = Catalog(plan="auto")
        threads_per_round = 8
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                barrier = threading.Barrier(threads_per_round)
                won: list[Table] = []
                lost: list[SchemaError] = []

                def create():
                    barrier.wait(5)
                    try:
                        won.append(catalog.create_table("t", ["a"]))
                    except SchemaError as exc:
                        lost.append(exc)

                threads = [
                    threading.Thread(target=create)
                    for _ in range(threads_per_round)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(10)
                assert not any(thread.is_alive() for thread in threads)
                assert len(won) == 1 and len(lost) == threads_per_round - 1
                assert catalog.get("t") is won[0]
                assert catalog.planner("t").table is won[0]
                catalog.drop("t")
        finally:
            sys.setswitchinterval(previous)
        catalog.close()

    def test_losing_register_attaches_nothing(self):
        catalog = Catalog(plan="cost", stats="hist")
        catalog.create_table("t", ["a"])
        loser = Table("t", ["a"])
        loser.insert_batch(0, {"a": [1, 2]})
        with pytest.raises(SchemaError, match="already exists"):
            catalog.register(loser)
        assert loser._observers == []
        catalog.close()


class TestSourceLockErrors:
    def test_unknown_name_raises_schema_error(self):
        catalog = Catalog()
        with pytest.raises(SchemaError, match="no table named 'missing'"):
            catalog.source_lock("missing")
        catalog.close()

    def test_sharded_sources_get_a_null_context(self):
        """Sharded stores synchronize internally (EpochGate + per-shard
        locks): their source lock is a reusable null context."""
        catalog = Catalog()

        class FakeSharded:
            scan_chunks = estimate_scan = lambda self: None
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

    def test_recreate_binds_the_new_table(self):
        catalog = Catalog(plan="auto")
        old = catalog.create_table("t", ["a"])
        old.insert_batch(0, {"a": [1, 2, 3]})
        catalog.execute("t", _query(0, 10), epoch=0)
        catalog.drop("t")
        new = catalog.create_table("t", ["a"])
        assert catalog.planner("t").table is new
        assert catalog.executor("t").table is new
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
