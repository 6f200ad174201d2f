"""Serving layer: sessions, caches, the HTTP front end, and the smoke.

The heavy bit-identity proofs live in ``test_planner_equivalence.py``
(served caches vs uncached execution across policies × plan modes ×
stats modes × shard widths).  This module covers the serving machinery
itself: session/tenant scoping, both caches as units, the service's
operation surface and admission control, the HTTP wire, and the
concurrent multi-tenant smoke the CI step reruns against a live
server.
"""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import faults
from repro._util.errors import (
    AdmissionError,
    QueryError,
    ScopeError,
    ServingError,
    SessionError,
    TransientFault,
)
from repro.query import (
    AndPredicate,
    NotPredicate,
    OrPredicate,
    PointPredicate,
    RangePredicate,
    TruePredicate,
)
from repro.serving import (
    PlanCache,
    QueryService,
    ResultCache,
    SessionManager,
    TenantScope,
    guard_bounds,
    predicate_from_json,
    predicate_shape,
    serve_in_thread,
)
from repro.serving import RetryPolicy, ServiceClient
from repro.serving.server import MAX_REQUEST_BYTES, RETRY_AFTER_SECONDS
from repro.storage import Catalog, Table


def _catalog(rows: int = 200, plan: str = "cost", stats: str = "hist") -> Catalog:
    """A one-table catalog: ``obs(value, sensor)``, value = 0..rows-1."""
    catalog = Catalog(plan=plan, stats=stats)
    table = catalog.create_table("obs", ["value", "sensor"])
    table.insert_batch(
        0, {"value": np.arange(rows), "sensor": np.zeros(rows, dtype=np.int64)}
    )
    return catalog


def _range_request(token: str, low: int, high: int, source: str = "obs") -> dict:
    return {
        "op": "query",
        "token": token,
        "source": source,
        "kind": "range",
        "predicate": {"type": "range", "column": "value", "low": low, "high": high},
    }


# -- sessions & scoping --------------------------------------------------


class TestSessions:
    def test_open_get_close_lifecycle(self):
        manager = SessionManager()
        scope = TenantScope()
        session = manager.open("alice", scope)
        assert session.token.startswith("alice-")
        assert manager.get(session.token) is session
        assert manager.open_count == 1 and manager.opened_total == 1
        manager.close(session.token)
        assert manager.open_count == 0 and manager.opened_total == 1
        with pytest.raises(SessionError):
            manager.get(session.token)
        with pytest.raises(SessionError):
            manager.close(session.token)

    def test_close_all_counts_open_sessions(self):
        manager = SessionManager()
        for _ in range(3):
            manager.open("t", TenantScope())
        assert manager.close_all() == 3
        assert manager.open_count == 0

    def test_tokens_are_unique(self):
        manager = SessionManager()
        tokens = {manager.open("t", TenantScope()).token for _ in range(50)}
        assert len(tokens) == 50


class TestTenantScope:
    def test_table_scope(self):
        scope = TenantScope(tables=frozenset({"obs"}))
        scope.check_source("alice", "obs")
        with pytest.raises(ScopeError, match="may not address"):
            scope.check_source("alice", "secrets")

    def test_unscoped_tenant_sees_everything(self):
        scope = TenantScope()
        scope.check_source("root", "anything")
        scope.check_values("root", "value", -10, 10**9)

    def test_value_clamp(self):
        scope = TenantScope(value_bounds={"value": (0, 100)})
        scope.check_values("bob", "value", 10, 50)
        scope.check_values("bob", "other", -5, 10**6)  # unclamped column
        with pytest.raises(ScopeError, match="clamped"):
            scope.check_values("bob", "value", 50, 150)
        with pytest.raises(ScopeError, match="clamped"):
            scope.check_values("bob", "value", -1, 10)


# -- predicate JSON ------------------------------------------------------


class TestPredicateJson:
    def test_all_kinds_roundtrip_to_equal_shapes(self):
        spec = {
            "type": "and",
            "children": [
                {"type": "range", "column": "a", "low": 0, "high": 10},
                {
                    "type": "or",
                    "children": [
                        {"type": "point", "column": "b", "value": 3},
                        {"type": "not", "child": {"type": "true"}},
                    ],
                },
            ],
        }
        built = predicate_from_json(spec)
        expected = AndPredicate(
            RangePredicate("a", 0, 10),
            OrPredicate(PointPredicate("b", 3), NotPredicate(TruePredicate())),
        )
        assert predicate_shape(built) == predicate_shape(expected)

    @pytest.mark.parametrize(
        "bad",
        [
            None,
            [],
            "range",
            {"column": "a"},
            {"type": "rnage"},
            {"type": "range", "column": "a", "low": 0},
            {"type": "not"},
        ],
    )
    def test_malformed_specs_raise_query_error(self, bad):
        with pytest.raises(QueryError):
            predicate_from_json(bad)


# -- plan cache ----------------------------------------------------------


class TestPlanCache:
    def test_hit_while_generation_stands_still(self):
        catalog = _catalog()
        planner = catalog.planner("obs")
        plan = planner.plan(RangePredicate("value", 0, 50))
        cache = PlanCache()
        shape = predicate_shape(RangePredicate("value", 0, 50))
        cache.store("obs", shape, planner.generation, plan)
        assert cache.lookup("obs", shape, planner.generation) is plan
        assert cache.stats()["hits"] == 1
        catalog.close()

    def test_generation_move_evicts(self):
        catalog = _catalog()
        planner = catalog.planner("obs")
        table = catalog.get("obs")
        plan = planner.plan(RangePredicate("value", 0, 50))
        cache = PlanCache()
        shape = ("range", "value", 0, 50)
        cache.store("obs", shape, planner.generation, plan)
        table.insert_batch(1, {"value": [999], "sensor": [0]})  # bumps generation
        assert cache.lookup("obs", shape, planner.generation) is None
        assert cache.stats()["invalidations"] == 1
        assert len(cache) == 0
        catalog.close()

    def test_dropped_index_evicts_without_generation_move(self):
        from repro.indexes import SortedIndex

        # Only forced index mode plans an index read: auto and cost read
        # the value order, which an index plan reads on top of its probe.
        catalog = _catalog(plan="index")
        index = catalog.create_index("obs", "value", SortedIndex)
        planner = catalog.planner("obs")
        plan = planner.plan(RangePredicate("value", 0, 50))
        assert plan.index is index
        cache = PlanCache()
        generation = planner.generation
        cache.store("obs", "shape", generation, plan)
        index.drop()
        assert planner.generation == generation  # drops don't bump it
        assert cache.lookup("obs", "shape", generation) is None
        catalog.close()

    def test_lru_capacity_and_invalidate_source(self):
        cache = PlanCache(max_entries=2)

        class FakePlan:
            index = None

        a, b, c = FakePlan(), FakePlan(), FakePlan()
        cache.store("s", "a", (0,), a)
        cache.store("s", "b", (0,), b)
        assert cache.lookup("s", "a", (0,)) is a  # refresh recency
        cache.store("s", "c", (0,), c)  # evicts "b", the LRU entry
        assert cache.lookup("s", "b", (0,)) is None
        assert cache.lookup("s", "a", (0,)) is a
        assert cache.invalidate_source("s") == 2
        assert len(cache) == 0
        with pytest.raises(QueryError):
            PlanCache(max_entries=0)

    def test_shape_rejects_unknown_predicate_types(self):
        class Weird:
            pass

        with pytest.raises(QueryError, match="cache shape"):
            predicate_shape(Weird())


# -- result cache --------------------------------------------------------


class TestResultCache:
    def test_guard_bounds_decomposition(self):
        assert guard_bounds(RangePredicate("a", 0, 10)) == (("a", 0, 10),)
        point = guard_bounds(PointPredicate("a", 5))
        assert point == (("a", 5, 6),)
        conj = guard_bounds(
            AndPredicate(RangePredicate("a", 0, 10), RangePredicate("b", 3, 7))
        )
        assert conj is not None and set(conj) == {("a", 0, 10), ("b", 3, 7)}
        assert guard_bounds(TruePredicate()) is None
        assert (
            guard_bounds(
                OrPredicate(RangePredicate("a", 0, 1), RangePredicate("a", 5, 6))
            )
            is None
        )

    def _seeded(self):
        table = Table("t", ["a"])
        table.insert_batch(0, {"a": np.arange(100)})
        cache = ResultCache()
        cache.watch("t", table)
        cache.watch("t", table)  # idempotent: one observer, not two
        active = np.arange(0, 10)
        cache.store(
            "t",
            "key",
            {"rf": 10},
            active,
            np.array([], dtype=np.int64),
            table,
            guard_bounds(RangePredicate("a", 0, 10)),
        )
        return table, cache

    def test_insert_outside_guard_keeps_entry(self):
        table, cache = self._seeded()
        table.insert_batch(1, {"a": np.arange(500, 520)})
        assert cache.lookup("t", "key") is not None

    def test_insert_inside_guard_evicts(self):
        table, cache = self._seeded()
        table.insert_batch(1, {"a": [5]})
        assert cache.lookup("t", "key") is None
        assert cache.stats()["invalidations"] == 1

    def test_unguarded_entry_evicts_on_any_insert(self):
        table, cache = self._seeded()
        cache.store(
            "t",
            "all",
            {"rf": 100},
            np.arange(100),
            np.array([], dtype=np.int64),
            table,
            None,  # TruePredicate-style: no provable guard
        )
        table.insert_batch(1, {"a": [10**6]})
        assert cache.lookup("t", "all") is None
        # The guarded entry survived the same (out-of-range) batch.
        assert cache.lookup("t", "key") is not None

    def test_forget_evicts_only_intersecting_cohorts(self):
        table = Table("t", ["a"])
        table.insert_batch(0, {"a": np.arange(100)})  # cohort 0
        table.insert_batch(1, {"a": np.arange(1000, 1100)})  # cohort 1
        cache = ResultCache()
        cache.watch("t", table)
        empty = np.array([], dtype=np.int64)
        cache.store("t", "low", {}, np.arange(0, 100), empty, table,
                    guard_bounds(RangePredicate("a", 0, 100)))
        cache.store("t", "high", {}, np.arange(100, 200), empty, table,
                    guard_bounds(RangePredicate("a", 1000, 1100)))
        table.forget(np.array([150, 151]), epoch=1)  # cohort 1 only
        assert cache.lookup("t", "high") is None
        assert cache.lookup("t", "low") is not None

    def test_unwatch_detaches_and_purges(self):
        table, cache = self._seeded()
        cache.unwatch("t", table)
        assert len(cache) == 0
        table.insert_batch(1, {"a": [5]})  # no observer left to notify
        assert cache.stats()["invalidations"] == 1  # only the unwatch purge

    def test_capacity_is_lru(self):
        table = Table("t", ["a"])
        table.insert_batch(0, {"a": np.arange(10)})
        cache = ResultCache(max_entries=2)
        empty = np.array([], dtype=np.int64)
        for key in ("a", "b", "c"):
            cache.store("t", key, {}, np.arange(3), empty, table, None)
        assert cache.lookup("t", "a") is None
        assert cache.lookup("t", "b") is not None
        assert cache.lookup("t", "c") is not None
        with pytest.raises(QueryError):
            ResultCache(max_entries=0)


# -- the service ---------------------------------------------------------


class TestQueryService:
    def _service(self, **kwargs):
        catalog = _catalog()
        service = QueryService(catalog, **kwargs)
        service.register_tenant("alice", tables={"obs"})
        service.register_tenant(
            "bob", tables={"obs"}, value_bounds={"value": (0, 100)}
        )
        return catalog, service

    def test_query_miss_then_hit_with_replayed_accounting(self):
        catalog, service = self._service()
        token = service.open_session("alice").token
        first = service.handle(_range_request(token, 0, 10))
        second = service.handle(_range_request(token, 0, 10))
        assert first["ok"] and second["ok"]
        assert (first["cached"], second["cached"]) == (False, True)
        assert second["rf"] == 10 and second["fingerprint"] == first["fingerprint"]
        # The hit replayed record_access: both issues count, exactly as
        # an uncached service would have counted them.
        assert catalog.get("obs").access_counts()[:10].tolist() == [2] * 10
        stats = service.stats()
        assert stats["tenants"]["alice"]["cache_hits"] == 1
        assert stats["tenants"]["alice"]["rows_returned"] == 20
        assert stats["tenants"]["alice"]["access_total"] == 20
        catalog.close()

    def test_aggregate_query_roundtrip(self):
        catalog, service = self._service()
        token = service.open_session("alice").token
        request = {
            "op": "query",
            "token": token,
            "source": "obs",
            "kind": "aggregate",
            "function": "avg",
            "column": "value",
            "predicate": None,  # whole table
        }
        result = service.handle(request)
        assert result["kind"] == "aggregate"
        assert result["amnesiac_value"] == pytest.approx(99.5)
        assert service.handle(request)["cached"] is True
        catalog.close()

    def test_ingest_advances_epoch_and_respects_guards(self):
        catalog, service = self._service()
        token = service.open_session("alice").token
        service.handle(_range_request(token, 0, 10))
        # Out-of-guard batch: the cached entry must survive.
        ingest = service.handle(
            {
                "op": "ingest",
                "token": token,
                "source": "obs",
                "rows": {"value": [500, 501], "sensor": [1, 1]},
            }
        )
        assert ingest["inserted"] == 2 and ingest["epoch"] == 1
        assert service.handle(_range_request(token, 0, 10))["cached"] is True
        # In-guard batch: evicted, and the fresh answer sees the row.
        service.handle(
            {
                "op": "ingest",
                "token": token,
                "source": "obs",
                "rows": {"value": [5], "sensor": [2]},
            }
        )
        requery = service.handle(_range_request(token, 0, 10))
        assert requery["cached"] is False and requery["rf"] == 11
        catalog.close()

    def test_forget_invalidates_and_counts(self):
        catalog, service = self._service()
        token = service.open_session("alice").token
        service.handle(_range_request(token, 0, 10))
        gone = service.handle(
            {"op": "forget", "token": token, "source": "obs", "positions": [3, 4]}
        )
        assert gone["forgotten"] == 2
        requery = service.handle(_range_request(token, 0, 10))
        assert requery["cached"] is False
        assert requery["rf"] == 8 and requery["mf"] == 2
        assert service.stats()["tenants"]["alice"]["rows_forgotten"] == 2
        catalog.close()

    def test_scope_enforcement(self):
        catalog, service = self._service()
        alice = service.open_session("alice").token
        bob = service.open_session("bob").token
        with pytest.raises(ScopeError):  # table out of scope
            service.handle(_range_request(alice, 0, 10, source="other"))
        # bob is clamped to value < 100: in-range succeeds…
        assert service.handle(_range_request(bob, 0, 50))["ok"]
        with pytest.raises(ScopeError):  # …beyond the clamp fails
            service.handle(_range_request(bob, 50, 150))
        with pytest.raises(ScopeError):  # no provable bounds on the clamp
            service.handle(
                {
                    "op": "query",
                    "token": bob,
                    "source": "obs",
                    "kind": "range",
                    "predicate": {"type": "true"},
                }
            )
        with pytest.raises(ScopeError):  # ingest outside the clamp
            service.handle(
                {
                    "op": "ingest",
                    "token": bob,
                    "source": "obs",
                    "rows": {"value": [150], "sensor": [0]},
                }
            )
        with pytest.raises(SessionError):  # unknown token → 401 path
            service.handle(_range_request("nope", 0, 10))
        catalog.close()

    def test_malformed_requests(self):
        catalog, service = self._service()
        token = service.open_session("alice").token
        with pytest.raises(QueryError):
            service.handle("not a dict")
        with pytest.raises(QueryError):
            service.handle({"op": "frobnicate", "token": token})
        with pytest.raises(QueryError):
            service.handle(
                {"op": "query", "token": token, "source": "obs", "kind": "cube"}
            )
        with pytest.raises(QueryError):
            service.handle({"op": "ingest", "token": token, "source": "obs"})
        with pytest.raises(QueryError):
            service.handle({"op": "forget", "token": token, "source": "obs"})
        with pytest.raises(SessionError):
            service.open_session("mallory")  # unregistered tenant
        catalog.close()

    def test_admission_control_rejects_at_capacity(self):
        catalog, service = self._service(max_inflight=1)
        token = service.open_session("alice").token
        assert service._admission.acquire(blocking=False)  # fill the slot
        try:
            with pytest.raises(AdmissionError):
                service.handle(_range_request(token, 0, 10))
        finally:
            service._admission.release()
        stats = service.stats()
        assert stats["rejected"] == 1
        assert stats["tenants"]["alice"]["rejected"] == 1
        # Session ops are always admitted; the slot is free again.
        assert service.handle({"op": "stats"})["ok"]
        assert service.handle(_range_request(token, 0, 10))["ok"]
        with pytest.raises(ServingError):
            QueryService(_catalog(), max_inflight=0)
        catalog.close()

    def test_explain_reports_the_plan(self):
        catalog, service = self._service()
        token = service.open_session("alice").token
        result = service.handle(
            {
                "op": "explain",
                "token": token,
                "source": "obs",
                "kind": "range",
                "predicate": {
                    "type": "range",
                    "column": "value",
                    "low": 0,
                    "high": 10,
                },
            }
        )
        assert result["ok"] and result["mode"] in {"scan", "zonemap", "index"}
        assert result["plan"]
        catalog.close()

    def test_drop_recreate_purges_service_caches(self):
        catalog, service = self._service()
        token = service.open_session("alice").token
        service.handle(_range_request(token, 0, 10))
        assert service.result_cache.entries_for("obs") == 1
        catalog.drop("obs")
        assert service.result_cache.entries_for("obs") == 0
        assert len(service.plan_cache) == 0
        # Recreate under the same name with different data: the service
        # must serve the new table, never the old cache.
        table = catalog.create_table("obs", ["value", "sensor"])
        table.insert_batch(0, {"value": [1, 2, 3], "sensor": [0, 0, 0]})
        result = service.handle(_range_request(token, 0, 10))
        assert result["cached"] is False and result["rf"] == 3
        catalog.close()

    def test_paranoid_mode_verifies_hits(self):
        catalog, service = self._service(paranoid=True)
        token = service.open_session("alice").token
        first = service.handle(_range_request(token, 0, 10))
        second = service.handle(_range_request(token, 0, 10))
        assert second["cached"] is True
        assert second["fingerprint"] == first["fingerprint"]
        assert service.stats()["stale_hits"] == 0
        # Paranoid hits re-execute, so accounting still matches an
        # uncached service: one bump per issue.
        assert catalog.get("obs").access_counts()[:10].tolist() == [2] * 10
        # Corrupt an entry by hand: the paranoid check must catch it.
        entry = service.result_cache.lookup(
            "obs", ("range", ("range", "value", 0, 10))
        )
        entry.payload["rf"] = 99
        with pytest.raises(ServingError, match="stale cache hit"):
            service.handle(_range_request(token, 0, 10))
        assert service.stats()["stale_hits"] == 1
        catalog.close()

    @pytest.mark.parametrize("paranoid", (False, True))
    def test_every_served_execution_matches_through_the_executor(
        self, monkeypatch, paranoid
    ):
        """Cache misses and paranoid re-executions all go through
        ``QueryExecutor.match``; nothing in serving calls the planner's
        ``match`` on its own."""
        from repro.query import QueryExecutor, QueryPlanner

        calls = {"executor": 0, "planner": 0}
        executor_match = QueryExecutor.match
        planner_match = QueryPlanner.match

        def counting_executor(self, *args, **kwargs):
            calls["executor"] += 1
            return executor_match(self, *args, **kwargs)

        def counting_planner(self, *args, **kwargs):
            calls["planner"] += 1
            return planner_match(self, *args, **kwargs)

        monkeypatch.setattr(QueryExecutor, "match", counting_executor)
        monkeypatch.setattr(QueryPlanner, "match", counting_planner)
        catalog, service = self._service(paranoid=paranoid)
        token = service.open_session("alice").token
        aggregate = {
            "op": "query",
            "token": token,
            "source": "obs",
            "kind": "aggregate",
            "function": "sum",
            "column": "value",
            "predicate": {"type": "range", "column": "value", "low": 5, "high": 50},
        }
        requests = [_range_request(token, 0, 10), aggregate]
        for request in requests + requests:
            service.handle(request)
        misses, hits = len(requests), len(requests)
        expected = misses + (hits if paranoid else 0)
        assert calls == {"executor": expected, "planner": expected}
        catalog.close()

    def test_close_detaches_from_catalog(self):
        catalog, service = self._service()
        service.open_session("alice")
        service.close()
        assert service.sessions.open_count == 0
        # Lifecycle events no longer reach the detached service.
        catalog.drop("obs")
        catalog.create_table("obs", ["value"])
        catalog.close()


# -- HTTP front end ------------------------------------------------------


def _post(port: int, body: dict) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(
            "POST", "/", json.dumps(body), {"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _get(port: int, path: str) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _count_connections(server) -> list:
    """Record every connection ``server`` accepts from now on."""
    accepted = []
    process_request = server.process_request

    def counting(request, client_address):
        accepted.append(client_address)
        process_request(request, client_address)

    server.process_request = counting
    return accepted


def _handler_threads() -> list[threading.Thread]:
    return [
        t for t in threading.enumerate() if "process_request_thread" in t.name
    ]


class TestHTTPServer:
    def test_end_to_end_over_the_wire(self):
        catalog = _catalog()
        service = QueryService(catalog)
        service.register_tenant("alice", tables={"obs"})
        service.register_tenant(
            "bob", tables={"obs"}, value_bounds={"value": (0, 100)}
        )
        server, thread = serve_in_thread(service)
        port = server.server_address[1]
        try:
            status, health = _get(port, "/health")
            assert status == 200
            assert health["ok"] is True
            assert health["inflight"] == 0
            assert health["max_inflight"] == service.max_inflight
            assert health["degraded"] is False
            status, body = _post(port, {"op": "open_session", "tenant": "alice"})
            assert status == 200 and body["ok"]
            token = body["token"]

            status, first = _post(port, _range_request(token, 0, 10))
            assert status == 200 and first["cached"] is False
            status, second = _post(port, _range_request(token, 0, 10))
            assert status == 200 and second["cached"] is True
            assert second["fingerprint"] == first["fingerprint"]

            # Typed errors map to their status codes.
            assert _post(port, _range_request("bad-token", 0, 10))[0] == 401
            status, body = _post(port, {"op": "open_session", "tenant": "bob"})
            bob = body["token"]
            assert _post(port, _range_request(bob, 50, 150))[0] == 403
            assert _post(port, {"op": "nope", "token": token})[0] == 400
            assert _get(port, "/missing")[0] == 404

            # Raw bad JSON is a 400, not a hung connection.
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                conn.request("POST", "/", "{not json")
                assert conn.getresponse().status == 400
            finally:
                conn.close()

            status, stats = _get(port, "/stats")
            assert status == 200
            assert stats["result_cache"]["hits"] >= 1
            assert stats["sessions_open"] == 2

            status, body = _post(port, {"op": "close_session", "token": token})
            assert status == 200 and body["ok"]
            assert _post(port, _range_request(token, 0, 10))[0] == 401
        finally:
            server.shutdown()
            thread.join(5)
            server.server_close()
            service.close()
            catalog.close()
        assert not thread.is_alive()


@pytest.fixture(scope="class")
def alice_server():
    """One live server for a class: ``(catalog, port, alice, bob)``."""
    catalog, service, server, thread = _serve_alice()
    port = server.server_address[1]
    alice = _post(port, {"op": "open_session", "tenant": "alice"})[1]["token"]
    bob = _post(port, {"op": "open_session", "tenant": "bob"})[1]["token"]
    yield catalog, port, alice, bob
    _close_all(catalog, service, server, thread)


def _forget_request(token: str, **fields) -> dict:
    return {"op": "forget", "token": token, "source": "obs", **fields}


def _query_with_low(token: str, low) -> dict:
    request = _range_request(token, 0, 10)
    request["predicate"]["low"] = low
    return request


class TestMalformedFields:
    """A field of the wrong type or range is a 400 that changes nothing:
    never a 500, and never silently truncated into a valid request."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda alice, bob: _forget_request(alice, positions=[2.7]),
            lambda alice, bob: _forget_request(alice, positions=[[1, 2]]),
            lambda alice, bob: _forget_request(alice, positions=[[1, 2], [3]]),
            lambda alice, bob: _forget_request(alice, positions=["3"]),
            lambda alice, bob: _forget_request(alice, positions=[-1]),
            lambda alice, bob: _forget_request(alice, positions=[200]),
            lambda alice, bob: _forget_request(alice, n="abc"),
            lambda alice, bob: _forget_request(alice, n=2.9),
            lambda alice, bob: {
                "op": "ingest",
                "token": bob,
                "source": "obs",
                "rows": {"value": ["x"], "sensor": [0]},
            },
            lambda alice, bob: {
                "op": "ingest",
                "token": bob,
                "source": "obs",
                "rows": {"value": 5, "sensor": [0]},
            },
            lambda alice, bob: _query_with_low(alice, "a"),
            lambda alice, bob: _query_with_low(alice, 2.7),
        ],
        ids=[
            "forget-fraction",
            "forget-2d",
            "forget-ragged",
            "forget-string",
            "forget-negative",
            "forget-past-end",
            "forget-n-string",
            "forget-n-fraction",
            "scoped-ingest-string",
            "scoped-ingest-scalar",
            "predicate-low-string",
            "predicate-low-fraction",
        ],
    )
    def test_bad_field_is_400_and_changes_nothing(self, alice_server, make):
        catalog, port, alice, bob = alice_server
        table = catalog.get("obs")
        before = (table.total_rows, table.active_positions().tolist())
        status, body = _post(port, make(alice, bob))
        assert status == 400, body
        assert body["ok"] is False
        assert (table.total_rows, table.active_positions().tolist()) == before


class TestDuplicateForget:
    def test_repeated_position_forgets_once(self):
        """A position named twice is one forget: 200, one row flipped,
        and the histogram statistics agree with the table.  On a small
        table a doubled forget used to drive a histogram bin negative
        mid-notification, answering 400 after the row had flipped."""
        catalog = _catalog(rows=10)
        service = QueryService(catalog)
        service.register_tenant("alice", tables={"obs"})
        server, thread = serve_in_thread(service)
        port = server.server_address[1]
        try:
            alice = _post(port, {"op": "open_session", "tenant": "alice"})[1][
                "token"
            ]
            # A first query builds the planner and its histograms.
            assert _post(port, _range_request(alice, 0, 5))[0] == 200
            status, body = _post(
                port, _forget_request(alice, positions=[3, 3])
            )
            assert status == 200, body
            assert body["forgotten"] == 1
            table = catalog.get("obs")
            assert table.forgotten_positions().tolist() == [3]
            stats = catalog.planner("obs").table_stats
            active, forgotten = stats.histograms("value")
            assert (active.total, forgotten.total) == (
                table.active_count,
                table.forgotten_count,
            )
        finally:
            _close_all(catalog, service, server, thread)


class TestForgetScope:
    """A tenant clamped by ``value_bounds`` forgets only rows it could
    read: a named position outside the clamp is a 403 that changes
    nothing (so the reply tells nothing about that row), and the ``n``
    form counts only in-clamp rows.  Unclamped tenants are unaffected."""

    def test_named_positions_outside_the_clamp_are_refused(self):
        catalog, service, server, thread = _serve_alice()
        port = server.server_address[1]
        try:
            bob = _post(port, {"op": "open_session", "tenant": "bob"})[1]["token"]
            table = catalog.get("obs")
            for positions in ([150, 151, 152], [50, 150]):
                for _ in range(2):  # the same answer whether active or not
                    status, body = _post(
                        port, _forget_request(bob, positions=positions)
                    )
                    assert status == 403, body
                    assert body["ok"] is False
                    # The refusal names the clamp, never a row's value.
                    assert "150" not in body["detail"], body
            assert table.forgotten_count == 0
            status, body = _post(port, _forget_request(bob, positions=[50, 99]))
            assert status == 200 and body["forgotten"] == 2
            assert table.forgotten_positions().tolist() == [50, 99]
        finally:
            _close_all(catalog, service, server, thread)

    def test_n_form_takes_only_in_clamp_rows(self):
        catalog, service, server, thread = _serve_alice()
        port = server.server_address[1]
        try:
            alice, bob = (
                _post(port, {"op": "open_session", "tenant": t})[1]["token"]
                for t in ("alice", "bob")
            )
            # Values 150, 10, 160, 20 land at positions 200..203.
            ingest = {
                "op": "ingest",
                "token": alice,
                "source": "obs",
                "rows": {"value": [150, 10, 160, 20], "sensor": [0, 0, 0, 0]},
            }
            assert _post(port, ingest)[0] == 200
            assert _post(port, _forget_request(alice, n=98))[1]["forgotten"] == 98
            table = catalog.get("obs")
            status, body = _post(port, _forget_request(bob, n=3))
            assert status == 200 and body["forgotten"] == 3
            assert table.forgotten_positions().tolist() == (
                list(range(100)) + [201]
            )
            status, body = _post(port, _forget_request(bob, n=5))
            assert status == 200 and body["forgotten"] == 1
            assert _post(port, _forget_request(bob, n=1))[1]["forgotten"] == 0
            active = table.active_positions()
            assert (table.values("value")[active] >= 100).all()
            assert active.tolist() == list(range(100, 201)) + [202]
        finally:
            _close_all(catalog, service, server, thread)

    def test_unclamped_tenant_forgets_as_before(self):
        catalog, service, server, thread = _serve_alice()
        port = server.server_address[1]
        try:
            alice = _post(port, {"op": "open_session", "tenant": "alice"})[1][
                "token"
            ]
            table = catalog.get("obs")
            status, body = _post(
                port, _forget_request(alice, positions=[150, 151, 152])
            )
            assert status == 200 and body["forgotten"] == 3
            status, body = _post(
                port, _forget_request(alice, positions=[150, 151, 152])
            )
            assert status == 200 and body["forgotten"] == 0
            status, body = _post(port, _forget_request(alice, n=2))
            assert status == 200 and body["forgotten"] == 2
            assert table.forgotten_positions().tolist() == [0, 1, 150, 151, 152]
        finally:
            _close_all(catalog, service, server, thread)


class TestTornInsert:
    def test_rejected_ingest_leaves_the_table_usable(self):
        """After a 400 ingest, the table answers like a fresh one."""

        def replay(bad_first: bool) -> list:
            catalog, service, server, thread = _serve_alice()
            port = server.server_address[1]
            try:
                token = _post(port, {"op": "open_session", "tenant": "alice"})[1][
                    "token"
                ]
                ingest = {"op": "ingest", "token": token, "source": "obs"}
                if bad_first:
                    status, _ = _post(
                        port, {**ingest, "rows": {"value": [7], "sensor": [1.5]}}
                    )
                    assert status == 400
                replies = [
                    _post(
                        port, {**ingest, "rows": {"value": [5, 6], "sensor": [1, 1]}}
                    ),
                    _post(port, _range_request(token, 0, 10)),
                ]
                table = catalog.get("obs")
                assert len(table.cohorts) == 2
                assert len(table.values("value")) == len(table.values("sensor"))
                return replies
            finally:
                _close_all(catalog, service, server, thread)

        torn = replay(bad_first=True)
        assert [status for status, _ in torn] == [200, 200]
        assert torn == replay(bad_first=False)


# -- the concurrent smoke ------------------------------------------------


class TestConcurrentSmoke:
    """~100 concurrent HTTP clients, two tenants, paranoid service.

    This is the CI smoke contract from the issue: cache hit-rate above
    zero, zero stale answers (asserted by the paranoid re-execution on
    every hit, not assumed), and a clean shutdown.
    """

    CLIENTS = 100

    def _client(self, port: int, index: int) -> list:
        # One keep-alive connection carries all of this client's calls,
        # 429 backoffs included.
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            return self._session(conn, index)
        finally:
            conn.close()

    def _session(self, conn: http.client.HTTPConnection, index: int) -> list:
        tenant = "alice" if index % 2 == 0 else "bob"
        outcomes = []

        def post(body: dict) -> tuple[int, dict]:
            conn.request(
                "POST", "/", json.dumps(body), {"Content-Type": "application/json"}
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read())

        def call(body: dict) -> dict:
            # 429 is legal under admission control; back off and retry.
            for attempt in range(40):
                status, payload = post(body)
                if status != 429:
                    outcomes.append((status, body["op"], payload))
                    return payload
                time.sleep(0.01 * (attempt + 1))
            raise AssertionError("admission control never let the client in")

        token = call({"op": "open_session", "tenant": tenant})["token"]
        # A small shared shape pool so distinct clients collide on the
        # cache; bob's shapes stay inside the [0, 1000) clamp.
        low = (index % 5) * 100
        call(_range_request(token, low, low + 100))
        call(_range_request(token, low, low + 100))
        call(
            {
                "op": "query",
                "token": token,
                "source": "obs",
                "kind": "aggregate",
                "function": "sum",
                "column": "value",
                "predicate": {
                    "type": "range",
                    "column": "value",
                    "low": 0,
                    "high": 500,
                },
            }
        )
        if tenant == "alice" and index % 10 == 0:
            call(
                {
                    "op": "ingest",
                    "token": token,
                    "source": "obs",
                    "rows": {"value": [1500 + index], "sensor": [index]},
                }
            )
        if tenant == "alice" and index % 20 == 0:
            call({"op": "forget", "token": token, "source": "obs", "n": 1})
        call({"op": "close_session", "token": token})
        return outcomes

    def test_hundred_clients_two_tenants_zero_stale(self):
        catalog = Catalog(plan="cost", stats="hist")
        table = catalog.create_table("obs", ["value", "sensor"])
        rng = np.random.default_rng(20170108)
        table.insert_batch(
            0,
            {
                "value": rng.integers(0, 1000, size=2000),
                "sensor": rng.integers(0, 16, size=2000),
            },
        )
        service = QueryService(catalog, max_inflight=64, paranoid=True)
        service.register_tenant("alice", tables={"obs"})
        service.register_tenant(
            "bob", tables={"obs"}, value_bounds={"value": (0, 1000)}
        )
        server, thread = serve_in_thread(service)
        port = server.server_address[1]
        accepted = _count_connections(server)
        try:
            with ThreadPoolExecutor(max_workers=self.CLIENTS) as pool:
                futures = [
                    pool.submit(self._client, port, index)
                    for index in range(self.CLIENTS)
                ]
                outcomes = [f.result(timeout=120) for f in futures]
            for client_outcomes in outcomes:
                for status, op, payload in client_outcomes:
                    assert status == 200, (op, payload)
            assert len(accepted) == self.CLIENTS  # one connection each
            stats = service.stats()
            # Every hit was re-executed and compared by the paranoid
            # service: a hit rate with zero stale hits is a *proof* of
            # bit-identical serving under concurrent mutation.
            assert stats["stale_hits"] == 0
            assert stats["result_cache"]["hits"] > 0
            assert stats["result_cache"]["hit_rate"] > 0
            assert stats["sessions_opened"] == self.CLIENTS
            assert stats["sessions_open"] == 0  # every client closed
            for tenant in ("alice", "bob"):
                assert stats["tenants"][tenant]["queries"] > 0
                assert stats["tenants"][tenant]["access_total"] > 0
            assert stats["tenants"]["alice"]["rows_ingested"] == 10
            assert stats["tenants"]["alice"]["rows_forgotten"] == 5
        finally:
            server.shutdown()
            thread.join(10)
            server.server_close()
            service.close()
            catalog.close()
        assert not thread.is_alive(), "server thread must stop cleanly"


# -- resilience ----------------------------------------------------------


def _post_raw(port: int, body: dict) -> tuple[int, dict, dict]:
    """Like ``_post``, but also returns the response headers."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(
            "POST", "/", json.dumps(body), {"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        return (
            response.status,
            dict(response.getheaders()),
            json.loads(response.read()),
        )
    finally:
        conn.close()


class TestRetryPolicy:
    def test_same_seed_same_backoff_sequence(self):
        first = RetryPolicy(seed=5, sleep=lambda s: None)
        second = RetryPolicy(seed=5, sleep=lambda s: None)
        other = RetryPolicy(seed=6, sleep=lambda s: None)
        sequence = [first.backoff(k) for k in range(5)]
        assert sequence == [second.backoff(k) for k in range(5)]
        assert sequence != [other.backoff(k) for k in range(5)]

    def test_backoff_is_capped_exponential(self):
        bare = RetryPolicy(
            jitter=0.0, base_delay=0.05, multiplier=2.0, max_delay=0.15
        )
        assert [bare.backoff(k) for k in range(4)] == [0.05, 0.1, 0.15, 0.15]

    def test_retry_after_floors_the_delay(self):
        policy = RetryPolicy(base_delay=0.01, max_delay=0.02, jitter=0.0)
        assert policy.backoff(0) == 0.01
        assert policy.backoff(0, retry_after=3.5) == 3.5

    def test_call_retries_then_succeeds(self):
        slept: list[float] = []
        policy = RetryPolicy(attempts=3, sleep=slept.append)
        calls: list[int] = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                fault = TransientFault("not yet")
                fault.retry_after = 0.7
                raise fault
            return "done"

        assert policy.call(flaky) == "done"
        assert len(calls) == 3
        assert len(slept) == 2 and all(s >= 0.7 for s in slept)

    def test_call_exhausts_budget_and_raises(self):
        calls: list[int] = []

        def always_failing():
            calls.append(1)
            raise TransientFault("still down")

        policy = RetryPolicy(attempts=2, sleep=lambda s: None)
        with pytest.raises(TransientFault):
            policy.call(always_failing)
        assert len(calls) == 2

    def test_non_transient_errors_are_not_retried(self):
        calls: list[int] = []

        def broken():
            calls.append(1)
            raise ServingError("permanent")

        policy = RetryPolicy(attempts=5, sleep=lambda s: None)
        with pytest.raises(ServingError):
            policy.call(broken)
        assert len(calls) == 1

    def test_bad_parameters_rejected(self):
        with pytest.raises(ServingError):
            RetryPolicy(attempts=0)
        with pytest.raises(ServingError):
            RetryPolicy(base_delay=-1)


class TestDegradedMode:
    """Graceful degradation: hysteresis and what exactly gets shed."""

    @staticmethod
    def _admit_at_depth(service, depth: int) -> None:
        with service._traffic_lock:
            service._inflight = depth
            service._note_load_locked()

    def test_hysteresis_enters_and_exits(self):
        catalog = _catalog()
        service = QueryService(catalog, max_inflight=4, degrade_after=2)
        try:
            assert (service._high_water, service._low_water) == (3, 1)
            # One admission at high water is not "sustained" yet.
            self._admit_at_depth(service, 3)
            assert service.degraded is False
            self._admit_at_depth(service, 2)  # streak broken
            self._admit_at_depth(service, 3)
            self._admit_at_depth(service, 3)  # degrade_after reached
            assert service.degraded is True
            # Between the water marks the mode holds — no flapping.
            self._admit_at_depth(service, 2)
            assert service.degraded is True
            self._admit_at_depth(service, 1)  # low water: recover
            assert service.degraded is False
        finally:
            service.close()
            catalog.close()

    def test_degraded_sheds_paranoia_and_cache_writes(self):
        catalog = _catalog()
        # max_inflight=3: low water is 0, so single-threaded requests
        # (depth 1) neither enter nor exit the mode on their own.
        service = QueryService(catalog, max_inflight=3, paranoid=True)
        try:
            service.register_tenant("alice")
            token = service.open_session("alice").token
            executions: list[int] = []
            real_execute = service._execute

            def counting_execute(table, query, epoch, *, plan=None):
                executions.append(1)
                return real_execute(table, query, epoch, plan=plan)

            service._execute = counting_execute
            request = _range_request(token, 10, 40)
            assert service.handle(request)["cached"] is False
            # Healthy paranoid hit re-executes to validate the cache.
            assert service.handle(request)["cached"] is True
            assert len(executions) == 2
            with service._traffic_lock:
                service._degraded = True
            # Degraded hit skips the paranoid re-execution...
            assert service.handle(request)["cached"] is True
            assert len(executions) == 2
            # ...and a degraded miss answers but sheds the cache write.
            other = _range_request(token, 50, 90)
            assert service.handle(other)["cached"] is False
            assert service.handle(other)["cached"] is False  # still no entry
            health = service.health()
            assert health["degraded"] is True
            assert health["shed_writes"] == 2
        finally:
            service.close()
            catalog.close()


class TestResilientWire:
    """The failure half of the HTTP contract, over real sockets."""

    def _serve(self, *, max_inflight=4, deadline=None):
        catalog = _catalog()
        service = QueryService(catalog, max_inflight=max_inflight)
        service.register_tenant("alice")
        server, thread = serve_in_thread(service, deadline=deadline)
        return catalog, service, server, thread, server.server_address[1]

    @staticmethod
    def _stop(catalog, service, server, thread) -> None:
        server.shutdown()
        thread.join(10)
        server.server_close()
        service.close()
        catalog.close()

    @staticmethod
    def _drain_inflight(service, timeout: float = 5.0) -> None:
        deadline = time.time() + timeout
        while service.health()["inflight"] and time.time() < deadline:
            time.sleep(0.01)

    def test_429_carries_retry_after_header(self):
        catalog, service, server, thread, port = self._serve(max_inflight=1)
        try:
            _, body = _post(port, {"op": "open_session", "tenant": "alice"})
            token = body["token"]
            assert service._admission.acquire(blocking=False)
            try:
                status, headers, body = _post_raw(
                    port, _range_request(token, 0, 10)
                )
            finally:
                service._admission.release()
            assert status == 429
            assert headers.get("Retry-After") == str(RETRY_AFTER_SECONDS)
            assert body["error"] == "AdmissionError"
        finally:
            self._stop(catalog, service, server, thread)

    def test_deadline_returns_503_with_retry_after(self):
        catalog, service, server, thread, port = self._serve(deadline=0.1)
        try:
            _, body = _post(port, {"op": "open_session", "tenant": "alice"})
            token = body["token"]
            with faults.armed("serve.handle:delay=0.6"):
                status, headers, body = _post_raw(
                    port, _range_request(token, 0, 10)
                )
            assert status == 503
            assert headers.get("Retry-After") == str(RETRY_AFTER_SECONDS)
            assert body["error"] == "DeadlineExceeded"
            # The zombie request finishes in the dispatch pool and only
            # then frees its admission slot — wait so shutdown is clean.
            self._drain_inflight(service)
            assert service.health()["inflight"] == 0
        finally:
            self._stop(catalog, service, server, thread)

    def test_client_retries_through_a_crashed_worker(self):
        catalog, service, server, thread, port = self._serve()
        accepted = _count_connections(server)
        try:
            client = ServiceClient(
                "127.0.0.1",
                port,
                policy=RetryPolicy(attempts=3, sleep=lambda s: None),
            )
            token = client.request({"op": "open_session", "tenant": "alice"})[
                "token"
            ]
            with faults.armed("serve.handle:crash") as plan:
                response = client.request(_range_request(token, 0, 50))
                # Crash on hit 1 dropped the connection without a reply;
                # the retry (hit 2) answered.
                assert plan.hits("serve.handle") == 2
            assert response["ok"] is True
            assert response["rf"] == 50
            # The crash tore the first connection; the retry opened a
            # second, and the next request reuses it.
            assert len(accepted) == 2
            assert client.request(_range_request(token, 0, 50))["rf"] == 50
            assert len(accepted) == 2
            client.close()
        finally:
            self._stop(catalog, service, server, thread)

    def test_flaky_backend_503s_honor_retry_after_floor(self):
        catalog, service, server, thread, port = self._serve()
        try:
            _, body = _post(port, {"op": "open_session", "tenant": "alice"})
            token = body["token"]
            slept: list[float] = []
            client = ServiceClient(
                "127.0.0.1",
                port,
                policy=RetryPolicy(
                    attempts=3,
                    base_delay=0.01,
                    max_delay=0.02,
                    sleep=slept.append,
                ),
            )
            with faults.armed("serve.query:flaky=1.0"):
                with pytest.raises(TransientFault):
                    client.request(_range_request(token, 0, 10))
            # Every backoff was floored by the server's Retry-After.
            assert len(slept) == 2
            assert all(s >= RETRY_AFTER_SECONDS for s in slept)
            # Disarmed, the same client recovers immediately.
            assert client.request(_range_request(token, 0, 10))["ok"] is True
            client.close()
        finally:
            self._stop(catalog, service, server, thread)


# -- keep-alive connections ----------------------------------------------


def _serve_alice(*, max_inflight: int = 64):
    catalog = _catalog()
    service = QueryService(catalog, max_inflight=max_inflight)
    service.register_tenant("alice", tables={"obs"})
    service.register_tenant(
        "bob", tables={"obs"}, value_bounds={"value": (0, 100)}
    )
    server, thread = serve_in_thread(service)
    return catalog, service, server, thread


def _close_all(catalog, service, server, thread) -> None:
    server.shutdown()
    thread.join(10)
    assert not thread.is_alive()
    server.server_close()
    service.close()
    catalog.close()


class TestKeepAlive:
    """One connection per client, and a server that ends them on close.

    Structural assertions only (connection counts, socket identity,
    surviving threads) — no timing bounds.
    """

    def test_hundred_requests_one_connection(self):
        catalog, service, server, thread = _serve_alice()
        accepted = _count_connections(server)
        try:
            with ServiceClient("127.0.0.1", server.server_address[1]) as client:
                token = client.request({"op": "open_session", "tenant": "alice"})[
                    "token"
                ]
                for i in range(98):
                    assert client.request(_range_request(token, i, i + 10))["ok"]
                assert client.health()["ok"]
            assert len(accepted) == 1
        finally:
            _close_all(catalog, service, server, thread)

    def test_error_replies_keep_the_connection(self):
        catalog, service, server, thread = _serve_alice(max_inflight=1)
        accepted = _count_connections(server)
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=30
        )

        def post(body) -> int:
            conn.request("POST", "/", body if isinstance(body, str) else json.dumps(body))
            response = conn.getresponse()
            response.read()
            return response.status

        try:
            token = service.open_session("alice").token
            bob = service.open_session("bob").token
            assert post(_range_request(token, 0, 10)) == 200
            sock = conn.sock
            assert post("{not json") == 400
            assert post(_range_request("nope", 0, 10)) == 401
            assert post(_range_request(bob, 50, 150)) == 403
            conn.request("GET", "/missing")
            response = conn.getresponse()
            response.read()
            assert response.status == 404
            assert service._admission.acquire(blocking=False)
            try:
                assert post(_range_request(token, 0, 10)) == 429
            finally:
                service._admission.release()
            assert post(_range_request(token, 0, 10)) == 200
            assert conn.sock is sock  # never reconnected
            assert len(accepted) == 1
        finally:
            conn.close()
            _close_all(catalog, service, server, thread)

    def test_shared_client_matches_in_process_answers(self):
        catalog, service, server, thread = _serve_alice()
        twin_catalog = _catalog()
        twin = QueryService(twin_catalog)
        twin.register_tenant("alice", tables={"obs"})
        twin_token = twin.open_session("alice").token
        accepted = _count_connections(server)
        client = ServiceClient("127.0.0.1", server.server_address[1])
        token = client.request({"op": "open_session", "tenant": "alice"})["token"]

        def worker(t: int) -> list[tuple[dict, dict]]:
            # Thread t asks widths t+1: every request has its own answer,
            # so a reply delivered to the wrong thread cannot pass.
            pairs = []
            for i in range(50):
                low = (7 * i) % 150
                got = client.request(_range_request(token, low, low + t + 1))
                want = twin.handle(_range_request(twin_token, low, low + t + 1))
                pairs.append((got, want))
            return pairs

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(worker, range(4), timeout=60))
            for pairs in results:
                for got, want in pairs:
                    got.pop("cached"), want.pop("cached")
                    assert got == want
            assert len(accepted) == 1
        finally:
            sys.setswitchinterval(switch_interval)
            client.close()
            twin.close()
            twin_catalog.close()
            _close_all(catalog, service, server, thread)

    def test_server_close_ends_open_connections(self):
        before = set(_handler_threads())
        catalog, service, server, thread = _serve_alice()
        client = ServiceClient(
            "127.0.0.1",
            server.server_address[1],
            policy=RetryPolicy(attempts=2, sleep=lambda s: None),
        )
        token = client.request({"op": "open_session", "tenant": "alice"})["token"]
        # The idle keep-alive connection holds a handler thread.
        assert set(_handler_threads()) - before
        _close_all(catalog, service, server, thread)
        assert not set(_handler_threads()) - before
        with pytest.raises(TransientFault):
            client.request(_range_request(token, 0, 10))
        client.close()

    def test_server_close_completes_the_reply_in_flight(self):
        before = set(_handler_threads())
        catalog, service, server, thread = _serve_alice()
        client = ServiceClient("127.0.0.1", server.server_address[1])
        token = client.request({"op": "open_session", "tenant": "alice"})["token"]
        answers = []
        with faults.armed("serve.handle:delay=0.5") as plan:
            caller = threading.Thread(
                target=lambda: answers.append(
                    client.request(_range_request(token, 0, 10))
                )
            )
            caller.start()
            deadline = time.monotonic() + 10
            while not plan.hits("serve.handle") and time.monotonic() < deadline:
                time.sleep(0.01)
            assert plan.hits("serve.handle") == 1  # the reply is in flight
            _close_all(catalog, service, server, thread)
            caller.join(10)
        assert not caller.is_alive()
        assert answers and answers[0]["rf"] == 10
        assert not set(_handler_threads()) - before
        client.close()


# -- request framing -----------------------------------------------------


def _raw_exchange(port: int, data: bytes) -> bytes:
    """Send ``data``; return all the server sends before it closes.

    Every read waits at most 1 s: a server that waits for more input,
    or keeps the connection open, fails with a timeout.
    """
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=1.0) as sock:
        sock.sendall(data)
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break  # closed with our unread body still queued
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


_OPEN = json.dumps({"op": "open_session", "tenant": "alice"}).encode()


class TestRequestFraming:
    """A request whose length is unknown is refused, unread, and closed.

    With keep-alive, bytes the server leaves unread would be parsed as
    the next request; each malformed frame below carries an
    ``open_session`` body, so "no session was opened" proves the
    request did not run.
    """

    @pytest.mark.parametrize(
        "headers, body, status",
        [
            (b"Content-Length: -1\r\n", _OPEN, 400),
            (b"Content-Length: abc\r\n", _OPEN, 400),
            (b"Content-Length: 1_0\r\n", _OPEN, 400),
            (
                b"Content-Length: %d\r\nContent-Length: 3\r\n" % len(_OPEN),
                _OPEN,
                400,
            ),
            (
                b"Transfer-Encoding: chunked\r\n",
                b"%x\r\n%s\r\n0\r\n\r\n" % (len(_OPEN), _OPEN),
                400,
            ),
            (
                b"Transfer-Encoding: chunked\r\nContent-Length: %d\r\n" % len(_OPEN),
                _OPEN,
                400,
            ),
            (b"", _OPEN, 411),
            (b"Content-Length: %d\r\n" % (MAX_REQUEST_BYTES + 1), _OPEN, 413),
        ],
        ids=[
            "negative",
            "non-integer",
            "underscored",
            "duplicate",
            "chunked",
            "chunked-and-length",
            "missing",
            "oversized",
        ],
    )
    def test_malformed_post_is_refused_and_closed(self, headers, body, status):
        catalog, service, server, thread = _serve_alice()
        port = server.server_address[1]
        try:
            reply = _raw_exchange(
                port,
                b"POST / HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
                + headers
                + b"\r\n"
                + body,
            )
            head = reply.split(b"\r\n\r\n", 1)[0]
            assert head.startswith(b"HTTP/1.1 %d " % status), reply
            assert b"\r\nConnection: close" in head
            assert service.sessions.opened_total == 0
            # The server is unharmed: a well-framed request still runs.
            assert _post(port, {"op": "open_session", "tenant": "alice"})[0] == 200
            assert service.sessions.opened_total == 1
        finally:
            _close_all(catalog, service, server, thread)

    @pytest.mark.parametrize(
        "headers",
        [
            b"X-No-Colon\r\n",
            b"X-Spaced : 1\r\n",
            b"X-Folded: a\r\n  b\r\n",
            b"".join(b"X-Field-%d: v\r\n" % i for i in range(101)),
        ],
        ids=["no-colon", "space-before-colon", "obs-fold", "101-lines"],
    )
    def test_malformed_head_is_refused_and_closed(self, headers):
        catalog, service, server, thread = _serve_alice()
        port = server.server_address[1]
        try:
            reply = _raw_exchange(
                port,
                b"POST / HTTP/1.1\r\nHost: x\r\n"
                + headers
                + b"Content-Length: %d\r\n\r\n%s" % (len(_OPEN), _OPEN),
            )
            head = reply.split(b"\r\n\r\n", 1)[0]
            assert head.startswith(b"HTTP/1.1 400 "), reply
            assert b"\r\nConnection: close" in head
            assert service.sessions.opened_total == 0
            assert _post(port, {"op": "open_session", "tenant": "alice"})[0] == 200
        finally:
            _close_all(catalog, service, server, thread)

    @pytest.mark.parametrize(
        "headers, status",
        [
            (b"Content-Length: %d\r\n" % (MAX_REQUEST_BYTES + 1), 413),
            (b"Transfer-Encoding: chunked\r\n", 400),
            (b"", 411),
        ],
        ids=["oversized", "chunked", "missing"],
    )
    def test_refused_frame_is_not_invited_by_100_continue(self, headers, status):
        catalog, service, server, thread = _serve_alice()
        try:
            # Only the head is sent: a client that waits for "100
            # Continue" before its body must get the refusal instead.
            reply = _raw_exchange(
                server.server_address[1],
                b"POST / HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                + headers
                + b"\r\n",
            )
            head = reply.split(b"\r\n\r\n", 1)[0]
            assert head.startswith(b"HTTP/1.1 %d " % status), reply
            assert b"\r\nConnection: close" in head
            assert b" 100 " not in reply
        finally:
            _close_all(catalog, service, server, thread)

    def test_get_with_a_body_is_refused_and_closed(self):
        catalog, service, server, thread = _serve_alice()
        try:
            reply = _raw_exchange(
                server.server_address[1],
                b"GET /health HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
                % (len(_OPEN), _OPEN),
            )
            assert reply.startswith(b"HTTP/1.1 400 "), reply
            assert service.sessions.opened_total == 0
        finally:
            _close_all(catalog, service, server, thread)

    def test_expect_100_continue_is_answered_at_once(self):
        catalog, service, server, thread = _serve_alice()
        try:
            with socket.create_connection(
                ("127.0.0.1", server.server_address[1]), timeout=1.0
            ) as sock:
                sock.sendall(
                    b"POST / HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(_OPEN)
                )
                # The body waits for the interim reply, as curl's does.
                assert sock.recv(65536).startswith(b"HTTP/1.1 100 ")
                sock.sendall(_OPEN)
                assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")
            assert service.sessions.opened_total == 1
        finally:
            _close_all(catalog, service, server, thread)

    def test_truncated_body_does_not_run(self):
        catalog, service, server, thread = _serve_alice()
        try:
            with socket.create_connection(
                ("127.0.0.1", server.server_address[1]), timeout=1.0
            ) as sock:
                sock.sendall(
                    b"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
                    % (len(_OPEN) + 10, _OPEN)
                )
                sock.shutdown(socket.SHUT_WR)  # hang up mid-body
                assert sock.recv(65536) == b""  # closed without a reply
            assert service.sessions.opened_total == 0
        finally:
            _close_all(catalog, service, server, thread)


# -- client reply framing ------------------------------------------------


def _reply(status: bytes, body: bytes = b"{}", *head: bytes) -> bytes:
    """A well-framed reply: ``status`` line, ``head`` lines, the body."""
    lines = [b"HTTP/1.1 " + status, *head, b"Content-Length: %d" % len(body)]
    return b"\r\n".join(lines) + b"\r\n\r\n" + body


_GOOD = _reply(b"200 OK", b'{"ok": true}')


class _ScriptedServer:
    """A raw-socket server that answers from a script, one connection
    at a time.

    Each script entry ``(reply, keep)`` answers one request: ``reply``
    is sent (one byte per ``send`` with ``dribble``), then the
    connection is closed unless ``keep``.  The server stops once the
    script is spent.
    """

    def __init__(self, script, *, dribble: bool = False):
        self.script = list(script)
        self.dribble = dribble
        self.accepted = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        with self._listener:
            while self.script:
                conn, _ = self._listener.accept()
                self.accepted += 1
                with conn, conn.makefile("rb") as rfile:
                    while self.script and self._read_request(rfile):
                        reply, keep = self.script.pop(0)
                        self._send(conn, reply)
                        if not keep:
                            break

    @staticmethod
    def _read_request(rfile) -> bool:
        length = 0
        while (line := rfile.readline()) not in (b"\r\n", b""):
            name, _, value = line.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        return bool(line) and len(rfile.read(length)) == length

    def _send(self, conn, reply: bytes) -> None:
        if not self.dribble:
            conn.sendall(reply)
            return
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for i in range(len(reply)):
            conn.send(reply[i : i + 1])
            time.sleep(0.001)

    def client(self, attempts: int = 2, slept=None) -> ServiceClient:
        sleep = (lambda s: None) if slept is None else slept.append
        return ServiceClient(
            "127.0.0.1",
            self.port,
            policy=RetryPolicy(attempts=attempts, sleep=sleep),
            timeout=5.0,
        )

    def join(self) -> None:
        self._thread.join(10)
        assert not self._thread.is_alive()


class _WriteSpy:
    """Wraps a socket and counts the writes made through it."""

    def __init__(self, sock):
        self._sock = sock
        self.writes = 0

    def send(self, data):
        self.writes += 1
        return self._sock.send(data)

    def sendall(self, data):
        self.writes += 1
        return self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestClientFraming:
    """``ServiceClient`` reads replies strictly; anything else is torn."""

    @pytest.mark.parametrize(
        "torn",
        [
            b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"2\r\n{}\r\n0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}",
            b"garbage\r\n\r\n",
            b"",
        ],
        ids=["short-body", "chunked", "no-length", "bad-status", "eof"],
    )
    def test_torn_reply_is_transient_and_the_next_call_reconnects(self, torn):
        server = _ScriptedServer([(torn, False), (torn, False), (_GOOD, True)])
        client = server.client(attempts=2)
        try:
            with pytest.raises(TransientFault, match="connection torn"):
                client.request({"op": "stats"})
            assert client.request({"op": "stats"}) == {"ok": True}
            assert server.accepted == 3
        finally:
            client.close()
            server.join()

    def test_dribbled_reply_parses(self):
        body = b'{"ok": true, "n": 12345}'
        server = _ScriptedServer(
            [(_reply(b"200 OK", body, b"X-Extra:  padded  "), True)], dribble=True
        )
        client = server.client()
        try:
            assert client.request({"op": "stats"}) == {"ok": True, "n": 12345}
        finally:
            client.close()
            server.join()

    def test_connection_close_reply_reconnects(self):
        server = _ScriptedServer(
            [(_reply(b"200 OK", b'{"n": 1}', b"Connection: close"), True),
             (_reply(b"200 OK", b'{"n": 2}'), True)]
        )
        client = server.client(attempts=1)
        try:
            assert client.request({"op": "stats"}) == {"n": 1}
            assert client.request({"op": "stats"}) == {"n": 2}
            assert server.accepted == 2
        finally:
            client.close()
            server.join()

    def test_http_date_retry_after_is_no_hint(self):
        unavailable = _reply(
            b"503 Service Unavailable",
            b'{"ok": false}',
            b"Retry-After: Fri, 31 Dec 1999 23:59:59 GMT",
        )
        server = _ScriptedServer([(unavailable, True), (_GOOD, True)])
        slept: list[float] = []
        client = server.client(attempts=2, slept=slept)
        try:
            assert client.request({"op": "stats"}) == {"ok": True}
            assert len(slept) == 1  # the policy's own backoff, not a floor
            assert server.accepted == 1
        finally:
            client.close()
            server.join()

    def test_each_request_is_one_write(self):
        catalog, service, server, thread = _serve_alice()
        accepted = _count_connections(server)
        client = ServiceClient("127.0.0.1", server.server_address[1])
        try:
            token = client.request({"op": "open_session", "tenant": "alice"})[
                "token"
            ]
            spy = client._sock = _WriteSpy(client._sock)
            for i in range(5):
                assert client.request(_range_request(token, i, i + 10))["ok"]
            assert client.health()["ok"]
            assert spy.writes == 6
            assert len(accepted) == 1
        finally:
            client.close()
            _close_all(catalog, service, server, thread)
