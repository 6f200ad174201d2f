"""Workload ``serve_mixed``: the HTTP query service under a mixed load.

``serve_in_thread`` serves a 200k-row catalog table (compression off)
in this process; one :class:`~repro.serving.ServiceClient` drives it in
a closed loop.  About 90% of ops are range / aggregate queries drawn
Zipf-skewed from a shape pool larger than ``ResultCache``'s 4096-entry
bound, so the head hits and the tail evicts; the rest are ingests and
forgets, which invalidate cached entries by value guard and by cohort.

HTTP dispatch and both caches dominate; the writes beside the reads
show what the result cache costs the write path.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.query.predicates import RangePredicate
from repro.query.queries import AggregateFunction, AggregateQuery, RangeQuery
from repro.serving import QueryService, RetryPolicy, ServiceClient, serve_in_thread
from repro.storage import Catalog

from common import p50_ms, precision, tail_ms

TABLE = "obs"
COHORTS = 20
COHORT_ROWS = 10_000
#: Each initial cohort covers its own value band, so a forget inside one
#: cohort invalidates only the cached answers over that band.
BAND = 10_000
DOMAIN = COHORTS * BAND
SHAPES = 12_000
ZIPF_EXPONENT = 1.1
QUERY_WIDTH = 600
INGEST_ROWS = 200
INGEST_SPREAD = 1_000
FORGET_ROWS = 300
#: Per 100 ops: 90 queries, 7 ingests, 3 forgets (order shuffled per cycle).
CYCLE = ("query",) * 90 + ("ingest",) * 7 + ("forget",) * 3
#: Timed ops per requested second (calibrated on a 2-core x86 VM).
OPS_PER_SECOND = 520


def _predicate(low: int, high: int) -> dict:
    return {"type": "range", "column": "value", "low": low, "high": high}


class Workload:
    def __init__(self, seed: int, seconds: int, workdir: str):
        rng = np.random.default_rng([seed, 3])
        self.seed = seed
        self.cohorts = [
            c * BAND + rng.integers(0, BAND, COHORT_ROWS) for c in range(COHORTS)
        ]
        lows = rng.integers(0, DOMAIN - QUERY_WIDTH, SHAPES)
        shapes = []
        for i, low in enumerate(lows.tolist()):
            request = {"op": "query", "source": TABLE, "predicate": _predicate(low, low + QUERY_WIDTH)}
            if i % 3 == 2:
                request.update(kind="aggregate", function=("sum", "avg", "max")[i // 3 % 3], column="value")
            else:
                request["kind"] = "range"
            shapes.append(request)
        self.shapes = shapes
        weights = 1.0 / np.arange(1, SHAPES + 1) ** ZIPF_EXPONENT
        weights /= weights.sum()
        n_ops = max(len(CYCLE), math.ceil(seconds * OPS_PER_SECOND))
        self.ops = []
        while len(self.ops) < n_ops:
            for j in rng.permutation(len(CYCLE)):
                kind = CYCLE[j]
                if kind == "query":
                    self.ops.append(shapes[int(rng.choice(SHAPES, p=weights))])
                elif kind == "ingest":
                    low = int(rng.integers(0, DOMAIN - INGEST_SPREAD))
                    values = (low + rng.integers(0, INGEST_SPREAD, INGEST_ROWS)).tolist()
                    self.ops.append({"op": "ingest", "source": TABLE, "rows": {"value": values}})
                else:
                    cohort = int(rng.integers(COHORTS))
                    positions = cohort * COHORT_ROWS + rng.choice(COHORT_ROWS, FORGET_ROWS, replace=False)
                    self.ops.append({"op": "forget", "source": TABLE, "positions": sorted(positions.tolist())})
        # Compression is off, so every cohort a query reads is raw: the
        # planner's per-read match time lands in the "warm" class.
        self.op_tags = {i: "warm" for i, op in enumerate(self.ops) if op["op"] == "query"}

    # -- state -------------------------------------------------------------

    def _catalog(self, plan: str, workers: int) -> Catalog:
        catalog = Catalog(plan=plan, workers=workers, stats="hist" if plan != "scan" else "uniform")
        table = catalog.create_table(TABLE, ["value"])
        for epoch, values in enumerate(self.cohorts, start=1):
            table.insert_batch(epoch, {"value": values})
        catalog.executor(TABLE)  # lazy planner/executor builds
        return catalog

    def build(self) -> dict:
        catalog = self._catalog("cost", 2)
        service = QueryService(catalog)
        service.register_tenant("bench", tables={TABLE})
        server, thread = serve_in_thread(service)
        retries = []

        def backoff(seconds: float) -> None:
            retries.append(seconds)  # one sleep per retry
            time.sleep(seconds)

        client = ServiceClient(
            "127.0.0.1",
            server.server_address[1],
            policy=RetryPolicy(seed=self.seed, sleep=backoff),
        )
        token = client.request({"op": "open_session", "tenant": "bench"})["token"]
        client.health()
        return {
            "catalog": catalog, "service": service, "server": server, "thread": thread,
            "client": client, "token": token, "retries": retries,
        }

    def build_twin(self) -> dict:
        """Trust-nothing twin: direct ``Catalog.execute``, full scans, no caches."""
        return {"catalog": self._catalog("scan", 1)}

    @staticmethod
    def close(state) -> None:
        if "server" in state:
            state["server"].shutdown()
            state["server"].server_close()
            state["thread"].join(timeout=10)
            state["service"].close()
        state["catalog"].close()

    # -- ops ---------------------------------------------------------------

    @staticmethod
    def op_class(op) -> str:
        return "read" if op["op"] == "query" else op["op"]

    @staticmethod
    def _result(response: dict) -> tuple:
        if response.get("kind") == "range":
            return ("range", response["rf"], response["mf"])
        if response.get("kind") == "aggregate":
            return (
                "agg", response["amnesiac_value"], response["oracle_value"],
                response["active_matches"], response["oracle_matches"],
            )
        if "inserted" in response:
            return ("ingest", response["inserted"], response["epoch"])
        return ("forget", response["forgotten"], response["epoch"])

    def executor(self, state):
        client = state["client"]
        requests = {id(op): dict(op, token=state["token"]) for op in self.ops}
        result = self._result

        def execute(op):
            return result(client.request(requests[id(op)]))

        return execute

    @staticmethod
    def _query(request: dict):
        p = request["predicate"]
        predicate = RangePredicate(p["column"], p["low"], p["high"])
        if request["kind"] == "range":
            return RangeQuery(predicate)
        return AggregateQuery(AggregateFunction(request["function"]), request["column"], predicate)

    def twin_executor(self, state):
        catalog = state["catalog"]
        table = catalog.get(TABLE)

        def execute(op):
            kind = op["op"]
            if kind == "query":
                epoch = max(table.cohorts.latest_epoch, 0)
                r = catalog.execute(TABLE, self._query(op), epoch)
                if op["kind"] == "range":
                    return ("range", r.rf, r.mf)
                return ("agg", r.amnesiac_value, r.oracle_value, r.active_matches, r.oracle_matches)
            if kind == "ingest":
                epoch = table.cohorts.latest_epoch + 1
                positions = table.insert_batch(epoch, op["rows"])
                return ("ingest", int(positions.size), epoch)
            epoch = max(table.cohorts.latest_epoch, 0)
            return ("forget", table.forget(np.asarray(op["positions"], dtype=np.int64), epoch), epoch)

        return execute

    @staticmethod
    def comparable(results) -> list:
        return list(results)

    # -- observations ----------------------------------------------------

    @staticmethod
    def final_state(state) -> tuple:
        t = state["catalog"].get(TABLE)
        return (
            t.active_mask().tobytes(),
            t.values("value").tobytes(),
            t.insert_epochs().tobytes(),
            t.access_counts().tobytes(),
        )

    @staticmethod
    def read_pairs(results) -> list:
        pairs = []
        for r in results:
            if r[0] == "range":
                pairs.append((r[1], r[2]))
            elif r[0] == "agg":
                pairs.append((r[3], r[4] - r[3]))
        return pairs

    def end_to_end(self, state, log) -> dict:
        ingests = log.latencies.get("ingest", [])
        writes = ingests + log.latencies.get("forget", [])
        tail, pct, beyond = tail_ms(writes)
        t = state["catalog"].get(TABLE)
        return {
            "write_p50_ms": (p50_ms(writes), "ms", f"n={len(writes)}"),
            "write_tail_ms": (tail, "ms", f"p{pct:g}, {beyond} beyond, n={len(writes)}"),
            "ingest_rows_per_s": (INGEST_ROWS * len(ingests) / sum(ingests) if ingests else 0.0, "rows/s"),
            "precision": (precision(self.read_pairs(log.results)), "ratio"),
            "stored_bytes_per_row": (8.0 * t.total_rows / max(t.active_count, 1), "B/row"),
        }

    @staticmethod
    def recover_check(_state):
        return None

    # -- per-layer counters ----------------------------------------------

    @staticmethod
    def snapshot(state) -> dict:
        stats = state["service"].stats()
        return {
            "plan": stats["plan_cache"],
            "result": stats["result_cache"],
            "retries": len(state["retries"]),
        }

    def layer_extra(self, state, before: dict, log) -> dict:
        after = self.snapshot(state)

        def hit_ratio(cache: str) -> float:
            hits = after[cache]["hits"] - before[cache]["hits"]
            misses = after[cache]["misses"] - before[cache]["misses"]
            return hits / max(hits + misses, 1)

        return {
            "serving.plan_cache.hit_ratio": hit_ratio("plan"),
            "serving.result_cache.hit_ratio": hit_ratio("result"),
            "serving.result_cache.invalidations": float(
                after["result"]["invalidations"] - before["result"]["invalidations"]
            ),
            "serving.result_cache.entries": float(after["result"]["entries"]),
            "serving.retries": float(after["retries"] - before["retries"]),
        }

    def probe(self, state, shapes: int = 300) -> dict:
        """Miss-path ``QueryService.handle`` over direct ``Catalog.execute``.

        For each shape: empty both caches, serve it in process (a miss),
        then execute the same query directly on the catalog.
        """
        import time

        service = state["service"]
        catalog = state["catalog"]
        table = catalog.get(TABLE)
        handle = execute = 0.0
        for request in self.shapes[:shapes]:
            service.result_cache.invalidate_source(TABLE)
            service.plan_cache.clear()
            request = dict(request, token=state["token"])
            t0 = time.perf_counter()
            service.handle(request)
            t1 = time.perf_counter()
            catalog.execute(TABLE, self._query(request), max(table.cohorts.latest_epoch, 0))
            t2 = time.perf_counter()
            handle += t1 - t0
            execute += t2 - t1
        return {"serving.miss_over_uncached": handle / execute}
