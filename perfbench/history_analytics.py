"""Workload ``history_analytics``: read-only analytics over a forgetful history.

Two time-partitioned sensor stores (8 range shards each, compressed,
partly forgotten) sit in one :class:`~repro.storage.Catalog` beside two
hot-key table pairs with identical data — one pair plain, one pair with
``SortedIndex`` leaves so the cost model picks sort-merge.  Ops are
selective ``range_query`` / ``aggregate`` calls on *cold* windows
(demoted, compressed cohorts) and *warm* windows (raw cohorts),
selective join / union specs through ``Catalog.query``, and a small
share of whole-table aggregate-over-join.

The planner, the compressed ``range_mask``, plan-node join and
aggregate, and the shard fan-out merge do the work; amnesia, ingest
and serving are bypassed.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from repro.amnesia import RotAmnesia
from repro.indexes import SortedIndex
from repro.partitioning import PartitionedAmnesiaDatabase
from repro.query.plans import NodeResult
from repro.storage import Catalog

from common import block_counts, mask_fan_out, p50_ms, precision, shard_dbs, sharded_layer_extra, stored_bytes

SENSORS = ("s1", "s2")
HOT_TABLES = ("h1", "h2", "o1", "o2")
SHARDS = 8
EPOCHS = 48
EPOCHS_PER_SHARD = EPOCHS // SHARDS
ROWS_PER_EPOCH = 8_000
#: Value span of one epoch's cohort: cohorts are disjoint in value, so
#: value range partitioning is time partitioning.
SPAN = 10_000
#: 70% of the history stays visible; rot forgets the rest while loading.
BUDGET = int(0.7 * EPOCHS * ROWS_PER_EPOCH)
#: Cohorts younger than this many shard epochs stay raw (the
#: compressed store's default ``min_age``): per shard the first four
#: cohorts are demoted (cold), the last two stay raw (warm).
WARM_PER_SHARD = 2
HOT_ROWS = 20_000
HOT_KEYS = 10_000
HOT_FRACTION = 0.002
HOT_KEY = 7
#: One cycle of ops, shuffled per cycle by the seed.  The counts fix
#: the mix exactly, so every seed runs the same share of each op kind.
CYCLE = (
    ("range", "cold"), ("range", "cold"), ("range", "cold"),
    ("range", "warm"), ("range", "warm"), ("range", "warm"),
    ("agg", "cold"), ("agg", "cold"), ("agg", "warm"), ("agg", "warm"),
    ("join", "cold"), ("join", "warm"),
    ("union_agg", "cold"), ("union_agg", "warm"),
    ("union", "cold"), ("union", "warm"),
    ("hot_join", "hot"), ("hot_join", "hot"),
) * 5 + (("analytic", "streamed-hash"), ("analytic", "sort-merge"))
#: Timed ops per requested second (calibrated on a 2-core x86 VM).
OPS_PER_SECOND = 120


def _digest_rows(result: NodeResult) -> str:
    return hashlib.sha1(np.ascontiguousarray(result.rows).tobytes()).hexdigest()[:16]


def _moments(m) -> tuple:
    return (m.count, m.total, m.min, m.max, m.variance)


def _sensor_dbs(catalog) -> list:
    return shard_dbs(*(catalog.sharded(name) for name in SENSORS))


class Workload:
    def __init__(self, seed: int, seconds: int, workdir: str):
        rng = np.random.default_rng([seed, 2])
        self.seed = seed
        self.bounds = [SPAN * EPOCHS_PER_SHARD * i for i in range(SHARDS + 1)]
        self.history = {
            name: [
                rng.integers(e * SPAN, (e + 1) * SPAN, ROWS_PER_EPOCH)
                for e in range(EPOCHS)
            ]
            for name in SENSORS
        }
        hot = []
        for _ in range(2):
            values = rng.integers(0, HOT_KEYS, HOT_ROWS)
            values[rng.random(HOT_ROWS) < HOT_FRACTION] = HOT_KEY
            hot.append(values)
        self.hot = hot
        n_ops = max(len(CYCLE), math.ceil(seconds * OPS_PER_SECOND))
        self.ops = []
        self.op_tags = {}
        while len(self.ops) < n_ops:
            for j in rng.permutation(len(CYCLE)):
                kind, tag = CYCLE[j]
                self.op_tags[len(self.ops)] = tag
                self.ops.append(self._op(rng, kind, tag))

    @staticmethod
    def _window(rng, tag: str) -> tuple[int, int]:
        """Two adjacent cohorts, both demoted (cold) or both raw (warm)."""
        shard = int(rng.integers(SHARDS))
        first = int(rng.integers(EPOCHS_PER_SHARD - WARM_PER_SHARD - 1)) if tag == "cold" else (
            EPOCHS_PER_SHARD - WARM_PER_SHARD
        )
        epoch = shard * EPOCHS_PER_SHARD + first
        low = epoch * SPAN + int(rng.integers(SPAN // 2))
        return low, low + SPAN + SPAN // 2

    def _op(self, rng, kind: str, tag: str) -> tuple:
        if kind == "analytic":
            pair = "h1,h2" if tag == "streamed-hash" else "o1,o2"
            return ("query", f"join:{pair}:on=value,agg=value")
        if kind == "hot_join":
            low = int(rng.integers(HOT_KEYS - HOT_KEYS // 50))
            return ("query", f"join:h1,h2:on=value,low={low},high={low + HOT_KEYS // 50}")
        low, high = self._window(rng, tag)
        sensor = SENSORS[int(rng.integers(2))]
        if kind == "range":
            return ("range", sensor, low, high)
        if kind == "agg":
            return ("agg", sensor, ("sum", "avg", "max", "var")[int(rng.integers(4))], low, high)
        if kind == "join":
            return ("query", f"join:s1,s2:on=value,low={low},high={high}")
        if kind == "union_agg":
            return ("query", f"union:s1,s2:low={low},high={high},agg=value")
        return ("query", f"union:s1,s2:low={low},high={high}")

    # -- stores ------------------------------------------------------------

    def _catalog(self, *, twin: bool) -> Catalog:
        config = (
            {"plan": "scan", "workers": 1, "stats": "uniform", "compress": "off"}
            if twin
            else {"plan": "cost", "workers": 2, "stats": "hist", "compress": "on"}
        )
        catalog = Catalog(plan=config["plan"], workers=config["workers"], stats=config["stats"])
        for name in SENSORS:
            store = PartitionedAmnesiaDatabase(
                "v", self.bounds, BUDGET, RotAmnesia, seed=self.seed, **config
            )
            for batch in self.history[name]:
                store.enqueue({"v": batch})
                store.flush()
            catalog.register_sharded(name, store)
        for names, values in zip((("h1", "o1"), ("h2", "o2")), self.hot):
            for name in names:
                table = catalog.create_table(name, ["value"])
                table.insert_batch(0, {"value": values})
                table.forget(np.arange(HOT_ROWS // 10), epoch=1)
                if name.startswith("o") and not twin:
                    catalog.create_index(name, "value", SortedIndex)
                catalog.executor(name)  # lazy planner/executor builds
        return catalog

    def build(self) -> Catalog:
        catalog = self._catalog(twin=False)
        for name in SENSORS:
            for p in catalog.sharded(name).partitions:
                demoted = p.db.compressed.demoted_count
                if demoted != EPOCHS_PER_SHARD - WARM_PER_SHARD:
                    raise RuntimeError(
                        f"{name} shard {p.index}: {demoted} demoted cohorts, "
                        f"expected {EPOCHS_PER_SHARD - WARM_PER_SHARD}"
                    )
        # Warm the catalog's fan-out pool without recording access.
        catalog.query("union:h1,h2:low=0,high=1", epoch=1, record_access=False)
        return catalog

    def build_twin(self) -> Catalog:
        """Trust-nothing twin: full scans, raw columns, one worker, no indexes."""
        return self._catalog(twin=True)

    @staticmethod
    def close(catalog) -> None:
        for name in catalog.sharded_names():
            catalog.sharded(name).close()
        catalog.close()

    # -- ops ---------------------------------------------------------------

    @staticmethod
    def op_class(op) -> str:
        if op[0] == "query" and "low=" not in op[1]:
            return "analytic streamed-hash" if "h1,h2" in op[1] else "analytic sort-merge"
        return "read"

    def executor(self, catalog):
        def execute(op):
            kind = op[0]
            if kind == "range":
                r = catalog.sharded(op[1]).range_query(op[2], op[3])
                return ("range", r.rf, r.mf, r.shards_executed)
            if kind == "agg":
                amnesiac, oracle = catalog.sharded(op[1]).aggregate(op[2], op[3], op[4])
                return ("agg", amnesiac, oracle)
            result = catalog.query(op[1], epoch=1)
            if isinstance(result, NodeResult):
                return ("rows", result.rf, result.mf, _digest_rows(result))
            return ("moments", result.rf, result.mf, _moments(result.active), _moments(result.missed))

        return execute

    twin_executor = executor

    comparable = staticmethod(mask_fan_out)

    # -- observations ----------------------------------------------------

    @staticmethod
    def final_state(catalog) -> list:
        state = []
        for name in SENSORS:
            for p in catalog.sharded(name).partitions:
                t = p.db.table
                state.append((name, p.index, t.active_mask().tobytes(), t.access_counts().tobytes()))
        for name in HOT_TABLES:
            t = catalog.get(name)
            state.append((name, t.active_mask().tobytes(), t.access_counts().tobytes()))
        return state

    @staticmethod
    def read_pairs(results) -> list:
        return [(r[1], r[2]) for r in results if r[0] in ("range", "rows", "moments")]

    def end_to_end(self, catalog, log) -> dict:
        by_strategy = {
            strategy: log.latencies.get(f"analytic {strategy}", [])
            for strategy in ("streamed-hash", "sort-merge")
        }
        analytic = [t for samples in by_strategy.values() for t in samples]
        stored, active = stored_bytes(_sensor_dbs(catalog))
        for name in HOT_TABLES:
            table = catalog.get(name)
            stored += 8 * table.total_rows
            active += table.active_count
        return {
            "analytic_p50_ms": (p50_ms(analytic), "ms", f"n={len(analytic)}"),
            **{
                f"analytic_p50_ms.{strategy}": (p50_ms(samples), "ms", f"n={len(samples)}")
                for strategy, samples in by_strategy.items()
            },
            "precision": (precision(self.read_pairs(log.results)), "ratio"),
            "stored_bytes_per_row": (stored / max(active, 1), "B/row"),
        }

    @staticmethod
    def recover_check(_catalog):
        return None

    # -- per-layer counters ----------------------------------------------

    @staticmethod
    def snapshot(catalog) -> dict:
        return block_counts(_sensor_dbs(catalog))

    @staticmethod
    def layer_extra(catalog, before: dict, log) -> dict:
        return sharded_layer_extra(_sensor_dbs(catalog), before, log.results)

    @staticmethod
    def probe(_catalog) -> dict:
        return {}
