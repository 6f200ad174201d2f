"""Which engine entry points the traced run wraps, and the per-layer metrics.

Every wrapped callable belongs to one layer, named after the module
that owns it.  ``install`` patches them all onto a
:class:`~tracer.Tracer`; ``metrics`` turns the attributed spans plus
the counters a workload collected into the per-layer numbers
``BENCHMARK.json`` lists (with their units).  A layer the workload
never calls reports 0.
"""

from __future__ import annotations

from repro._util.parallel import FanOutPool
from repro.amnesia.base import AmnesiaPolicy
from repro.amnesia.rot import RotAmnesia
from repro.core.database import AmnesiaDatabase
from repro.partitioning.partitioned import PartitionedAmnesiaDatabase
from repro.query import plans
from repro.query.executor import QueryExecutor
from repro.query.planner import QueryPlanner
from repro.serving.plan_cache import PlanCache
from repro.serving.result_cache import ResultCache
from repro.serving.retry import ServiceClient
from repro.serving.server import QueryService
from repro.stats.table_stats import TableHistogramStats
from repro.storage import io
from repro.storage.catalog import Catalog
from repro.storage.cohorts import CohortZoneMap
from repro.storage.compressed import CompressedCohortStore
from repro.storage.table import Table

#: (owner, attribute, layer, span name) of every plain wrapped callable.
ENTRY_POINTS = [
    (PartitionedAmnesiaDatabase, "enqueue", "partitioning", "partitioning.enqueue"),
    (PartitionedAmnesiaDatabase, "flush", "partitioning", "partitioning.flush"),
    (PartitionedAmnesiaDatabase, "range_query", "partitioning", "partitioning.read"),
    (PartitionedAmnesiaDatabase, "aggregate", "partitioning", "partitioning.read"),
    (PartitionedAmnesiaDatabase, "scan_chunks", "partitioning", "partitioning.read"),
    (AmnesiaDatabase, "insert", "core.database", "core.database.insert"),
    (AmnesiaDatabase, "enforce_budget", "core.database", "core.database.enforce_budget"),
    (AmnesiaDatabase, "range_query", "core.database", "core.database.read"),
    (AmnesiaDatabase, "aggregate_moments", "core.database", "core.database.read"),
    (QueryExecutor, "execute_range", "query.executor", "query.executor.execute"),
    (QueryExecutor, "execute_aggregate", "query.executor", "query.executor.execute"),
    (QueryExecutor, "execute_moments", "query.executor", "query.executor.execute"),
    (AmnesiaPolicy, "validate_victims", "amnesia", "amnesia.validate_victims"),
    (AmnesiaPolicy, "on_insert", "amnesia", "amnesia.on_insert"),
    (Table, "insert_batch", "storage.table", "storage.table.insert_batch"),
    (Table, "forget", "storage.table", "storage.table.forget"),
    (Table, "record_access", "storage.table", "storage.table.record_access"),
    (CohortZoneMap, "on_insert", "storage.cohorts", "storage.cohorts.observer"),
    (CohortZoneMap, "on_forget", "storage.cohorts", "storage.cohorts.observer"),
    (CohortZoneMap, "candidate_ranges", "storage.cohorts", "storage.cohorts.candidate_ranges"),
    (TableHistogramStats, "on_insert", "stats.table_stats", "stats.table_stats.observer"),
    (TableHistogramStats, "on_forget", "stats.table_stats", "stats.table_stats.observer"),
    (CompressedCohortStore, "demote_cold", "storage.compressed", "storage.compressed.demote"),
    (CompressedCohortStore, "range_mask", "storage.compressed", "storage.compressed.range_mask"),
    (QueryPlanner, "plan", "query.planner", "query.planner.plan"),
    (plans.TableScanNode, "scan", "query.plans", "query.plans.leaf_scan"),
    (plans.ShardedScanNode, "scan", "query.plans", "query.plans.leaf_scan"),
    (plans.ShardedScanNode, "scan_payload", "query.plans", "query.plans.leaf_scan"),
    (plans.UnionNode, "combine", "query.plans", "query.plans.union"),
    (plans.JoinNode, "combine", "query.plans", "query.plans.join.materialized-hash"),
    (plans.JoinNode, "join_strategy", "query.plans", "query.plans.join_strategy"),
    (plans, "_execute_aggregate", "query.plans", "query.plans.aggregate"),
    (plans, "execute_plan", "query.plans", "query.plans.execute"),
    (plans, "build_plan", "query.plans", "query.plans.build"),
    (Catalog, "query", "storage.catalog", "storage.catalog.query"),
    (QueryService, "handle", "serving", "serving.handle"),
    (ResultCache, "lookup", "serving", "serving.result_cache"),
    (ResultCache, "store", "serving", "serving.result_cache"),
    (ResultCache, "_on_insert", "serving", "serving.result_cache.invalidate"),
    (ResultCache, "_on_forget", "serving", "serving.result_cache.invalidate"),
    (PlanCache, "lookup", "serving", "serving.plan_cache"),
    (PlanCache, "store", "serving", "serving.plan_cache"),
    (io, "save_store", "storage.io", "storage.io.save"),
]

#: (owner, generator method, layer, span name): one span per ``next``.
GENERATORS = [
    (plans.UnionNode, "_stream", "query.plans", "query.plans.union"),
    (plans.JoinNode, "_stream", "query.plans", "query.plans.join.streamed-hash"),
    (plans.JoinNode, "_stream_merge", "query.plans", "query.plans.join.sort-merge"),
]

JOIN_STRATEGIES = ("streamed-hash", "sort-merge", "materialized-hash")


def install(tracer) -> None:
    """Patch every entry point onto ``tracer`` (disarmed until ``armed``)."""

    def count_victims(result, _args) -> None:
        tracer.count("amnesia.victims", len(result))

    def note_peak(_result, args) -> None:
        tracer.peak("query.plans.peak_pairs", float(args[1]))

    def count_considered(result, _args) -> None:
        active, missed, execution = result
        tracer.count("planner.considered", execution.rows_considered)
        tracer.count("planner.matched", active.size + missed.size)

    for owner, attr, layer, name in ENTRY_POINTS:
        tracer.wrap(owner, attr, layer, name)
    tracer.wrap(
        QueryPlanner, "match", "query.planner", "query.planner.match",
        on_result=count_considered,
    )
    tracer.wrap(
        RotAmnesia, "select_victims", "amnesia", "amnesia.select_victims",
        on_result=count_victims,
    )
    tracer.wrap(
        plans.JoinNode, "_record_peak", "query.plans", "query.plans.record_peak",
        on_result=note_peak,
    )
    tracer.wrap(ServiceClient, "request", "serving", "serving.http", remote=True)
    for owner, attr, layer, name in GENERATORS:
        tracer.wrap_generator(owner, attr, layer, name)
    tracer.adopt_fan_out(FanOutPool)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer, attributed: dict, extra: dict, op_tags: dict, wall: float) -> dict:
    """Per-layer metrics of one traced pass.

    ``extra`` carries what the workload measured outside the spans
    (counter deltas, probes); ``op_tags`` maps op id -> tag (``cold``,
    ``warm``, ...) for the tagged planner metrics; ``wall`` is the
    traced timed-phase wall time in seconds.
    """
    calls = attributed["calls"]
    inclusive = attributed["inclusive"]
    self_s = attributed["self"]

    def self_ms(*names: str) -> float:
        n = sum(calls.get(name, 0) for name in names)
        return _ratio(1e3 * sum(self_s.get(name, 0.0) for name in names), n)

    def inclusive_ms(name: str) -> float:
        return _ratio(1e3 * inclusive.get(name, 0.0), calls.get(name, 0))

    flush_time = inclusive.get("partitioning.flush", 0.0)
    applied = attributed["edges"].get(("partitioning.flush", "core.database.insert"), 0.0)

    out = {
        "partitioning.flush_ms": self_ms("partitioning.flush"),
        "partitioning.apply_overlap": _ratio(applied, flush_time),
        "partitioning.read_merge_ms": self_ms("partitioning.read"),
        "amnesia.select_victims_ms": self_ms("amnesia.select_victims"),
        "amnesia.on_insert_ms": self_ms("amnesia.on_insert"),
        "amnesia.victims": tracer.counters.get("amnesia.victims", 0.0),
        "storage.table.insert_batch_ms": self_ms("storage.table.insert_batch"),
        "storage.table.forget_ms": self_ms("storage.table.forget"),
        "storage.table.record_access_ms": self_ms("storage.table.record_access"),
        "storage.cohorts.observer_ms": self_ms("storage.cohorts.observer"),
        "stats.table_stats.observer_ms": self_ms("stats.table_stats.observer"),
        "storage.compressed.demote_ms": self_ms("storage.compressed.demote"),
        "storage.compressed.range_mask_ms": self_ms("storage.compressed.range_mask"),
        "query.planner.plan_ms": self_ms("query.planner.plan"),
        "query.planner.rows_considered_per_result": _ratio(
            tracer.counters.get("planner.considered", 0.0),
            tracer.counters.get("planner.matched", 0.0),
        ),
        "query.plans.leaf_scan_ms": self_ms("query.plans.leaf_scan"),
        "query.plans.aggregate_fold_ms": self_ms("query.plans.aggregate"),
        "query.plans.union_ms": self_ms("query.plans.union"),
        "query.plans.peak_pairs": tracer.maxima.get("query.plans.peak_pairs", 0.0),
        "serving.http_ms": self_ms("serving.http"),
        "serving.handle_ms": self_ms("serving.handle"),
        "storage.io.save_ms": inclusive_ms("storage.io.save"),
    }
    for strategy in JOIN_STRATEGIES:
        out[f"query.plans.join_ms.{strategy}"] = self_ms(f"query.plans.join.{strategy}")
    out["query.plans.sort_merge_over_streamed_hash"] = _ratio(
        out["query.plans.join_ms.sort-merge"], out["query.plans.join_ms.streamed-hash"]
    )
    # Planner match time per read op, split by the op's window class.
    # Inclusive: the compressed range_mask under the match is the point.
    for tag in ("cold", "warm"):
        ops = {op for op, t in op_tags.items() if t == tag}
        matched = [
            seconds
            for (name, op), seconds in attributed["by_op"].items()
            if name == "query.planner.match" and op in ops
        ]
        out[f"query.planner.match_ms.{tag}"] = _ratio(1e3 * sum(matched), len(matched))
    out["query.planner.cold_over_warm"] = _ratio(
        out["query.planner.match_ms.cold"], out["query.planner.match_ms.warm"]
    )
    layer_totals = tracer.layer_self(attributed)
    for layer in LAYERS:
        out[f"trace.self_s.{layer}"] = layer_totals.get(layer, 0.0)
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - sum(layer_totals.values())
    out["trace.spans"] = float(len(tracer.records))
    # Counters and probes of layers this workload does not exercise read 0.
    out.update(dict.fromkeys(EXTRA, 0.0))
    out.update(extra)
    return out


#: Every layer that owns wrapped entry points, in report order.
LAYERS = (
    "partitioning",
    "core.database",
    "query.executor",
    "amnesia",
    "storage.table",
    "storage.cohorts",
    "stats.table_stats",
    "storage.compressed",
    "query.planner",
    "query.plans",
    "storage.catalog",
    "serving",
    "storage.io",
)

#: Per-layer metrics a workload supplies itself (counters and probes);
#: they read 0 where the workload does not exercise the layer.
EXTRA = (
    "partitioning.shards_per_read",
    "storage.compressed.blocks_pruned",
    "storage.compressed.blocks_direct",
    "storage.compressed.blocks_decoded",
    "storage.compressed.bytes_per_row",
    "serving.plan_cache.hit_ratio",
    "serving.result_cache.hit_ratio",
    "serving.result_cache.invalidations",
    "serving.result_cache.entries",
    "serving.retries",
    "serving.miss_over_uncached",
    "storage.io.bytes_per_row",
    "storage.io.recover_ms",
    "trace.overhead",
)
