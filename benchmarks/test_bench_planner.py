"""Planner speedup benchmarks: pruned and cost-based plans vs the scan.

Builds a ≥1M-row time-correlated history (each cohort holds a
localised value window, like sensor timestamps), forgets a slice, and
fires selective (≤1% selectivity) range queries under ``plan="auto"``
and ``plan="scan"``.  Asserts both that the results are identical and
that the pruned path is at least 5× faster — the tentpole claim of the
planner PR.  The cost-model benchmark adds a coarse BRIN "trap": a
planner forced to ``index`` mode walks into it, while ``auto`` and
``cost`` price only the value order and the zone-map walk, pick alike
and sidestep it.  The pricing suite checks that those prices pick the
faster read and cost little next to it.  A sharded benchmark runs the
same style of workload through
``PartitionedAmnesiaDatabase`` under several plan modes, and a fan-out
benchmark runs it with ``workers in {1, 4}`` — shards execute their
planner pipelines concurrently, numpy releases the GIL inside the
per-shard scans, and the merged results must stay bit-identical.

Every timed section feeds ``BENCH_planner.json`` at the repo root —
an ops/s trajectory artifact (per plan mode, shard count and worker
count, plus the host's CPU count) uploaded by CI so future PRs have a
perf baseline to diff against.  The ``streaming`` suite compares the
same aggregate-over-join executed materialized, streamed-hash and
sort-merge: identical exact moments, with the streamed peak working
set bounded by batch × build rows and ≥10× under the full pair set.
The ``join_probe`` suite times the join kernel's dense build-side
lookup against the binary search it replaced.  With ``--quick`` the history shrinks
for CI smoke runs and the wall-clock floors relax (shape and
equivalence assertions still run).  Fan-out speed floors additionally
gate on the visible CPU count: threads cannot beat sequential on a
single core, and the measured ratio is recorded either way.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import BENCH_SEED
from repro import AmnesiaDatabase
from repro.amnesia import FifoAmnesia, RotAmnesia, make_policy
from repro.indexes import BlockRangeIndex, SortedIndex
from repro.partitioning import Partition, PartitionedAmnesiaDatabase
from repro.query import (
    QueryExecutor,
    QueryPlan,
    QueryPlanner,
    RangePredicate,
    RangeQuery,
)
from repro.stats import ExactMoments, TableHistogramStats
from repro.storage import (
    Catalog,
    CohortZoneMap,
    CompressedCohortStore,
    Table,
    save_store,
)

FULL_ROWS = 1_000_000
QUICK_ROWS = 125_000
COHORTS = 250
#: Query window width as a fraction of the domain (0.5% selectivity).
WIDTH_FRACTION = 0.005
QUERIES = 40
REPEATS = 3

#: Sharded-store benchmark topology.
SHARDS = 8
SHARDED_FULL_ROWS = 256_000
SHARDED_QUICK_ROWS = 32_000
SHARDED_MODES = ("scan", "auto", "cost")

#: Fan-out benchmark: worker counts over the 1M-row sharded suite.
#: Scan mode is the fan-out stress case — every query executes every
#: shard in full — so it is where parallelism must pay off.
FANOUT_WORKERS = (1, 4)
FANOUT_FULL_ROWS = 1_000_000
FANOUT_QUICK_ROWS = 256_000
#: Cores visible to this process; thread fan-out can only beat the
#: sequential baseline when there is real parallel hardware under it.
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
    os.cpu_count() or 1
)

#: Cross-table join benchmark: two sensor tables joined on value over
#: selective hot windows, timed per worker count and plan mode.
JOIN_FULL_ROWS = 256_000
JOIN_QUICK_ROWS = 32_000

#: Concurrent-ingest suite: the batched enqueue/flush write path timed
#: at ``workers in {1, 4}`` over a 1M-row stream, then a mixed
#: read/write phase on the same store.  Scan plan mode, like the other
#: fan-out stress cases: per-shard applier work is real numpy, so the
#: pool has something to overlap.
INGEST_FULL_ROWS = 1_000_000
INGEST_QUICK_ROWS = 128_000
INGEST_BATCHES = 50
MIXED_ROUNDS = 8
MIXED_QUERIES_PER_ROUND = 6

#: Skewed (Zipf) suite: histogram vs uniform statistics.  The sharded
#: run measures adaptive rebalancing with median vs midpoint splits on
#: a Zipf-hot stream (cost plan mode, single-threaded, so its floor
#: gates unconditionally — no CPU-count gate needed); the q-error run
#: measures estimate accuracy on the same kind of stream.
ZIPF_FULL_ROWS = 1_000_000
ZIPF_QUICK_ROWS = 125_000
ZIPF_EXPONENT = 1.3
#: Fewer, fatter cohorts than the time-correlated suite: Zipf cohorts
#: all span the whole domain (no zone-map pruning), so the interesting
#: cost is rows-in-covered-shards, not per-cohort loop overhead.
ZIPF_COHORTS = 50
ZIPF_REBALANCE_ROUNDS = 6
ZIPF_WARMUP_QUERIES = 30
#: Warm-up windows are wide (spreading traffic over the hot head, so
#: median cuts keep subdividing it); the timed probes are width-1 and
#: shifted off the two hottest values, so their cost is dominated by
#: the rows the covered shards hold — the thing the split policy moves.
ZIPF_WARMUP_WIDTH = 300
ZIPF_TIMED_SHIFT = 2
#: Both stores are built first and then timed in alternating passes
#: (the first store flipping each pass), the best pass per side
#: compared, so a slow stretch of the machine lands on both.
ZIPF_PASSES = 10

#: Streaming suite: aggregate-over-join on ~1M rows (2 × 500k sides)
#: sharing a hot key, the working-set stress the streaming engine
#: exists for.  The materializing baseline holds the full pair set at
#: once; the streamed aggregate folds batches into exact moments, so
#: its recorded peak must stay ≤ batch × build rows and ≥10× under the
#: full |output|.  A second catalog adds ``SortedIndex`` leaves so the
#: cost model flips the same query to sort-merge (peak ≤ batch, full
#: stop).  Speed floors gate on ≥4 visible cores, per the carry-over
#: convention for timing-sensitive assertions.
STREAM_FULL_ROWS = 500_000
STREAM_QUICK_ROWS = 50_000
STREAM_BATCH = 2_048
STREAM_HOT_FRACTION = 0.002

#: Join-probe suite (``join_probe``): one equi-join kernel call — build
#: the right side once, probe it with the left keys — on the
#: ``history_analytics`` sensor join's shape (12,000 × 12,000 keys over
#: a 15,000-value span, which gets the dense prefix-count table) and a
#: sparse shape (a 2⁴⁰ span, which keeps binary search; half its probe
#: keys are build keys), each against a frozen copy of the
#: ``searchsorted`` kernel the dense table replaced.  Each figure is
#: the best per-call µs over alternating passes; outside ``--quick``
#: the dense lookup must cost at most half the reference.
JOIN_PROBE_ROWS = 12_000
JOIN_PROBE_SPANS = {"dense": 15_000, "sparse": 1 << 40}
JOIN_PROBE_PASSES = 7
JOIN_PROBE_CALLS = 20
JOIN_PROBE_MAX_DENSE_RATIO = 0.5

#: Compressed-execution suite: cold cohorts demoted into best-codec
#: blocks, range predicates answered on the encoded form.  The
#: retention comparison is the paper's C2 claim made concrete: at a
#: fixed byte budget over a Zipf stream, the compressed table must
#: retain strictly more history before forced forgetting than the raw
#: 8-bytes-per-value layout — deterministic arithmetic, asserted
#: unconditionally (quick included).  The ops/s comparison times the
#: compressed match path against the scan baseline and the raw
#: zone-map path on the time-correlated history; its floor gates on
#: full-size runs with ≥4 visible cores, per the carry-over
#: convention.
COMPRESSED_RETENTION_ROWS = 250_000
COMPRESSED_RETENTION_QUICK_ROWS = 50_000
#: Fixed byte budget as a fraction of the stream's raw footprint.
RETENTION_BUDGET_FRACTION = 0.25

#: Planning suite: the price of one cost-mode ``plan()`` as the history
#: grows.  Every cohort spans the whole value domain (so every cohort
#: is a candidate of every probe) and every cohort is demoted, the worst
#: case for per-cohort pricing.  Pricing runs over per-cohort arrays, so
#: 20x the cohorts must cost at most 3x the time per plan; a loop over
#: the candidate ranges measured 15x.  Plans are microseconds, so the
#: sizes do not shrink under ``--quick`` and the ratio gates always.
PLANNING_COHORTS = (100, 2_000)
PLANNING_COHORT_ROWS = 100
PLANNING_CALLS = 500
PLANNING_REPEATS = 7
PLANNING_MAX_GROWTH = 3.0

#: Amnesia suite: one forgetting step (select + validate + forget) as
#: the history grows.  A 25,000-row budget takes 1,000-row batches and
#: its policy forgets 1,000 rows an epoch until the history holds each
#: size; the median step over the next 30 epochs is one figure.  The
#: lengths' timed epochs alternate, so a slow stretch of the machine
#: (seen lasting a second, slowing CPU time as much as wall time) lands
#: on both, and each length runs three times from scratch with the
#: smallest of its three medians landing in the artifact.  The step
#: should follow the budget, not the history: outside ``--quick``, fifo
#: over a 16x longer history may cost at most 1.3x.
AMNESIA_BUDGET = 25_000
AMNESIA_BATCH = 1_000
AMNESIA_HISTORIES = (100_000, 1_600_000)
AMNESIA_QUICK_HISTORIES = (50_000, 200_000)
AMNESIA_EPOCHS = 30
AMNESIA_REPEATS = 3
AMNESIA_POLICIES = ("rot", "uniform", "fifo")
AMNESIA_MAX_FIFO_GROWTH = 1.3

#: Pricing suite: the planner never loses to the read it picks.  Three
#: rows: (1) on the unpruned-read suite's uniform history with
#: compression off, a cost-mode 512-wide read (planning included) may
#: cost at most 2x the same read handed the value-order plan (a walk of
#: every cohort measured 139x); (2) on the insert-clustered history,
#: cost mode must walk the zone map for 100k- and 500k-wide reads; (3)
#: on a shard shaped like ``ingest_forget``'s largest (196,485 rows in
#: two runs of 148,343 and 45,289 entries plus a 2,853-row tail; rot,
#: 25,000-row budget, histograms and compression on; 524-wide reads),
#: planning may add at most 0.5x the read it picks: a planned read
#: minus the same read handed its plan.  ``plan()`` alone, timed within
#: the planned reads, lands in the artifact as ``plan_over_read`` and
#: is not gated: it also does the cutting its read then skips, and it
#: sat at 0.45-0.53x of the read on a loaded 2-core x86 VM.  Timed rows
#: take the median over the windows, the smallest of ``SCAN_REPEATS``
#: passes, and gate outside ``--quick``.
PRICING_MAX_ORDER_RATIO = 2.0
PRICING_WIDE = (100_000, 500_000)
PRICING_SHARD_WIDTH = 1 << 17
PRICING_SHARD_RUNS = (148_343, 45_289)
PRICING_SHARD_TAIL = 2_853
PRICING_SHARD_BATCH = 1_100
PRICING_READ_WIDTH = (1 << 20) // 2_000
PRICING_MAX_PLAN_SHARE = 0.5

#: Unpruned-read suite: one read where the zone map cannot prune, as the
#: history grows.  A compress-on database under rot and a 25,000-row
#: budget takes 5,000-row inserts uniform over [0, 2**20), so every
#: cohort spans the domain.  Two inputs: a cost-mode database, whose
#: planner reads unpruned (``scan.history_growth``), and an index-mode
#: one with a ``SortedIndex``, whose plans read the missed side off the
#: same value order (``index.history_growth``).  The median of a
#: 512-wide ``range_query`` over 300 windows is one figure, the two
#: lengths' reads alternating; each input reads its windows three times
#: and the smallest of the three medians lands in the artifact.  A read
#: should follow its answer, not the history: outside ``--quick``, 10x
#: the rows may cost at most 1.5x.  A mask over the whole history
#: measured 5.6x, and an index plan walking the zone map for its
#: forgotten side 9.3x (2 cores).
SCAN_BUDGET = 25_000
SCAN_BATCH = 5_000
SCAN_DOMAIN = 1 << 20
SCAN_WIDTH = 512
SCAN_WINDOWS = 300
SCAN_REPEATS = 3
SCAN_HISTORIES = (100_000, 1_000_000)
SCAN_QUICK_HISTORIES = (50_000, 200_000)
SCAN_MAX_GROWTH = 1.5

#: Serving suite: the multi-tenant service driven in process (no
#: socket noise), one selective shape pool cycled so the second pass
#: onward hits the result cache.  Cold = empty caches, warm = primed;
#: http = the warm pass again, over one keep-alive HTTP connection.
SERVE_FULL_ROWS = 200_000
SERVE_QUICK_ROWS = 25_000
SERVE_SHAPES = 25
SERVE_ROUNDS = 4

#: Rebalance suite: one adaptive ``rebalance()`` on an 8-shard store
#: (rot policy, cost plans, one worker) holding 1M rows over 400 epochs
#: under a 200k budget, with range traffic only on shard 0, so the
#: rebalance splits shard 0 and merges the coldest adjacent pair.  The
#: wall time and the part of it spent replaying migrated rows land in
#: the artifact; only the split/merge shape is asserted.
REBALANCE_FULL_ROWS = 1_000_000
REBALANCE_QUICK_ROWS = 125_000
REBALANCE_EPOCHS = 400
REBALANCE_BUDGET_FRACTION = 0.2
REBALANCE_DOMAIN = 1_000_000

#: Checkpoint suite: one save of a store shaped like ``ingest_forget``'s.
#: An 8-shard rot store over [0, 2**20) (200,000-row budget, cost plans,
#: histogram statistics) takes 20 batches of 15,000 rows, then 140 of
#: 5,000 (the workload's ten seconds), each followed by
#: ``CHECKPOINT_READS`` shard-local 524-wide reads; values are
#: beta(1.3, 2.2) over the domain, as the workload draws them.  The
#: same inserts and reads build it twice, with compression on and off.
#: Each store's save seconds (median of ``CHECKPOINT_SAVES``) and file
#: bytes per row land in the artifact.  A checkpoint saves a demoted
#: cohort's values only as its codec block, so outside ``--quick`` the
#: compress-on file may be no larger per row than the compress-off one
#: (deterministic: the files are byte-for-byte reproducible).  Saving
#: them a second time as raw values failed this (6.83 against
#: 4.34 B/row).
CHECKPOINT_DOMAIN = 1 << 20
CHECKPOINT_BUDGET = 200_000
CHECKPOINT_HISTORY = (20, 15_000)
CHECKPOINT_EPOCHS = (140, 5_000)
CHECKPOINT_QUICK_EPOCHS = (20, 5_000)
CHECKPOINT_READS = 10
CHECKPOINT_READ_WIDTH = CHECKPOINT_DOMAIN // 2_000
CHECKPOINT_SAVES = 5

#: Trajectory artifact consumed by CI (ops/s per plan mode + shards).
ARTIFACT_PATH = Path(__file__).resolve().parent.parent / "BENCH_planner.json"

_ARTIFACT: dict = {}


@pytest.fixture(scope="module", autouse=True)
def artifact(quick):
    """Collect ops/s figures across tests; write the JSON at teardown."""
    _ARTIFACT.clear()
    _ARTIFACT.update(
        {
            "suite": "planner",
            "seed": BENCH_SEED,
            "quick": bool(quick),
            "queries": QUERIES,
            "cpus": CPUS,
            "single_table": {"modes": {}},
            "sharded": {"shards": SHARDS, "modes": {}, "workers": {}},
            "join": {"modes": {}, "workers": {}},
            "ingest": {"shards": SHARDS, "workers": {}, "mixed": {}},
            "skewed": {"modes": {}, "qerror": {}},
            "streaming": {"modes": {}},
            "join_probe": {},
            "compressed": {"modes": {}, "retention": {}},
            "planning": {"modes": {}},
            "amnesia": {"growth": {}},
            "scan": {"history_growth": {}},
            "pricing": {},
            "index": {"history_growth": {}},
            "serve": {"modes": {}},
            "rebalance": {"adaptive_s": {}, "replay_s": {}},
            "checkpoint": {},
        }
    )
    yield _ARTIFACT
    ARTIFACT_PATH.write_text(
        json.dumps(_ARTIFACT, indent=2, sort_keys=True) + "\n"
    )


def _record(section: str, mode: str, seconds: float, n_queries: int) -> None:
    _ARTIFACT[section]["modes"][mode] = {
        "seconds": round(seconds, 6),
        "ops_per_s": round(n_queries / seconds, 2) if seconds > 0 else None,
    }


def _build(rows: int) -> tuple[Table, CohortZoneMap]:
    """A time-correlated history: cohort i holds values in window i."""
    rng = np.random.default_rng(BENCH_SEED)
    table = Table("bench_planner", ["a"])
    zone_map = CohortZoneMap(table)  # maintained incrementally from day 0
    span = rows // COHORTS
    for epoch in range(COHORTS):
        values = rng.integers(epoch * span, (epoch + 1) * span, span)
        table.insert_batch(epoch, values_by_column={"a": values})
    # Forget the oldest 10% so the missed (M_F) side is exercised too.
    table.forget(np.arange(rows // 10), epoch=COHORTS)
    return table, zone_map


def _queries(rows: int) -> list[RangeQuery]:
    rng = np.random.default_rng(BENCH_SEED + 1)
    width = max(1, int(rows * WIDTH_FRACTION))
    lows = rng.integers(0, rows - width, QUERIES)
    return [RangeQuery(RangePredicate("a", int(low), int(low) + width)) for low in lows]


def _run_all(executor: QueryExecutor, queries) -> list[tuple[int, int]]:
    return [
        (r.rf, r.mf)
        for r in (executor.execute_range(q, epoch=COHORTS) for q in queries)
    ]


def _time_best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def history(quick):
    rows = QUICK_ROWS if quick else FULL_ROWS
    table, zone_map = _build(rows)
    return rows, table, zone_map, _queries(rows)


def test_auto_plan_at_least_5x_faster_than_scan(history):
    rows, table, zone_map, queries = history
    scan = QueryExecutor(table, record_access=False)
    auto = QueryExecutor(
        table,
        record_access=False,
        planner=QueryPlanner(table, mode="auto", zone_map=zone_map),
    )
    # Identical answers first (rf AND mf — the oracle side must survive
    # pruning), then the speed claim.
    assert _run_all(scan, queries) == _run_all(auto, queries)
    scan_time = _time_best_of(lambda: _run_all(scan, queries))
    auto_time = _time_best_of(lambda: _run_all(auto, queries))
    ratio = scan_time / auto_time
    _ARTIFACT["rows"] = rows
    _record("single_table", "scan", scan_time, len(queries))
    _record("single_table", "auto", auto_time, len(queries))
    _ARTIFACT["single_table"]["auto_speedup_over_scan"] = round(ratio, 2)
    print(
        f"\nplanner speedup on {rows} rows: scan {scan_time * 1e3:.1f}ms "
        f"vs auto {auto_time * 1e3:.1f}ms ({ratio:.1f}x)"
    )
    if rows >= FULL_ROWS:
        # The hard floor only gates full-size runs; --quick (CI smoke)
        # still checks equivalence and pruning but not wall-clock, so
        # shared-runner timing noise cannot redden the suite.
        assert ratio >= 5.0, (
            f"expected >=5x speedup on {rows} rows, got {ratio:.1f}x"
        )
    # Every read is pruned: a zone-map walk where it prices below the
    # value order, the order otherwise (no index is registered).
    stats = auto.planner.stats()
    paths = stats["paths"]
    assert paths["zonemap"] > 0
    assert paths["zonemap"] + paths["scan"] == len(queries) * (REPEATS + 1)
    assert stats["pruned_fraction"] > 0.9


def test_cost_mode_at_least_matches_auto(history):
    """Acceptance: cost ≥ auto on the 1M-row suite, and neither walks
    into a coarse index.

    All three planners see the same structures: the zone map plus a
    coarse BRIN whose blocks span several cohorts.  An index plan reads
    its probe plus the value order, so ``auto`` and ``cost`` price only
    the order and the zone-map walk and pick alike for every query;
    only a planner forced to ``index`` mode pays the oversized probe.
    """
    rows, table, zone_map, queries = history
    # Blocks span ~25 cohorts: the probe considers an order of magnitude
    # more rows than the pruned scan.
    coarse = BlockRangeIndex(table, "a", block_size=max(rows // 10, 1))
    executors = {
        mode: QueryExecutor(
            table,
            record_access=False,
            planner=QueryPlanner(
                table, mode=mode, zone_map=zone_map, indexes=[coarse]
            ),
        )
        for mode in ("index", "auto", "cost")
    }
    answers = [_run_all(executor, queries) for executor in executors.values()]
    assert answers[0] == answers[1] == answers[2]
    paths = {mode: e.planner.stats()["paths"] for mode, e in executors.items()}
    assert paths["index"]["index"] == len(queries)
    assert paths["auto"] == paths["cost"]
    assert paths["cost"]["index"] == 0
    times = {
        mode: _time_best_of(lambda e=executor: _run_all(e, queries))
        for mode, executor in executors.items()
    }
    _record("single_table", "index_with_coarse_index", times["index"], len(queries))
    _record("single_table", "cost", times["cost"], len(queries))
    _ARTIFACT["single_table"]["cost_speedup_over_auto"] = round(
        times["auto"] / times["cost"], 2
    )
    ratio = times["index"] / times["cost"]
    _ARTIFACT["single_table"]["cost_speedup_over_forced_index"] = round(ratio, 2)
    print(
        f"\ncost-model gain on {rows} rows: forced index "
        f"{times['index'] * 1e3:.1f}ms vs auto {times['auto'] * 1e3:.1f}ms "
        f"vs cost {times['cost'] * 1e3:.1f}ms ({ratio:.1f}x)"
    )
    if rows >= FULL_ROWS:
        # Quick (CI smoke) runs assert plan shapes only; full runs hold
        # the acceptance line that cost never loses to the trap.
        assert ratio >= 1.0, (
            f"cost mode slower than a forced index plan on {rows} rows "
            f"({ratio:.2f}x)"
        )


def _build_sharded(rows: int, plan: str) -> PartitionedAmnesiaDatabase:
    """Time-correlated stream routed into a range-sharded store."""
    rng = np.random.default_rng(BENCH_SEED + 2)
    boundaries = np.linspace(0, rows, SHARDS + 1).astype(int).tolist()
    store = PartitionedAmnesiaDatabase(
        "a",
        boundaries,
        total_budget=rows // 2,
        policy_factory=FifoAmnesia,
        seed=BENCH_SEED,
        plan=plan,
    )
    span = rows // COHORTS
    for epoch in range(COHORTS):
        store.insert({"a": rng.integers(epoch * span, (epoch + 1) * span, span)})
    return store


def _run_sharded(store: PartitionedAmnesiaDatabase, queries) -> list:
    return [
        (r.rf, r.mf)
        for r in (
            store.range_query(q.predicate.low, q.predicate.high)
            for q in queries
        )
    ]


def test_bench_sharded_store_across_plan_modes(quick):
    """Shard-pruned, planner-routed execution on every plan mode.

    Results must merge identically whatever the mode; ops/s per mode
    and the shard count land in the trajectory artifact.
    """
    rows = SHARDED_QUICK_ROWS if quick else SHARDED_FULL_ROWS
    queries = _queries(rows)
    stores = {mode: _build_sharded(rows, mode) for mode in SHARDED_MODES}
    _ARTIFACT["sharded"]["rows"] = rows
    baseline = _run_sharded(stores["scan"], queries)
    timings = {}
    for mode, store in stores.items():
        assert _run_sharded(store, queries) == baseline, mode
        timings[mode] = _time_best_of(lambda s=store: _run_sharded(s, queries))
        _record("sharded", mode, timings[mode], len(queries))
    _ARTIFACT["sharded"]["cost_speedup_over_scan"] = round(
        timings["scan"] / timings["cost"], 2
    )
    # Selective queries touch ~1 shard; the planner must have pruned
    # most of the fan-out in the non-scan modes.
    pruned = sum(stores["cost"].stats()["shard_prunes"])
    assert pruned > 0
    print(
        "\nsharded ops/s: "
        + ", ".join(
            f"{mode}={len(queries) / timings[mode]:.0f}"
            for mode in SHARDED_MODES
        )
    )


def test_bench_sharded_worker_fanout(quick):
    """Acceptance: the ``workers`` dimension of the sharded suite.

    One store, scan mode (every query pays the full per-shard scan, so
    the fan-out has real work to overlap), timed at ``workers=1`` and
    ``workers=4``.  Results must be bit-identical; the ops/s per worker
    count and the speedup land in the trajectory artifact along with
    the CPU count.  The throughput floors — 4-worker ≥ sequential in
    ``--quick`` (CI smoke), ≥ 1.5× sequential on the full 1M-row run —
    only gate hosts with ≥ 4 visible cores, because a thread pool on a
    single core can only lose; the measured ratio is recorded
    regardless, so the artifact still tells the story.
    """
    rows = FANOUT_QUICK_ROWS if quick else FANOUT_FULL_ROWS
    queries = _queries(rows)
    store = _build_sharded(rows, "scan")
    _ARTIFACT["sharded"]["fanout_rows"] = rows
    results = {}
    timings = {}
    for workers in FANOUT_WORKERS:
        store.workers = workers
        results[workers] = _run_sharded(store, queries)
        timings[workers] = _time_best_of(lambda: _run_sharded(store, queries))
        _ARTIFACT["sharded"]["workers"][str(workers)] = {
            "seconds": round(timings[workers], 6),
            "ops_per_s": round(len(queries) / timings[workers], 2),
        }
    # Bit-identical first: the merge is ordered, so the fan-out cannot
    # leak completion order into counts.
    assert results[4] == results[1]
    speedup = timings[1] / timings[4]
    _ARTIFACT["sharded"]["fanout_speedup"] = round(speedup, 2)
    print(
        f"\nsharded fan-out on {rows} rows ({CPUS} cpus): "
        f"workers=1 {timings[1] * 1e3:.1f}ms vs "
        f"workers=4 {timings[4] * 1e3:.1f}ms ({speedup:.2f}x)"
    )
    store.close()
    if CPUS >= 4:
        # Quick (CI smoke) nominally wants parallel >= sequential; the
        # 0.9 floor leaves 10% headroom for shared-runner timing noise
        # on the small workload, while still catching a fan-out that
        # actually serializes (which measures far lower).  Full-size
        # runs hold the acceptance line.
        floor = 1.5 if rows >= FANOUT_FULL_ROWS else 0.9
        assert speedup >= floor, (
            f"expected >={floor}x fan-out speedup on {rows} rows with "
            f"{CPUS} cpus, got {speedup:.2f}x"
        )


def _build_join_catalog(rows: int, plan: str) -> Catalog:
    """Two time-correlated sensor tables in one catalog."""
    rng = np.random.default_rng(BENCH_SEED + 3)
    catalog = Catalog(plan=plan, workers=1)
    span = rows // COHORTS
    for name in ("s1", "s2"):
        table = catalog.create_table(name, ["a"])
        for epoch in range(COHORTS):
            table.insert_batch(
                epoch, {"a": rng.integers(epoch * span, (epoch + 1) * span, span)}
            )
        table.forget(np.arange(rows // 10), epoch=COHORTS)
    return catalog


def _join_specs(rows: int) -> list[str]:
    rng = np.random.default_rng(BENCH_SEED + 4)
    width = max(1, int(rows * WIDTH_FRACTION))
    # Two windows pinned into the forgotten decile (the oldest 10% of
    # this time-correlated history) so the M_F side of the join is
    # always exercised; the rest sweep the domain at random.
    lows = [0, rows // 20] + rng.integers(
        0, rows - width, QUERIES - 2
    ).tolist()
    return [
        f"join:s1,s2:on=value,low={int(low)},high={int(low) + width}"
        for low in lows
    ]


def _run_joins(catalog: Catalog, specs) -> list[tuple[int, int]]:
    return [
        (r.rf, r.mf)
        for r in (catalog.query(spec, epoch=COHORTS) for spec in specs)
    ]


def test_bench_cross_table_join(quick):
    """Acceptance: the ``join`` ops/s dimension of the trajectory.

    Selective equi-joins between two sensor tables run through
    ``Catalog.query`` under scan mode (every leaf pays the full table
    scan — the fan-out stress case) at ``workers in {1, 4}``, and under
    auto mode (zone-map-pruned leaves) for the planned-path ops/s.
    Results must be bit-identical across widths and modes.  The
    fan-out throughput floors — 4-worker ≥ 0.8× sequential in
    ``--quick``, ≥ 1.2× on the full-size run (two leaf scans can
    overlap at most 2×, and the single-threaded hash build bounds the
    gain below that) — gate on ≥ 4 visible cores, per the established
    convention; the measured ratio is recorded either way.
    """
    rows = JOIN_QUICK_ROWS if quick else JOIN_FULL_ROWS
    specs = _join_specs(rows)
    catalog = _build_join_catalog(rows, "scan")
    _ARTIFACT["join"]["rows"] = rows
    results = {}
    timings = {}
    for workers in FANOUT_WORKERS:
        catalog.workers = workers
        results[workers] = _run_joins(catalog, specs)
        timings[workers] = _time_best_of(lambda: _run_joins(catalog, specs))
        _ARTIFACT["join"]["workers"][str(workers)] = {
            "seconds": round(timings[workers], 6),
            "ops_per_s": round(len(specs) / timings[workers], 2),
        }
    assert results[4] == results[1]
    # The workload must actually join something, and must see both
    # sides' forgetting (forgotten rows sit in the oldest 10%).
    assert sum(rf for rf, _ in results[1]) > 0
    assert sum(mf for _, mf in results[1]) > 0
    speedup = timings[1] / timings[4]
    _ARTIFACT["join"]["fanout_speedup"] = round(speedup, 2)
    _record("join", "scan", timings[1], len(specs))

    auto_catalog = _build_join_catalog(rows, "auto")
    assert _run_joins(auto_catalog, specs) == results[1]
    auto_time = _time_best_of(lambda: _run_joins(auto_catalog, specs))
    _record("join", "auto", auto_time, len(specs))
    _ARTIFACT["join"]["auto_speedup_over_scan"] = round(
        timings[1] / auto_time, 2
    )
    print(
        f"\ncross-table join on 2x{rows} rows ({CPUS} cpus): "
        f"workers=1 {timings[1] * 1e3:.1f}ms vs "
        f"workers=4 {timings[4] * 1e3:.1f}ms ({speedup:.2f}x); "
        f"auto {auto_time * 1e3:.1f}ms "
        f"({timings[1] / auto_time:.1f}x over scan)"
    )
    if CPUS >= 4:
        floor = 1.2 if rows >= JOIN_FULL_ROWS else 0.8
        assert speedup >= floor, (
            f"expected >={floor}x join fan-out speedup on {rows} rows "
            f"with {CPUS} cpus, got {speedup:.2f}x"
        )


def _ingest_batches(rows: int) -> list[np.ndarray]:
    rng = np.random.default_rng(BENCH_SEED + 10)
    size = rows // INGEST_BATCHES
    return [rng.integers(0, rows, size) for _ in range(INGEST_BATCHES)]


def _build_ingest_store(rows: int, workers: int) -> PartitionedAmnesiaDatabase:
    boundaries = np.linspace(0, rows, SHARDS + 1).astype(int).tolist()
    return PartitionedAmnesiaDatabase(
        "a",
        boundaries,
        total_budget=rows // 2,
        policy_factory=FifoAmnesia,
        seed=BENCH_SEED,
        plan="scan",
        workers=workers,
    )


def _shard_state(store: PartitionedAmnesiaDatabase) -> list:
    return [
        (
            partition.db.table.values("a").tolist(),
            partition.db.table.insert_epochs().tolist(),
            partition.db.table.active_mask().tolist(),
        )
        for partition in store.partitions
    ]


def test_bench_concurrent_ingest(quick):
    """Acceptance: the mixed read/write (``ingest``) suite.

    Phase 1 times pure batched ingest — every batch enqueued and
    flushed through the per-shard appliers — at ``workers in {1, 4}``
    over the 1M-row stream.  Phase 2 times a mixed read/write loop
    (enqueue/flush rounds interleaved with selective range queries) on
    the stores phase 1 built.  Final shard state and every mixed-phase
    result must be bit-identical across widths; rows/s, ops/s and the
    speedups land in the trajectory artifact.  The ingest throughput
    floor — 4-worker ≥ 1.5× sequential on the full-size run, ≥ 0.9× in
    ``--quick`` (noise headroom on the small workload) — gates on ≥ 4
    visible cores, per the established convention.
    """
    rows = INGEST_QUICK_ROWS if quick else INGEST_FULL_ROWS
    batches = _ingest_batches(rows)
    width = max(1, int(rows * WIDTH_FRACTION))
    query_rng = np.random.default_rng(BENCH_SEED + 11)
    mixed_lows = query_rng.integers(
        0, rows - width, MIXED_ROUNDS * MIXED_QUERIES_PER_ROUND
    ).tolist()
    mixed_batches = [
        query_rng.integers(0, rows, len(batches[0]))
        for _ in range(MIXED_ROUNDS * 2)
    ]
    _ARTIFACT["ingest"]["rows"] = rows
    stores = {}
    ingest_timings = {}
    mixed_timings = {}
    mixed_results = {}
    for workers in FANOUT_WORKERS:
        store = _build_ingest_store(rows, workers)
        start = time.perf_counter()
        for batch in batches:
            store.enqueue({"a": batch})
            store.flush()
        ingest_timings[workers] = time.perf_counter() - start
        assert store.ingest_epoch == INGEST_BATCHES
        _ARTIFACT["ingest"]["workers"][str(workers)] = {
            "seconds": round(ingest_timings[workers], 6),
            "rows_per_s": round(rows / ingest_timings[workers], 2),
        }
        stores[workers] = store

    # Bit-identity before any floor: the applier fan-out must land
    # exactly the sequential state, shard by shard.
    assert _shard_state(stores[4]) == _shard_state(stores[1])

    for workers, store in stores.items():
        results = []
        start = time.perf_counter()
        for round_index in range(MIXED_ROUNDS):
            store.enqueue({"a": mixed_batches[2 * round_index]})
            store.enqueue({"a": mixed_batches[2 * round_index + 1]})
            store.flush()
            for q in range(MIXED_QUERIES_PER_ROUND):
                low = mixed_lows[round_index * MIXED_QUERIES_PER_ROUND + q]
                result = store.range_query(low, low + width)
                results.append((result.rf, result.mf))
        mixed_timings[workers] = time.perf_counter() - start
        mixed_results[workers] = results
        ops = MIXED_ROUNDS * (MIXED_QUERIES_PER_ROUND + 1)
        _ARTIFACT["ingest"]["mixed"][str(workers)] = {
            "seconds": round(mixed_timings[workers], 6),
            "ops_per_s": round(ops / mixed_timings[workers], 2),
        }
    assert mixed_results[4] == mixed_results[1]
    assert _shard_state(stores[4]) == _shard_state(stores[1])
    for store in stores.values():
        store.close()

    ingest_speedup = ingest_timings[1] / ingest_timings[4]
    mixed_speedup = mixed_timings[1] / mixed_timings[4]
    _ARTIFACT["ingest"]["fanout_speedup"] = round(ingest_speedup, 2)
    _ARTIFACT["ingest"]["mixed_fanout_speedup"] = round(mixed_speedup, 2)
    print(
        f"\nconcurrent ingest of {rows} rows ({CPUS} cpus): "
        f"workers=1 {ingest_timings[1] * 1e3:.1f}ms vs "
        f"workers=4 {ingest_timings[4] * 1e3:.1f}ms "
        f"({ingest_speedup:.2f}x); mixed r/w {mixed_speedup:.2f}x"
    )
    if CPUS >= 4:
        floor = 1.5 if rows >= INGEST_FULL_ROWS else 0.9
        assert ingest_speedup >= floor, (
            f"expected >={floor}x ingest fan-out speedup on {rows} rows "
            f"with {CPUS} cpus, got {ingest_speedup:.2f}x"
        )


def _zipf_values(rng, n: int, domain: int) -> np.ndarray:
    """Zipf-skewed values in [0, domain): heavy mass on a hot head."""
    return np.minimum(rng.zipf(ZIPF_EXPONENT, n) - 1, domain - 1)


def _zipf_warmup(rows: int) -> list[tuple[int, int]]:
    """Wide windows at Zipf-drawn anchors: the traffic that teaches the
    adaptive rebalancer where the hot value mass lives."""
    rng = np.random.default_rng(BENCH_SEED + 5)
    lows = _zipf_values(rng, ZIPF_WARMUP_QUERIES, rows)
    return [(int(low), int(low) + ZIPF_WARMUP_WIDTH) for low in lows]


def _zipf_timed(rows: int) -> list[tuple[int, int]]:
    """Width-1 probes at (shifted) Zipf anchors: selective enough that
    their cost is the rows held by the shards they cover."""
    rng = np.random.default_rng(BENCH_SEED + 9)
    lows = np.minimum(
        ZIPF_TIMED_SHIFT + _zipf_values(rng, QUERIES, rows), rows - 2
    )
    return [(int(low), int(low) + 1) for low in lows]


def _build_zipf_sharded(rows: int, stats: str) -> PartitionedAmnesiaDatabase:
    rng = np.random.default_rng(BENCH_SEED + 6)
    store = PartitionedAmnesiaDatabase(
        "a",
        [0, rows // 2, rows],
        total_budget=rows // 2,
        policy_factory=FifoAmnesia,
        seed=BENCH_SEED,
        plan="cost",
        rebalance="adaptive",
        split_threshold=1.5,
        max_partitions=10,
        stats=stats,
    )
    span = rows // ZIPF_COHORTS
    for _ in range(ZIPF_COHORTS):
        store.insert({"a": _zipf_values(rng, span, rows)})
    return store


def test_bench_skewed_hist_splits_beat_midpoint(quick):
    """Acceptance: histogram-cost ≥ uniform-cost ops/s on the Zipf
    sharded suite.

    Same Zipf stream, same adaptive rebalancing cadence, same hot
    point queries — the only knob is ``stats``: ``uniform`` cuts hot
    shards at range midpoints (which, on a Zipf stream whose mass sits
    at the head, leave one side holding almost all rows *and* traffic),
    ``hist`` cuts at the traffic-weighted median, so the hot region's
    rows split in half each round and selective hot probes touch a
    fraction of the store.  Both stores are built before either is
    timed, then timed in alternating passes, best pass per side.
    Single-threaded, so the floor gates unconditionally (no CPU-count
    gate): full-size runs must show hist ≥ uniform; ``--quick`` keeps
    10% noise headroom.
    """
    rows = ZIPF_QUICK_ROWS if quick else ZIPF_FULL_ROWS
    _ARTIFACT["skewed"]["rows"] = rows
    warmup = _zipf_warmup(rows)
    timed = _zipf_timed(rows)
    stores = {}
    for stats in ("uniform", "hist"):
        store = stores[stats] = _build_zipf_sharded(rows, stats)
        for _ in range(ZIPF_REBALANCE_ROUNDS):
            for low, high in warmup:
                store.range_query(low, high)
            store.rebalance(policy="adaptive")
        _ARTIFACT["skewed"][f"{stats}_boundaries"] = list(store.boundaries)
        split = "at median" if stats == "hist" else "at midpoint"
        assert any(split in e for e in store.adaptations)
    timings = dict.fromkeys(stores, float("inf"))
    for turn in range(ZIPF_PASSES):
        for stats in sorted(stores, reverse=turn % 2 == 1):
            start = time.perf_counter()
            for low, high in timed:
                stores[stats].range_query(low, high)
            timings[stats] = min(timings[stats], time.perf_counter() - start)
    for stats, store in stores.items():
        _record("skewed", stats, timings[stats], len(timed))
        store.close()
    ratio = timings["uniform"] / timings["hist"]
    _ARTIFACT["skewed"]["hist_speedup_over_uniform"] = round(ratio, 2)
    print(
        f"\nzipf sharded on {rows} rows: uniform(midpoint) "
        f"{timings['uniform'] * 1e3:.1f}ms vs hist(median) "
        f"{timings['hist'] * 1e3:.1f}ms ({ratio:.2f}x)"
    )
    floor = 1.0 if rows >= ZIPF_FULL_ROWS else 0.9
    assert ratio >= floor, (
        f"histogram-cost slower than uniform-cost on {rows} Zipf rows "
        f"({ratio:.2f}x, floor {floor}x)"
    )


def test_bench_skewed_qerror(quick):
    """Acceptance: recorded q-error improves under histogram stats.

    One Zipf table, one zone map, two estimate sources; mean/max
    q-error over a skew-matched probe mix lands in the artifact and
    the histogram mean must beat per-cohort uniformity.  Deterministic
    (no timing), so it gates in ``--quick`` too.
    """
    rows = (ZIPF_QUICK_ROWS if quick else ZIPF_FULL_ROWS) // 4
    rng = np.random.default_rng(BENCH_SEED + 7)
    table = Table("bench_zipf", ["a"])
    zone_map = CohortZoneMap(table)
    span = rows // COHORTS
    for epoch in range(COHORTS):
        table.insert_batch(epoch, {"a": _zipf_values(rng, span, rows)})
    table.forget(np.arange(rows // 10), epoch=COHORTS)
    stats = TableHistogramStats(table, bins=256)
    values = table.values("a")
    # Width-64 windows around skew-matched anchors: wide enough that
    # the histogram's uniform-within-bin floor is not the story.
    probes = [(low, low + 64) for low, _ in _zipf_timed(rows)]

    def qerror(est: float, actual: int) -> float:
        est, actual = max(est, 1.0), max(float(actual), 1.0)
        return max(est / actual, actual / est)

    errors: dict[str, list[float]] = {"uniform": [], "hist": []}
    for low, high in probes:
        actual = int(((values >= low) & (values < high)).sum())
        errors["uniform"].append(
            qerror(zone_map.estimate("a", low, high).est_rows, actual)
        )
        errors["hist"].append(
            qerror(
                zone_map.estimate("a", low, high, stats=stats).est_rows,
                actual,
            )
        )
    for source, errs in errors.items():
        _ARTIFACT["skewed"]["qerror"][source] = {
            "mean": round(float(np.mean(errs)), 2),
            "max": round(float(np.max(errs)), 2),
        }
    print(
        f"\nzipf q-error on {rows} rows: "
        + ", ".join(
            f"{source} mean={np.mean(errs):.1f} max={np.max(errs):.1f}"
            for source, errs in errors.items()
        )
    )
    assert np.mean(errors["hist"]) < np.mean(errors["uniform"])


def _build_stream_catalog(rows: int, *, ordered: bool) -> Catalog:
    """Two hot-key-sharing sensor tables; ``ordered`` adds a
    ``SortedIndex`` per leaf so the cost model can pick sort-merge."""
    rng = np.random.default_rng(BENCH_SEED + 12)
    catalog = Catalog(plan="auto", workers=1)
    for name in ("s1", "s2"):
        table = catalog.create_table(name, ["a"])
        values = rng.integers(0, rows, rows)
        values[rng.random(rows) < STREAM_HOT_FRACTION] = 7  # shared hot key
        table.insert_batch(0, {"a": values})
        table.forget(np.arange(rows // 10), epoch=1)
        if ordered:
            catalog.create_index(name, "a", SortedIndex)
    return catalog


def test_bench_streaming_aggregate_over_join(quick):
    """Acceptance: the ``streaming`` suite of the trajectory artifact.

    The same aggregate-over-join runs three ways on identical data:
    materialized (full pair set, then moments — the pre-streaming
    shape), streamed-hash (probe batches against the build side), and
    sort-merge (``SortedIndex`` on both leaves flips the cost model's
    strategy choice).  All three must produce bit-identical exact
    moments and RF/MF counts.  The memory claims are deterministic and
    gate everywhere, quick included: streamed peak pairs ≤ batch ×
    build rows and ≥10× under the materialized |output|; sort-merge
    peak ≤ batch outright.  The wall-clock floors — streaming must cost
    at most 2× the materialized single-shot run, i.e. the working-set
    bound is not bought with an order-of-magnitude slowdown, and
    sort-merge at most 2× streamed-hash — gate on full-size runs with
    ≥4 visible cores, per the carry-over convention; the measured
    ratios land in the artifact regardless.
    """
    rows = STREAM_QUICK_ROWS if quick else STREAM_FULL_ROWS
    from repro.query import build_plan

    catalog = _build_stream_catalog(rows, ordered=False)
    spec = "join:s1,s2:on=value"
    mat_node = build_plan(catalog, spec)
    mat = catalog.query(mat_node, epoch=1)
    total_pairs = mat.oracle_count
    build_rows = min(r.oracle_count for r in mat.inputs)
    assert mat_node.peak_pairs == total_pairs  # the baseline holds it all
    expected_active = ExactMoments.of(mat.rows[~mat.forgotten, 0])
    expected_missed = ExactMoments.of(mat.rows[mat.forgotten, 0])

    agg_node = build_plan(catalog, spec + ",agg=value")
    join_node = agg_node.children[0]
    agg = catalog.query(agg_node, epoch=1, batch_size=STREAM_BATCH)
    assert agg.strategy == f"streamed-hash(batch={STREAM_BATCH})"
    assert (agg.active, agg.missed) == (expected_active, expected_missed)
    assert (agg.rf, agg.mf) == (mat.rf, mat.mf)
    # The tentpole bound: the streamed peak is capped by batch × build
    # rows and, at this bench shape, at least 10x under the pair set.
    assert 0 < join_node.peak_pairs <= STREAM_BATCH * build_rows
    assert join_node.peak_pairs * 10 <= total_pairs
    streamed_peak = join_node.peak_pairs

    ordered_catalog = _build_stream_catalog(rows, ordered=True)
    merge_node = build_plan(ordered_catalog, spec + ",agg=value")
    merge_join = merge_node.children[0]
    merge = ordered_catalog.query(merge_node, epoch=1, batch_size=STREAM_BATCH)
    assert merge.strategy == f"sort-merge(batch={STREAM_BATCH})"
    assert (merge.active, merge.missed) == (expected_active, expected_missed)
    # Fixed-size pair slabs cap the merge's working set at the batch size
    # even though the hot key alone joins far wider than one batch.
    assert 0 < merge_join.peak_pairs <= STREAM_BATCH

    mat_time = _time_best_of(lambda: catalog.query(mat_node, epoch=1))
    streamed_time = _time_best_of(
        lambda: catalog.query(agg_node, epoch=1, batch_size=STREAM_BATCH)
    )
    merge_time = _time_best_of(
        lambda: ordered_catalog.query(
            merge_node, epoch=1, batch_size=STREAM_BATCH
        )
    )
    _record("streaming", "materialized", mat_time, 1)
    _record("streaming", "streamed-hash", streamed_time, 1)
    _record("streaming", "sort-merge", merge_time, 1)
    _ARTIFACT["streaming"].update(
        {
            "rows": rows,
            "batch": STREAM_BATCH,
            "total_pairs": int(total_pairs),
            "build_rows": int(build_rows),
            "materialized_peak_pairs": int(mat_node.peak_pairs),
            "streamed_peak_pairs": int(streamed_peak),
            "merge_peak_pairs": int(merge_join.peak_pairs),
            "peak_shrink": round(total_pairs / max(streamed_peak, 1), 2),
            "streamed_vs_materialized": round(mat_time / streamed_time, 2),
            "merge_vs_materialized": round(mat_time / merge_time, 2),
            # A cost ratio (merge seconds per streamed-hash second),
            # unlike the speed ratios above: below 1 means merge wins.
            "merge_vs_streamed": round(merge_time / streamed_time, 2),
        }
    )
    print(
        f"\nstreaming aggregate-over-join on 2x{rows} rows ({CPUS} cpus): "
        f"peak pairs {total_pairs:,} -> {streamed_peak:,} streamed "
        f"({total_pairs / max(streamed_peak, 1):.0f}x smaller), "
        f"{merge_join.peak_pairs:,} sort-merge; materialized "
        f"{mat_time * 1e3:.1f}ms vs streamed {streamed_time * 1e3:.1f}ms "
        f"vs merge {merge_time * 1e3:.1f}ms"
    )
    catalog.close()
    ordered_catalog.close()
    if CPUS >= 4 and rows >= STREAM_FULL_ROWS:
        ratio = mat_time / streamed_time
        assert ratio >= 0.5, (
            f"streaming cost more than 2x the materialized run on "
            f"{rows} rows with {CPUS} cpus ({ratio:.2f}x)"
        )
        merge_cost = merge_time / streamed_time
        assert merge_cost <= 2.0, (
            f"sort-merge cost more than 2x streamed-hash on {rows} rows "
            f"with {CPUS} cpus ({merge_cost:.2f}x)"
        )


def _searchsorted_join(probe_keys: np.ndarray, keys: np.ndarray):
    """The equi-join kernel before the dense lookup, frozen as the
    reference: a stable int64 argsort of the build keys and two binary
    searches per probe key."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    lo = np.searchsorted(sorted_keys, probe_keys, side="left")
    counts = np.searchsorted(sorted_keys, probe_keys, side="right") - lo
    probe_idx = np.repeat(np.arange(probe_keys.size, dtype=np.int64), counts)
    within = np.arange(probe_idx.size, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return probe_idx, order[np.repeat(lo, counts) + within]


def test_bench_join_probe(quick):
    """Acceptance: the ``join_probe`` section (see the suite's constants).

    Both lookups return the reference's pairs exactly; the dense shape
    must build the prefix-count table and the sparse one must not.
    """
    from repro.query.plans import _probe, _sort_build

    def kernel(probe_keys, keys):
        return _probe(probe_keys, _sort_build(keys))

    rng = np.random.default_rng(BENCH_SEED + 38)
    section = _ARTIFACT["join_probe"]
    for shape, span in JOIN_PROBE_SPANS.items():
        keys = rng.integers(0, span, JOIN_PROBE_ROWS)
        probe_keys = rng.integers(0, span, JOIN_PROBE_ROWS)
        if shape == "sparse":  # random 2⁴⁰ keys would never meet
            probe_keys[::2] = rng.choice(keys, JOIN_PROBE_ROWS // 2)
        assert (_sort_build(keys).prefix is not None) == (shape == "dense")
        got, want = kernel(probe_keys, keys), _searchsorted_join(probe_keys, keys)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        best = {kernel: float("inf"), _searchsorted_join: float("inf")}
        for n in range(JOIN_PROBE_PASSES):
            for fn in (kernel, _searchsorted_join)[:: 1 if n % 2 else -1]:
                start = time.perf_counter()
                for _ in range(JOIN_PROBE_CALLS):
                    fn(probe_keys, keys)
                seconds = (time.perf_counter() - start) / JOIN_PROBE_CALLS
                best[fn] = min(best[fn], seconds * 1e6)
        section[shape] = {
            "rows": JOIN_PROBE_ROWS,
            "span": span,
            "pairs": int(want[0].size),
            "us": round(best[kernel], 1),
            "reference_us": round(best[_searchsorted_join], 1),
            "ratio": round(best[kernel] / best[_searchsorted_join], 3),
        }
    print(
        "\njoin probe, build+probe of 2x{:,} keys: ".format(JOIN_PROBE_ROWS)
        + "; ".join(
            f"{shape} {v['us']:.0f}us vs searchsorted {v['reference_us']:.0f}us "
            f"({v['ratio']:.2f}x)"
            for shape, v in section.items()
        )
    )
    if not quick:
        ratio = section["dense"]["ratio"]
        assert ratio <= JOIN_PROBE_MAX_DENSE_RATIO, (
            f"the dense join lookup cost {ratio:.2f}x the searchsorted "
            f"kernel (bound {JOIN_PROBE_MAX_DENSE_RATIO}x)"
        )


def test_bench_compressed_retention_beats_raw(quick):
    """Acceptance: the C2 retention claim, asserted on real codecs.

    A Zipf stream (the C2 shape: heavy mass on a hot head) is cut into
    cohorts and every cohort demoted through ``best_codec``.  At a
    fixed byte budget — a quarter of the stream's raw footprint — the
    compressed table must retain strictly more rows of history before
    forced forgetting than the raw 8-bytes-per-value layout.
    Deterministic encoding arithmetic, no timing: the assert gates
    unconditionally, quick runs included.  Bytes per retained tuple and
    the retention gain land in the trajectory artifact.
    """
    rows = (
        COMPRESSED_RETENTION_QUICK_ROWS if quick
        else COMPRESSED_RETENTION_ROWS
    )
    rng = np.random.default_rng(BENCH_SEED + 13)
    table = Table("bench_compressed_retention", ["a"])
    span = rows // ZIPF_COHORTS
    for epoch in range(ZIPF_COHORTS):
        table.insert_batch(epoch, {"a": _zipf_values(rng, span, rows)})
    store = CompressedCohortStore(table)
    store.demote_cold(current_epoch=ZIPF_COHORTS + store.min_age)
    assert store.demoted_count == ZIPF_COHORTS
    report = store.byte_report()

    budget_bytes = int(rows * 8 * RETENTION_BUDGET_FRACTION)
    raw_retained = budget_bytes // 8
    # Fill the budget newest-cohort-first, the way amnesia keeps the
    # recent past and forgets the deep one.
    compressed_retained = 0
    bytes_used = 0
    for ordinal in reversed(range(ZIPF_COHORTS)):
        cohort = table.cohorts[ordinal]
        _, block = store.block_at(cohort.start, cohort.stop, "a")
        if bytes_used + block.nbytes > budget_bytes:
            break
        bytes_used += block.nbytes
        compressed_retained += cohort.size
    gain = compressed_retained / raw_retained
    _ARTIFACT["compressed"]["retention"] = {
        "rows": rows,
        "budget_bytes": budget_bytes,
        "raw_retained_rows": raw_retained,
        "compressed_retained_rows": compressed_retained,
        "retention_gain": round(gain, 2),
        "bytes_per_retained_tuple": round(
            bytes_used / max(compressed_retained, 1), 4
        ),
        "compression_ratio": round(report["ratio"], 4),
        "codecs": store.stats()["codecs"],
    }
    print(
        f"\ncompressed retention on {rows} Zipf rows at "
        f"{budget_bytes:,}-byte budget: raw keeps {raw_retained:,} rows, "
        f"compressed keeps {compressed_retained:,} "
        f"({gain:.1f}x, {bytes_used / max(compressed_retained, 1):.2f} "
        f"bytes/tuple vs 8)"
    )
    # The acceptance line: strictly more history at the same budget.
    assert compressed_retained > raw_retained


def test_bench_compressed_scan_ops(history):
    """Acceptance: the compressed-scan ops/s dimension.

    The time-correlated history with every cohort demoted, probed by
    the same selective queries through three paths: the trust-nothing
    scan, the raw zone-map path, and the zone-map path answering from
    compressed blocks.  Results must be bit-identical; ops/s per path
    and the speedup land in the artifact.  The floor — compressed ≥ 5×
    over scan, i.e. pruning still pays after the demotion — gates on
    full-size runs with ≥ 4 visible cores, per the established
    convention.
    """
    rows, table, zone_map, queries = history
    store = CompressedCohortStore(table)
    store.demote_cold(current_epoch=COHORTS + store.min_age)
    assert store.demoted_count == COHORTS
    scan = QueryExecutor(table, record_access=False)
    raw_pruned = QueryExecutor(
        table,
        record_access=False,
        planner=QueryPlanner(table, mode="zonemap", zone_map=zone_map),
    )
    compressed = QueryExecutor(
        table,
        record_access=False,
        planner=QueryPlanner(
            table, mode="zonemap", zone_map=zone_map, compressed=store
        ),
    )
    baseline = _run_all(scan, queries)
    assert _run_all(raw_pruned, queries) == baseline
    assert _run_all(compressed, queries) == baseline
    # The equivalence must have been answered from the encoded form,
    # not via quick reject alone.
    store_stats = store.stats()
    assert store_stats["blocks_direct"] + store_stats["blocks_decoded"] > 0
    scan_time = _time_best_of(lambda: _run_all(scan, queries))
    raw_time = _time_best_of(lambda: _run_all(raw_pruned, queries))
    compressed_time = _time_best_of(lambda: _run_all(compressed, queries))
    ratio = scan_time / compressed_time
    _record("compressed", "scan", scan_time, len(queries))
    _record("compressed", "zonemap_raw", raw_time, len(queries))
    _record("compressed", "zonemap_compressed", compressed_time, len(queries))
    _ARTIFACT["compressed"]["speedup_over_scan"] = round(ratio, 2)
    _ARTIFACT["compressed"]["vs_raw_pruned"] = round(
        raw_time / compressed_time, 2
    )
    _ARTIFACT["compressed"]["byte_report"] = {
        k: round(v, 4) if isinstance(v, float) else v
        for k, v in store.byte_report().items()
    }
    print(
        f"\ncompressed scan on {rows} rows ({CPUS} cpus): scan "
        f"{scan_time * 1e3:.1f}ms vs raw-pruned {raw_time * 1e3:.1f}ms "
        f"vs compressed {compressed_time * 1e3:.1f}ms "
        f"({ratio:.1f}x over scan)"
    )
    if CPUS >= 4 and rows >= FULL_ROWS:
        assert ratio >= 5.0, (
            f"expected >=5x compressed-path speedup over scan on "
            f"{rows} rows with {CPUS} cpus, got {ratio:.1f}x"
        )


def _build_planning(cohorts: int) -> QueryPlanner:
    """A cost-mode planner over ``cohorts`` demoted, domain-wide cohorts."""
    rng = np.random.default_rng(BENCH_SEED + 17)
    table = Table("bench_planning", ["a"])
    zone_map = CohortZoneMap(table)
    domain = cohorts * PLANNING_COHORT_ROWS
    for epoch in range(cohorts):
        values = rng.integers(0, domain, PLANNING_COHORT_ROWS)
        table.insert_batch(epoch, values_by_column={"a": values})
    table.forget(np.arange(0, domain, 7), epoch=cohorts)
    store = CompressedCohortStore(table)
    store.demote_cold(current_epoch=cohorts + store.min_age)
    assert store.demoted_count == cohorts
    return QueryPlanner(table, mode="cost", zone_map=zone_map, compressed=store)


def test_bench_planning_scales_with_answer_not_history():
    """Acceptance: pricing a plan does not walk the cohort history.

    One selective probe is planned ``PLANNING_CALLS`` times under
    ``plan="cost"`` at each history length, the lengths interleaved so
    machine noise hits both alike; best-of-``PLANNING_REPEATS`` µs per
    call lands in the artifact.  Both the value order and the zone-map
    walk must really be priced, and the largest history may cost at most
    ``PLANNING_MAX_GROWTH`` times the smallest.
    """
    probes = {}
    for cohorts in PLANNING_COHORTS:
        planner = _build_planning(cohorts)
        domain = cohorts * PLANNING_COHORT_ROWS
        predicate = RangePredicate("a", domain // 3, domain // 3 + domain // 200)
        # Both reads are priced; the walk's decode and range terms are
        # skipped once its candidate rows alone cost more than the order.
        reason = planner.plan(predicate).reason
        assert "order=" in reason and "zonemap=" in reason
        probes[cohorts] = (planner, predicate)
    best = dict.fromkeys(PLANNING_COHORTS, float("inf"))
    for _ in range(PLANNING_REPEATS):
        for cohorts, (planner, predicate) in probes.items():
            start = time.perf_counter()
            for _ in range(PLANNING_CALLS):
                planner.plan(predicate)
            best[cohorts] = min(best[cohorts], time.perf_counter() - start)
    micros = {}
    for cohorts, seconds in best.items():
        micros[cohorts] = seconds / PLANNING_CALLS * 1e6
        _record("planning", f"cost_{cohorts}_cohorts", seconds, PLANNING_CALLS)
    small, large = (micros[c] for c in PLANNING_COHORTS)
    growth = large / small
    _ARTIFACT["planning"].update(
        {
            "cohort_rows": PLANNING_COHORT_ROWS,
            "us_per_plan": {str(c): round(us, 2) for c, us in micros.items()},
            "growth": round(growth, 2),
        }
    )
    print(
        f"\ncost-mode plan(): {small:.1f}us at {PLANNING_COHORTS[0]} cohorts "
        f"vs {large:.1f}us at {PLANNING_COHORTS[1]} ({growth:.2f}x)"
    )
    assert growth <= PLANNING_MAX_GROWTH, (
        f"plan() at {PLANNING_COHORTS[1]} cohorts cost {growth:.2f}x the "
        f"{PLANNING_COHORTS[0]}-cohort time (bound {PLANNING_MAX_GROWTH}x)"
    )


def _amnesia_stepper(name: str, history: int):
    """One epoch of a ``name`` policy's budget, as a callable returning
    the µs of its select + validate + forget, called until ``history``
    rows have passed through the budget."""
    rng = np.random.default_rng(BENCH_SEED + 19)
    policy = make_policy(name)
    table = Table("bench_amnesia", ["a"])
    epoch = 0

    def step() -> float:
        nonlocal epoch
        epoch += 1
        size = AMNESIA_BUDGET if epoch == 1 else AMNESIA_BATCH
        positions = table.insert_batch(epoch, {"a": rng.integers(0, 1 << 20, size)})
        policy.on_insert(table, positions, epoch)
        excess = table.active_count - AMNESIA_BUDGET
        start = time.perf_counter()
        victims = policy.select_victims(table, excess, epoch, rng)
        table.forget(policy.validate_victims(table, victims, excess), epoch)
        return (time.perf_counter() - start) * 1e6

    while table.total_rows <= history:
        step()
    return step


def _amnesia_step_us(name: str, histories) -> list[float]:
    """Median µs of one forgetting step at each history length, the
    lengths' steps interleaved epoch by epoch: a stretch of slow machine
    time then falls on every length alike instead of on one."""
    steppers = [_amnesia_stepper(name, history) for history in histories]
    samples = [[] for _ in histories]
    for _ in range(AMNESIA_EPOCHS):
        for stepper, steps in zip(steppers, samples):
            steps.append(stepper())
    return [float(np.median(steps)) for steps in samples]


def test_bench_amnesia_step_follows_the_budget(quick):
    """Acceptance: forgetting costs what it forgets, not what was stored.

    Records the ``amnesia.growth`` row: per policy, the step at each
    history length (the smallest of ``AMNESIA_REPEATS`` independent
    medians) and the ratio of the longest to the shortest.
    """
    histories = AMNESIA_QUICK_HISTORIES if quick else AMNESIA_HISTORIES
    growth = {}
    for name in AMNESIA_POLICIES:
        runs = [_amnesia_step_us(name, histories) for _ in range(AMNESIA_REPEATS)]
        micros = np.min(runs, axis=0).tolist()
        growth[name] = micros[-1] / micros[0]
        _ARTIFACT["amnesia"]["growth"][name] = {
            "us_per_step": {
                str(h): round(us, 1) for h, us in zip(histories, micros)
            },
            "growth": round(growth[name], 2),
        }
        print(
            f"\n{name} forgetting step: {micros[0]:.0f}us at {histories[0]} rows "
            f"vs {micros[-1]:.0f}us at {histories[-1]} ({growth[name]:.2f}x)"
        )
    _ARTIFACT["amnesia"].update(
        {
            "budget": AMNESIA_BUDGET,
            "victims": AMNESIA_BATCH,
            "epochs": AMNESIA_EPOCHS,
            "repeats": AMNESIA_REPEATS,
        }
    )
    if not quick:
        assert growth["fifo"] <= AMNESIA_MAX_FIFO_GROWTH, (
            f"fifo's forgetting step over {histories[-1]} rows cost "
            f"{growth['fifo']:.2f}x the {histories[0]}-row step "
            f"(bound {AMNESIA_MAX_FIFO_GROWTH}x)"
        )


def _scan_history_db(rows: int, plan: str, compress: str = "on") -> AmnesiaDatabase:
    """A rot database fed ``rows`` uniform rows; an ``index`` database
    reads through a ``SortedIndex``."""
    rng = np.random.default_rng(BENCH_SEED + 23)
    db = AmnesiaDatabase(
        SCAN_BUDGET, RotAmnesia(), seed=BENCH_SEED, plan=plan, compress=compress
    )
    while db.table.total_rows < rows:
        db.insert({"a": rng.integers(0, SCAN_DOMAIN, SCAN_BATCH)})
    if plan == "index":
        db.create_index("a")
    return db


def _read_us(dbs, lows) -> list[float]:
    """Median µs of one read per database, the databases' reads
    interleaved window by window."""
    samples = [[] for _ in dbs]
    for low in lows:
        for db, reads in zip(dbs, samples):
            start = time.perf_counter()
            db.range_query("a", low, low + SCAN_WIDTH)
            reads.append((time.perf_counter() - start) * 1e6)
    return [float(np.median(reads)) for reads in samples]


def test_bench_unpruned_read_follows_the_answer(quick):
    """Acceptance: a read costs its matches, not the history.

    Records the ``scan.history_growth`` row (cost plans, read unpruned)
    and the ``index.history_growth`` row (index plans): the µs of one
    512-wide read at each history length, the smallest of
    ``SCAN_REPEATS`` medians, and the ratio of the longest to the
    shortest.
    """
    histories = SCAN_QUICK_HISTORIES if quick else SCAN_HISTORIES
    rng = np.random.default_rng(BENCH_SEED + 24)
    lows = rng.integers(0, SCAN_DOMAIN - SCAN_WIDTH, SCAN_WINDOWS).tolist()
    growth = {}
    for row, plan in (("scan", "cost"), ("index", "index")):
        dbs = [_scan_history_db(rows, plan) for rows in histories]
        for db in dbs:
            db.range_query("a", 0, SCAN_WIDTH)  # the first read orders the column
        runs = [_read_us(dbs, lows) for _ in range(SCAN_REPEATS)]
        for db in dbs:
            assert db.planner.last_execution.plan.mode == row
        micros = np.min(runs, axis=0).tolist()
        growth[row] = micros[-1] / micros[0]
        _ARTIFACT[row]["history_growth"] = {
            "us_per_read": {
                str(h): round(us, 1) for h, us in zip(histories, micros)
            },
            "growth": round(growth[row], 2),
            "budget": SCAN_BUDGET,
            "width": SCAN_WIDTH,
            "windows": SCAN_WINDOWS,
            "repeats": SCAN_REPEATS,
        }
        print(
            f"\n{row}.history_growth: {micros[0]:.0f}us at {histories[0]} rows "
            f"vs {micros[-1]:.0f}us at {histories[-1]} ({growth[row]:.2f}x)"
        )
    if not quick:
        for row, ratio in growth.items():
            assert ratio <= SCAN_MAX_GROWTH, (
                f"{row} plans: a read over {histories[-1]} rows cost "
                f"{ratio:.2f}x the {histories[0]}-row read "
                f"(bound {SCAN_MAX_GROWTH}x)"
            )


def _paired_us(planner, predicates, plans) -> tuple[float, float, float]:
    """Median µs of ``plan()``, of a planned read (``plan()`` and the
    read it picks) and of a read handed its plan from ``plans``, on
    alternating windows: the kinds share the machine's state, and each
    read finds another range's cuts kept."""
    planning, planned, handed = [], [], []
    for k, (predicate, plan) in enumerate(zip(predicates, plans)):
        start = time.perf_counter()
        if k % 2:
            plan = planner.plan(predicate)
            planning.append((time.perf_counter() - start) * 1e6)
        planner.match(predicate, ("a",), plan=plan)
        (planned if k % 2 else handed).append((time.perf_counter() - start) * 1e6)
    return tuple(float(np.median(us)) for us in (planning, planned, handed))


def _smallest_paired_us(planner, predicates, plans) -> tuple[float, float, float]:
    """Each of :func:`_paired_us`'s medians, the smallest of
    ``SCAN_REPEATS`` passes."""
    runs = [_paired_us(planner, predicates, plans) for _ in range(SCAN_REPEATS)]
    return tuple(min(us) for us in zip(*runs))


def _smallest_us(call, items) -> float:
    """The smallest of ``SCAN_REPEATS`` medians of ``call(item)``'s µs."""
    medians = []
    for _ in range(SCAN_REPEATS):
        samples = []
        for item in items:
            start = time.perf_counter()
            call(item)
            samples.append((time.perf_counter() - start) * 1e6)
        medians.append(float(np.median(samples)))
    return min(medians)


def _pricing_shard() -> AmnesiaDatabase:
    """A shard shaped like ``ingest_forget``'s largest: two runs and a
    short tail, every cohort spanning the shard's value range."""
    rng = np.random.default_rng(BENCH_SEED + 29)
    db = AmnesiaDatabase(
        SCAN_BUDGET, RotAmnesia(), seed=BENCH_SEED, plan="cost",
        stats="hist", compress="on",
    )
    for rows in (*PRICING_SHARD_RUNS, PRICING_SHARD_TAIL):
        target = db.table.total_rows + rows
        while db.table.total_rows < target:
            size = min(PRICING_SHARD_BATCH, target - db.table.total_rows)
            db.insert({"a": rng.integers(0, PRICING_SHARD_WIDTH, size)})
        db.range_query("a", 0, PRICING_READ_WIDTH)  # sorts the tail into a run
    order = db.planner._orders["a"]
    assert order.run_sizes == list(PRICING_SHARD_RUNS)
    assert order.tail_rows == PRICING_SHARD_TAIL
    return db


def test_bench_pricing_picks_the_faster_read(quick, history):
    """Acceptance: the planner never loses to the read it picks.

    Records the ``pricing`` section (see the suite's constants): the
    compress-off uniform read against its value-order read, the plans
    and both reads' µs on insert-clustered data at each wide width, and
    what planning adds to a read on the ``ingest_forget`` shard shape.
    """
    rng = np.random.default_rng(BENCH_SEED + 28)
    section = _ARTIFACT["pricing"]
    lows = rng.integers(0, SCAN_DOMAIN - SCAN_WIDTH, SCAN_WINDOWS).tolist()
    scan_plan = QueryPlan("scan", "cost", "the value order, unpriced")

    # (1) Uniform history, compression off: every cohort spans the domain.
    rows = (SCAN_QUICK_HISTORIES if quick else SCAN_HISTORIES)[-1]
    planner = _scan_history_db(rows, "cost", compress="off").planner
    predicates = [RangePredicate("a", low, low + SCAN_WIDTH) for low in lows]
    assert {planner.plan(p).mode for p in predicates} == {"scan"}
    _, cost_us, unpriced_us = _smallest_paired_us(
        planner, predicates, [scan_plan] * len(lows)
    )
    uniform = cost_us / unpriced_us
    section["uniform_512"] = {
        "rows": rows,
        "cost_us": round(cost_us, 1),
        "order_us": round(unpriced_us, 1),
        "ratio": round(uniform, 2),
    }

    # (2) Insert-clustered history: wide reads walk the zone map.
    rows, table, zone_map, _ = history
    planner = QueryPlanner(table, mode="cost", zone_map=zone_map)
    clustered = {}
    for width in (SCAN_WIDTH, *PRICING_WIDE):
        starts = rng.integers(0, rows - width, 20).tolist()
        predicates = [RangePredicate("a", low, low + width) for low in starts]
        modes = {planner.plan(p).mode for p in predicates}
        walk = [
            QueryPlan("zonemap", "cost", "walk", "a", p.low, p.high)
            for p in predicates
        ]
        walk_us, order_us = (
            _smallest_us(
                lambda pair: planner.match(pair[0], ("a",), plan=pair[1]),
                list(zip(predicates, plans)),
            )
            for plans in (walk, [scan_plan] * len(predicates))
        )
        clustered[str(width)] = {
            "modes": sorted(modes),
            "walk_us": round(walk_us, 1),
            "order_us": round(order_us, 1),
        }
        if width in PRICING_WIDE:
            assert modes == {"zonemap"}, (width, modes)
    section["clustered"] = clustered

    # (3) The ingest_forget shard shape: what planning adds to the read.
    planner = _pricing_shard().planner
    starts = rng.integers(0, PRICING_SHARD_WIDTH - PRICING_READ_WIDTH, SCAN_WINDOWS)
    predicates = [
        RangePredicate("a", low, low + PRICING_READ_WIDTH) for low in starts.tolist()
    ]
    plans = [planner.plan(p) for p in predicates]
    assert {plan.mode for plan in plans} == {"scan"}
    plan_us, planned_us, read_us = _smallest_paired_us(planner, predicates, plans)
    share = max(planned_us - read_us, 0.0) / read_us
    section["shard_plan"] = {
        "plan_us": round(plan_us, 1),
        "read_us": round(read_us, 1),
        "planned_read_us": round(planned_us, 1),
        "added_share": round(share, 2),
        "plan_over_read": round(plan_us / read_us, 2),
    }
    print(
        f"\npricing: uniform 512-wide cost read {cost_us:.0f}us vs order "
        f"{unpriced_us:.0f}us ({uniform:.2f}x); clustered "
        + ", ".join(f"{w}: {v['modes']}" for w, v in clustered.items())
        + f"; shard plan() {plan_us:.0f}us, read {read_us:.0f}us "
        f"({plan_us / read_us:.2f}x), planning adds {share:.2f}x"
    )
    if not quick:
        assert uniform <= PRICING_MAX_ORDER_RATIO, (
            f"a cost-mode 512-wide read cost {uniform:.2f}x its value-order "
            f"read (bound {PRICING_MAX_ORDER_RATIO}x)"
        )
        assert share <= PRICING_MAX_PLAN_SHARE, (
            f"planning added {share:.2f}x the read it picks "
            f"(bound {PRICING_MAX_PLAN_SHARE}x)"
        )


def test_bench_serving_cached_vs_uncached(quick):
    """Acceptance: the ``serve`` suite of the trajectory artifact.

    The multi-tenant :class:`~repro.serving.QueryService` answers one
    pool of selective range shapes three ways on identical data:
    uncached (``Catalog.execute`` directly), cold (empty caches — every
    query plans and matches, then stores), and warm (primed — every
    query is a result-cache hit whose active positions are replayed
    through the access counters).  Answers must be bit-identical across
    all three, asserted two ways: rf/mf equality against the uncached
    run on the cold pass, and a paranoid service pass at the end that
    re-executes every hit and proves ``stale_hits == 0``.  A second
    service with a one-entry result cache isolates the *plan* cache:
    result lookups keep missing while the planner generation stands
    still, so plan hits (not result hits) carry its hit rate above
    zero.  The warm pass is also replayed through one keep-alive
    :class:`~repro.serving.ServiceClient` against ``serve_in_thread``
    (``modes.http``, with ``http_over_inprocess`` beside it), so HTTP
    dispatch has its own number; only its shape is asserted.  The
    warm-at-least-as-fast-as-cold floor gates on full-size runs with
    ≥4 visible cores, per the carry-over convention; the measured
    ratios land in the artifact regardless.
    """
    from repro.serving import (
        QueryService,
        ResultCache,
        ServiceClient,
        serve_in_thread,
    )

    rows = SERVE_QUICK_ROWS if quick else SERVE_FULL_ROWS
    rng = np.random.default_rng(BENCH_SEED)
    catalog = Catalog(plan="cost", stats="hist")
    table = catalog.create_table("serve_obs", ["value"])
    table.insert_batch(0, {"value": rng.integers(0, rows, size=rows)})
    width = max(1, int(rows * WIDTH_FRACTION))
    lows = [int(low) for low in rng.integers(0, rows - width, size=SERVE_SHAPES)]
    queries = [
        RangeQuery(RangePredicate("value", low, low + width)) for low in lows
    ]

    service = QueryService(catalog)
    service.register_tenant("bench", tables={"serve_obs"})
    token = service.open_session("bench").token
    requests = [
        {
            "op": "query",
            "token": token,
            "source": "serve_obs",
            "kind": "range",
            "predicate": {
                "type": "range",
                "column": "value",
                "low": low,
                "high": low + width,
            },
        }
        for low in lows
    ]

    def run_pass():
        return [service.handle(request) for request in requests]

    def clear_caches():
        service.plan_cache.clear()
        service.result_cache.invalidate_source("serve_obs")

    # Bit-identity of the cold pass against the uncached executor.
    uncached = [catalog.execute("serve_obs", query, epoch=0) for query in queries]
    cold_responses = run_pass()
    assert [(r["rf"], r["mf"]) for r in cold_responses] == [
        (r.rf, r.mf) for r in uncached
    ]
    assert not any(r["cached"] for r in cold_responses)
    assert all(r["cached"] for r in run_pass())  # primed: all hits

    uncached_time = _time_best_of(
        lambda: [
            catalog.execute("serve_obs", query, epoch=0) for query in queries
        ]
    )

    def cold_pass():
        clear_caches()
        run_pass()

    cold_time = _time_best_of(cold_pass)
    run_pass()  # re-prime after the last clear
    warm_time = _time_best_of(
        lambda: [run_pass() for _ in range(SERVE_ROUNDS)]
    ) / SERVE_ROUNDS

    # HTTP dispatch on its own: the same warm pass through one
    # ServiceClient, so the wire's per-request cost sits beside the
    # in-process figure.
    server, thread = serve_in_thread(service)
    try:
        with ServiceClient("127.0.0.1", server.server_address[1]) as client:

            def http_pass():
                return [client.request(request) for request in requests]

            http_responses = http_pass()
            http_time = _time_best_of(
                lambda: [http_pass() for _ in range(SERVE_ROUNDS)]
            ) / SERVE_ROUNDS
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
    assert all(r["cached"] for r in http_responses)
    assert [(r["rf"], r["mf"]) for r in http_responses] == [
        (r.rf, r.mf) for r in uncached
    ]
    result_stats = service.result_cache.stats()
    assert result_stats["hits"] > 0 and result_stats["hit_rate"] > 0

    # Plan-cache isolation: a one-entry result cache keeps missing, so
    # repeat shapes are answered by cached *plans* under a standing
    # generation.
    plan_service = QueryService(catalog, result_cache=ResultCache(max_entries=1))
    plan_service.register_tenant("bench", tables={"serve_obs"})
    plan_token = plan_service.open_session("bench").token
    for _ in range(2):
        for request in requests:
            plan_service.handle(dict(request, token=plan_token))
    plan_stats = plan_service.plan_cache.stats()
    assert plan_stats["hits"] >= SERVE_SHAPES  # second round reuses plans
    assert plan_stats["hit_rate"] > 0

    # Zero stale answers, asserted: the paranoid service re-executes
    # every hit under the source lock and compares payloads.
    paranoid = QueryService(catalog, paranoid=True)
    paranoid.register_tenant("bench", tables={"serve_obs"})
    paranoid_token = paranoid.open_session("bench").token
    for _ in range(2):
        for request in requests:
            paranoid.handle(dict(request, token=paranoid_token))
    paranoid_stats = paranoid.stats()
    assert paranoid_stats["stale_hits"] == 0
    assert paranoid_stats["result_cache"]["hits"] == SERVE_SHAPES

    n = len(requests)
    _record("serve", "uncached", uncached_time, n)
    _record("serve", "cold", cold_time, n)
    _record("serve", "warm", warm_time, n)
    _record("serve", "http", http_time, n)
    ratio = cold_time / warm_time
    _ARTIFACT["serve"].update(
        {
            "rows": rows,
            "shapes": SERVE_SHAPES,
            "ops_s": round(n / warm_time, 2) if warm_time > 0 else None,
            "cache_hit_rate": round(result_stats["hit_rate"], 4),
            "plan_cache_hit_rate": round(plan_stats["hit_rate"], 4),
            "warm_speedup_over_cold": round(ratio, 2),
            "http_over_inprocess": round(http_time / warm_time, 2),
        }
    )
    # Shape only: the HTTP row exists and measured something.
    assert _ARTIFACT["serve"]["modes"]["http"]["ops_per_s"] > 0
    assert _ARTIFACT["serve"]["http_over_inprocess"] > 0
    print(
        f"\nserving on {rows} rows ({CPUS} cpus): uncached "
        f"{uncached_time * 1e3:.1f}ms vs cold {cold_time * 1e3:.1f}ms vs "
        f"warm {warm_time * 1e3:.1f}ms vs http {http_time * 1e3:.1f}ms "
        f"per {n}-query pass "
        f"({ratio:.1f}x warm speedup, result hit rate "
        f"{result_stats['hit_rate']:.2f}, plan hit rate "
        f"{plan_stats['hit_rate']:.2f})"
    )
    service.close()
    plan_service.close()
    paranoid.close()
    catalog.close()
    if CPUS >= 4 and rows >= SERVE_FULL_ROWS:
        assert ratio >= 1.0, (
            f"warm cache-hit serving slower than cold planning on "
            f"{rows} rows with {CPUS} cpus ({ratio:.2f}x)"
        )


@pytest.mark.parametrize("compress", ["off", "on"])
def test_bench_adaptive_rebalance(quick, monkeypatch, compress):
    """The ``rebalance`` suite: one adaptive boundary move, timed.

    Records ``rebalance.adaptive_s`` (the whole ``rebalance()`` call)
    and ``rebalance.replay_s`` (the part spent in
    ``Partition.adopt_history``) per compress mode, plus the rows
    migrated.  Asserts the shape only: exactly one split and one merge.
    """
    rows = REBALANCE_QUICK_ROWS if quick else REBALANCE_FULL_ROWS
    store = PartitionedAmnesiaDatabase(
        "value",
        np.linspace(0, REBALANCE_DOMAIN, SHARDS + 1).astype(np.int64),
        int(rows * REBALANCE_BUDGET_FRACTION),
        RotAmnesia,
        seed=BENCH_SEED,
        plan="cost",
        workers=1,
        rebalance="adaptive",
        compress=compress,
    )
    rng = np.random.default_rng(BENCH_SEED + 19)
    shard_width = REBALANCE_DOMAIN // SHARDS
    for epoch in range(REBALANCE_EPOCHS):
        store.insert(
            {"value": rng.integers(0, REBALANCE_DOMAIN, rows // REBALANCE_EPOCHS)}
        )
        if epoch % 4 == 0:
            low = int(rng.integers(0, shard_width // 2))
            store.range_query(low, low + shard_width // 4)

    replay = {"seconds": 0.0, "rows": 0}
    adopt = Partition.adopt_history

    def timed_adopt(partition, sources):
        start = time.perf_counter()
        adopt(partition, sources)
        replay["seconds"] += time.perf_counter() - start
        replay["rows"] += partition.db.table.total_rows

    monkeypatch.setattr(Partition, "adopt_history", timed_adopt)
    start = time.perf_counter()
    store.rebalance()
    seconds = time.perf_counter() - start
    store.close()

    section = _ARTIFACT["rebalance"]
    section["adaptive_s"][compress] = round(seconds, 6)
    section["replay_s"][compress] = round(replay["seconds"], 6)
    section.update(rows=rows, migrated_rows=replay["rows"])
    print(
        f"\nadaptive rebalance on {rows} rows (compress {compress}): "
        f"{seconds:.3f}s, {replay['seconds']:.3f}s replaying "
        f"{replay['rows']} migrated rows"
    )
    kinds = [event.split(" ")[2] for event in store.adaptations]
    assert kinds == ["split", "merged"], store.adaptations
    assert store.partition_count == SHARDS


def _checkpoint_store(quick: bool, compress: str) -> PartitionedAmnesiaDatabase:
    """The checkpoint suite's store (see its constants)."""
    rng = np.random.default_rng(BENCH_SEED + 37)
    shard = CHECKPOINT_DOMAIN // SHARDS
    store = PartitionedAmnesiaDatabase(
        "v",
        [shard * i for i in range(SHARDS + 1)],
        CHECKPOINT_BUDGET,
        RotAmnesia,
        seed=BENCH_SEED,
        plan="cost",
        stats="hist",
        compress=compress,
    )
    epochs, batch = CHECKPOINT_QUICK_EPOCHS if quick else CHECKPOINT_EPOCHS
    for epoch in range(CHECKPOINT_HISTORY[0] + epochs):
        size = CHECKPOINT_HISTORY[1] if epoch < CHECKPOINT_HISTORY[0] else batch
        store.insert({"v": (rng.beta(1.3, 2.2, size) * CHECKPOINT_DOMAIN).astype(np.int64)})
        centres = (rng.beta(1.3, 2.2, CHECKPOINT_READS) * CHECKPOINT_DOMAIN).astype(np.int64)
        for centre in centres.tolist():
            low = centre - centre % shard
            low += min(max(centre - low - CHECKPOINT_READ_WIDTH // 2, 0), shard - CHECKPOINT_READ_WIDTH)
            store.range_query(low, low + CHECKPOINT_READ_WIDTH)
    return store


def test_bench_checkpoint_saves_each_cold_value_once(quick, tmp_path):
    """The ``checkpoint`` suite: save seconds and file bytes per row of
    one store built with compression on and off (see its constants)."""
    section = _ARTIFACT["checkpoint"]
    for compress in ("on", "off"):
        store = _checkpoint_store(quick, compress)
        path = tmp_path / f"compress_{compress}.npz"
        seconds = []
        for _ in range(CHECKPOINT_SAVES):
            start = time.perf_counter()
            save_store(store, path)
            seconds.append(time.perf_counter() - start)
        section[compress] = {
            "rows": store.total_rows,
            "save_s": round(float(np.median(seconds)), 6),
            "file_bytes": path.stat().st_size,
            "bytes_per_row": round(path.stat().st_size / store.total_rows, 4),
        }
        if compress == "on":
            demoted = sum(p.db.compressed.demoted_rows for p in store.partitions)
            section[compress]["demoted_rows"] = demoted
            assert demoted > 0
        store.close()
    on, off = section["on"], section["off"]
    assert on["rows"] == off["rows"]
    print(
        f"\ncheckpoint of {on['rows']} rows: compress on {on['save_s'] * 1e3:.0f}ms, "
        f"{on['file_bytes'] / 1e6:.2f} MB ({on['bytes_per_row']:.2f} B/row); "
        f"off {off['save_s'] * 1e3:.0f}ms, {off['file_bytes'] / 1e6:.2f} MB "
        f"({off['bytes_per_row']:.2f} B/row)"
    )
    if not quick:
        assert on["bytes_per_row"] <= off["bytes_per_row"], (
            f"a compress-on checkpoint takes {on['bytes_per_row']:.2f} B/row "
            f"against {off['bytes_per_row']:.2f} B/row with compression off"
        )


def test_bench_planner_auto(history, once):
    _, table, zone_map, queries = history
    executor = QueryExecutor(
        table,
        record_access=False,
        planner=QueryPlanner(table, mode="auto", zone_map=zone_map),
    )
    results = once(_run_all, executor, queries)
    assert len(results) == QUERIES


def test_bench_planner_scan(history, once):
    _, table, _, queries = history
    executor = QueryExecutor(table, record_access=False)
    results = once(_run_all, executor, queries)
    assert len(results) == QUERIES
