#!/usr/bin/env python
"""Cross-table queries: where two forgetting streams meet.

Two Zipf-skewed sensor streams live in one catalog under *different*
amnesia policies (s1 rots with an access-frequency shield, s2 is plain
FIFO), plus a range-sharded third stream.  Cross-table plan nodes
compose the existing per-table planners:

* ``union:s1,s2`` concatenates the streams, keeping each input's exact
  RF/MF/precision accounting;
* ``join:s1,s2:on=value`` hash-joins them (s1 probes s2's sorted
  keys) — a join output row is *forgotten* iff either contributing
  row was, which no single-table planner can express;
* a ``JoinNode`` over a ``ShardedScanNode`` shows a partitioned store
  feeding the same algebra through its per-shard planners;
* ``join:s1,s2:on=value,agg=value`` runs the streaming engine: the
  aggregate folds the join's batches into exact moments without ever
  materializing the pair matrix.

Leaf scans fan out on the catalog's worker pool with ordered merges,
so every number below is bit-identical at any worker count.

Run with ``PYTHONPATH=src python examples/cross_table_join.py``.
"""

from __future__ import annotations

import numpy as np

from repro.amnesia import FifoAmnesia, make_policy
from repro.core.database import AmnesiaDatabase
from repro.partitioning import PartitionedAmnesiaDatabase
from repro.query import JoinNode, ShardedScanNode, TableScanNode
from repro.storage import Catalog

DOMAIN = 2_000
BUDGET = 400
BATCH = 300
BATCHES = 6
SEED = 42


def zipf_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Zipf-skewed values clamped into the domain (hot keys near 0)."""
    return np.minimum(rng.zipf(1.6, n), DOMAIN - 1).astype(np.int64)


def main() -> None:
    catalog = Catalog(plan="cost", workers=4)
    sensors = {
        "s1": AmnesiaDatabase(
            BUDGET, make_policy("rot"), seed=SEED + 1, table_name="s1"
        ),
        "s2": AmnesiaDatabase(
            BUDGET, FifoAmnesia(), seed=SEED + 2, table_name="s2"
        ),
    }
    for db in sensors.values():
        catalog.register(db.table)
    sharded = PartitionedAmnesiaDatabase(
        "a",
        np.linspace(0, DOMAIN, 5).astype(int).tolist(),
        total_budget=BUDGET,
        policy_factory=FifoAmnesia,
        seed=SEED + 3,
        plan="cost",
        workers=4,
    )
    catalog.register_sharded("s3", sharded)

    rng = np.random.default_rng(SEED)
    print(f"=== {BATCHES} batches x {BATCH} rows per stream ===")
    for batch in range(1, BATCHES + 1):
        for db in sensors.values():
            db.insert({"a": zipf_values(rng, BATCH)})
        sharded.insert({"a": zipf_values(rng, BATCH)})
        union = catalog.query("union:s1,s2,s3", epoch=batch)
        join = catalog.query("join:s1,s2:on=value,low=0,high=64", epoch=batch)
        print(
            f"batch {batch}: union rf={union.rf:5d} mf={union.mf:5d} "
            f"P={union.precision:.3f} | hot-range join rf={join.rf:6d} "
            f"mf={join.mf:6d} P={join.precision:.3f}"
        )
    print()

    print("=== per-input accounting survives the union ===")
    union = catalog.query("union:s1,s2,s3", epoch=BATCHES)
    for name, part in zip(("s1", "s2", "s3"), union.inputs):
        print(
            f"  {name}: rf={part.rf:5d} mf={part.mf:5d} "
            f"precision={part.precision:.3f}"
        )
    print()

    print("=== sharded stream as a join input (explicit node tree) ===")
    node = JoinNode(
        TableScanNode("s1", 0, 256),
        ShardedScanNode("s3", 0, 256),
        on="value",
    )
    print(catalog.explain_query(node))
    result = catalog.query(node, epoch=BATCHES)
    print(
        f"join rf={result.rf} mf={result.mf} precision={result.precision:.3f}"
    )
    print()

    print("=== streamed aggregate over the join (no pair matrix) ===")
    agg = catalog.query(
        "join:s1,s2:on=value,agg=value", epoch=BATCHES, batch_size=256
    )
    print(
        f"SUM(l.value) over surviving pairs = {agg.active.total} "
        f"({agg.strategy}, rf={agg.rf}, mf={agg.mf}, "
        f"P={agg.precision:.3f})"
    )
    joined = catalog.query("join:s1,s2:on=value", epoch=BATCHES)
    print(
        f"the materialized run holds all {joined.oracle_count} pairs at "
        f"once; the streamed aggregate saw them 256 probe rows at a time"
    )
    print()

    print("=== catalog plan report (tables, shards, last cross plan) ===")
    print(catalog.plan_report())
    catalog.close()
    sharded.close()


if __name__ == "__main__":
    main()
