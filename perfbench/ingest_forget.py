"""Workload ``ingest_forget``: the paper's section 2.3 epoch loop.

Each epoch ingests one batch into an 8-shard store that must forget
down to its tuple budget, then runs twenty shard-local selective reads whose
access counts steer rot's victim choice.  Every ``CHECKPOINT_EVERY``
epochs the store is checkpointed with rotation; one recovery at the
end must reproduce the live store exactly.

The write side does most of the work here: partitioned ingest, victim
selection, table forgetting, observers, demotion and checkpoints.
"""

from __future__ import annotations

import math
import os

import numpy as np

from repro.amnesia import RotAmnesia
from repro.partitioning import PartitionedAmnesiaDatabase
from repro.storage import io

from common import (
    block_counts, mask_fan_out, p50_ms, precision, shard_dbs, sharded_layer_extra, stored_bytes,
    tail_ms, timed,
)

DOMAIN = 1 << 20
SHARDS = 8
SHARD_WIDTH = DOMAIN // SHARDS
BUDGET = 200_000
BATCH = 5_000
#: History loaded before timing: 1.5x the budget in larger batches, so
#: the store already forgets on the first timed epoch.
HISTORY_EPOCHS = 20
HISTORY_BATCH = 15_000
READS_PER_EPOCH = 20
READ_WIDTH = DOMAIN // 2_000
CHECKPOINT_EVERY = 40
#: Timed epochs per requested second, calibrated on a 2-core x86 VM so
#: one run lasts about ``--seconds``.  The work is fixed by the seed and
#: ``--seconds`` (not by a wall-clock stop), so every run — and every
#: commit — executes the same ops against the same states.
EPOCHS_PER_SECOND = 14


def _values(rng, n: int) -> np.ndarray:
    """Skewed over the whole domain: every shard gets writes, low shards most."""
    return (rng.beta(1.3, 2.2, n) * DOMAIN).astype(np.int64)


class Workload:
    def __init__(self, seed: int, seconds: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        self.seed = seed
        self.bounds = [SHARD_WIDTH * i for i in range(SHARDS + 1)]
        self.history = [_values(rng, HISTORY_BATCH) for _ in range(HISTORY_EPOCHS)]
        epochs = max(1, math.ceil(seconds * EPOCHS_PER_SECOND))
        self.batches = []
        self.ops = []
        for epoch in range(epochs):
            self.batches.append(_values(rng, BATCH))
            self.ops.append(("write", epoch))
            centres = _values(rng, READS_PER_EPOCH)
            for k, centre in enumerate(centres.tolist()):
                # Keep each window inside one shard, so every read does
                # one shard's work and the read tail is not set by the
                # few windows that happen to straddle a boundary.
                shard_low = centre - centre % SHARD_WIDTH
                low = min(max(centre - READ_WIDTH // 2, shard_low), shard_low + SHARD_WIDTH - READ_WIDTH)
                if k % 2 == 0:
                    self.ops.append(("range", low, low + READ_WIDTH))
                else:
                    fn = ("sum", "avg", "count")[k // 2 % 3]
                    self.ops.append(("agg", fn, low, low + READ_WIDTH))
            if (epoch + 1) % CHECKPOINT_EVERY == 0:
                self.ops.append(("checkpoint",))
        self.path = os.path.join(workdir, "ingest_forget.npz")
        self.op_tags = {}

    # -- stores ------------------------------------------------------------

    def _store(self, **config) -> PartitionedAmnesiaDatabase:
        store = PartitionedAmnesiaDatabase(
            "v", self.bounds, BUDGET, RotAmnesia, seed=self.seed, **config
        )
        for batch in self.history:
            store.enqueue({"v": batch})
            store.flush()
        return store

    def build(self) -> PartitionedAmnesiaDatabase:
        return self._store(plan="cost", workers=2, stats="hist", compress="on")

    def build_twin(self) -> PartitionedAmnesiaDatabase:
        """Trust-nothing twin: full scans, raw columns, one worker."""
        return self._store(plan="scan", workers=1, stats="uniform", compress="off")

    @staticmethod
    def close(store) -> None:
        store.close()

    # -- ops ---------------------------------------------------------------

    @staticmethod
    def op_class(op) -> str:
        return {"write": "write", "checkpoint": "checkpoint"}.get(op[0], "read")

    def executor(self, store, *, checkpoints: bool = True):
        batches = self.batches
        path = self.path

        def execute(op):
            kind = op[0]
            if kind == "write":
                store.enqueue({"v": batches[op[1]]})
                return ("write", store.flush())
            if kind == "range":
                r = store.range_query(op[1], op[2])
                return ("range", r.rf, r.mf, r.shards_executed)
            if kind == "agg":
                amnesiac, oracle = store.aggregate(op[1], op[2], op[3])
                return ("agg", amnesiac, oracle)
            if checkpoints:
                io.save_store(store, path, rotate=True)
            return ("checkpoint",)

        return execute

    def twin_executor(self, twin):
        # A checkpoint reads but never changes the store; the twin skips it.
        return self.executor(twin, checkpoints=False)

    comparable = staticmethod(mask_fan_out)

    # -- observations ----------------------------------------------------

    @staticmethod
    def final_state(store) -> list:
        """Per-shard state the twin must reproduce bit for bit."""
        state = []
        for p in store.partitions:
            t = p.db.table
            state.append(
                (
                    p.low,
                    p.high,
                    p.budget,
                    p.db.epoch,
                    t.active_mask().tobytes(),
                    t.values("v").tobytes(),
                    t.forgotten_epochs().tobytes(),
                    t.access_counts().tobytes(),
                )
            )
        return state

    @staticmethod
    def read_pairs(results) -> list:
        return [(r[1], r[2]) for r in results if r[0] == "range"]

    def end_to_end(self, store, log) -> dict:
        """Workload-specific end-to-end figures (beyond the shared ones)."""
        writes = log.latencies.get("write", [])
        tail, pct, beyond = tail_ms(writes)
        rows = BATCH * len(writes)
        stored, active = stored_bytes(shard_dbs(store))
        return {
            "write_p50_ms": (p50_ms(writes), "ms"),
            "write_tail_ms": (tail, "ms", f"p{pct:g}, {beyond} beyond, n={len(writes)}"),
            "ingest_rows_per_s": (rows / sum(writes) if writes else 0.0, "rows/s"),
            "checkpoint_p50_ms": (p50_ms(log.latencies.get("checkpoint", [])), "ms"),
            "precision": (precision(self.read_pairs(log.results)), "ratio"),
            "stored_bytes_per_row": (stored / max(active, 1), "B/row"),
        }

    def recover_check(self, store) -> tuple[bool, float, str]:
        """Checkpoint the final state, recover it, compare with the live store."""
        io.save_store(store, self.path, rotate=True)
        (recovered, _used), seconds = timed(io.recover_store, self.path, RotAmnesia)
        try:
            same = self.final_state(recovered) == self.final_state(store) and (
                recovered.ingest_epoch == store.ingest_epoch
            )
            same = same and all(
                a.db._policy_rng.bit_generator.state == b.db._policy_rng.bit_generator.state
                for a, b in zip(recovered.partitions, store.partitions)
            )
        finally:
            recovered.close()
        return same, seconds, "" if same else "recovered store differs from the live store"

    # -- per-layer counters ----------------------------------------------

    @staticmethod
    def probe(_store) -> dict:
        return {}

    @staticmethod
    def snapshot(store) -> dict:
        return block_counts(shard_dbs(store))

    def layer_extra(self, store, before: dict, log) -> dict:
        size = os.path.getsize(self.path) if os.path.exists(self.path) else 0
        return {
            **sharded_layer_extra(shard_dbs(store), before, log.results),
            "storage.io.bytes_per_row": size / max(store.total_rows, 1),
        }
