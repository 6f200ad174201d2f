"""Adaptive partitioned amnesia (paper §4.4), now parallel and adaptive.

    "Instead of user defined partitioning schemes, it might be worth to
    study amnesia in the context of adaptive partitioning.  Each
    partition can then be tuned to provide the best precision for a
    subset of the workload."

A :class:`PartitionedAmnesiaDatabase` splits the value domain into
range partitions, each backed by its own
:class:`~repro.core.database.AmnesiaDatabase` with its own budget,
policy and — crucially — its own :class:`~repro.query.planner.
QueryPlanner`.  Every read executes *through* the per-shard planners:
each shard declares its partition bounds as first-class planner value
bounds, and within a shard the planner picks scan/zonemap/index/cost
paths exactly as it does for a single table.  A shard whose declared
bounds exclude the range is answered by the store without entering
its planner (the planner would answer it with an empty ``pruned``
plan), and the store counts that prune per shard.

Shards are mutually independent, so a read fans the shards it has
work for out over a thread pool (``workers=``): those per-shard
planner+executor pipelines run concurrently, while shards the range
prunes (and empty ones) run inline on the caller — a read whose work
lands in one shard makes no pool round-trip.  Every pipeline runs
under its shard's lock (planner counters and table access accounting
stay race-free even when several caller threads query the store at
once), and the per-shard outputs are merged **in shard order**, so
counts, windowed aggregates and :class:`~repro.stats.ExactMoments`
come out bit-identical to sequential execution regardless of
completion order.

Edge partitions absorb out-of-domain values (inserts clamp *routing*,
never the stored values), so their declared bounds are open-ended —
which is also what makes out-of-range queries exact: a probe below
``b0`` or above ``bP`` still reaches the edge shard that stored those
rows.

Merging is exact: RF/MF counts add up, and aggregates — including the
windowed and VAR/STD forms — merge per-shard
:class:`~repro.stats.ExactMoments` (integer Σx and Σx²) before
finalizing, so AVG/VAR/STD come out as one global computation, not an
average of averages, and do not depend on where the shard boundaries
fall: a rebalance never changes an answer.

Writes scale the same way, through a queue/applier seam with an
**epoch-snapshot handoff**: :meth:`~PartitionedAmnesiaDatabase.enqueue`
routes rows by the current layout snapshot into per-shard ingest
queues (a short critical section — no shard work), and
:meth:`~PartitionedAmnesiaDatabase.flush` drains the queues with
batched appliers fanned out on the same pool, under the exclusive side
of an :class:`~repro._util.parallel.EpochGate`.  Queries hold the
gate shared, so a reader at published ingest epoch N can never observe
a half-applied batch — the epoch advance inside the exclusive hold is
the barrier that publishes each batch atomically across shards.
:meth:`~PartitionedAmnesiaDatabase.insert` is enqueue + flush, and is
bit-identical to the old sequential loop at any worker count.

Per-partition query traffic is tracked two ways so that
:meth:`~PartitionedAmnesiaDatabase.rebalance` can *move storage toward
the partitions the workload actually reads*: ``query_hits`` counts
queries whose range covers the shard, ``query_rows`` counts the rows
those queries matched there (active + forgotten).  Both are
**coverage-based** — derived from the query's range and its
plan-independent result counts, never from what a particular plan mode
happened to execute — so budgets, and every forgetting decision
downstream of them, evolve identically under ``scan`` and the pruned
modes.  Under the ``adaptive`` policy, rebalancing also adapts the
*boundaries*: a shard drawing more than ``split_threshold`` times its
fair share of traffic is split — multi-way when the skew warrants it,
at traffic-weighted quantiles under ``hist`` statistics — funded by
merging the coldest adjacent pair, so the partition layout itself
tracks the query stream — the paper's adaptive-partitioning endgame.
A layout change re-routes the rows it moves through the insert router,
so a row's shard never depends on whether it arrived before the move.
"""

from __future__ import annotations

import threading
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .._util.errors import ConfigError, QueryError
from .._util.parallel import EpochGate, FanOutPool
from .._util.rng import DEFAULT_SEED, derive_seed
from .._util.validation import check_in, check_positive_int, checked_int64
from ..amnesia.base import AmnesiaPolicy
from ..core.config import COMPRESS_MODES, REBALANCE_POLICIES, STATS_MODES
from ..core.database import AmnesiaDatabase
from ..faults import (
    INGEST_APPLIED,
    INGEST_APPLY,
    INGEST_ENQUEUE,
    REBALANCE_ADAPT,
    fault_point,
)
from ..query.planner import PLAN_MODES, QueryPlan
from ..query.plans import check_scan_bounds, match_rows
from ..query.predicates import RangePredicate, TruePredicate
from ..query.queries import AggregateFunction
from ..stats.moments import ExactMoments
from ..stats.table_stats import traffic_weighted_quantiles
from ..storage.table import Table

__all__ = ["MergedRangeResult", "Partition", "PartitionedAmnesiaDatabase"]


@dataclass(frozen=True)
class MergedRangeResult:
    """A range result merged across partitions (counts only).

    ``shards_executed``/``shards_pruned`` record the fan-out the
    planners actually allowed: pruned shards answered from their value
    bounds without touching data.
    """

    rf: int
    mf: int
    shards_executed: int = 0
    shards_pruned: int = 0

    @property
    def oracle_count(self) -> int:
        """RF + MF across all partitions."""
        return self.rf + self.mf

    @property
    def precision(self) -> float:
        """P_F over the merged result (1.0 when nothing matches)."""
        return 1.0 if self.oracle_count == 0 else self.rf / self.oracle_count


class Partition:
    """One value-range shard: ``[low, high)`` with its own amnesia.

    ``low``/``high`` are the routing cut points; the *declared* planner
    bounds are open-ended at the domain edges (``edge_low``/
    ``edge_high``) because inserts clamp routing, not values.  The
    ``lock`` serializes this shard's planner+executor pipeline (and its
    traffic counters) so concurrent queries fan out race-free.
    """

    def __init__(
        self,
        index: int,
        low: int,
        high: int,
        budget: int,
        policy: AmnesiaPolicy,
        column: str,
        seed: int,
        plan: str = "auto",
        edge_low: bool = False,
        edge_high: bool = False,
        table_name: str | None = None,
        stats: str = "uniform",
        compress: str = "off",
    ):
        if high <= low:
            raise ConfigError(f"partition range [{low}, {high}) is empty")
        self.index = index
        self.low = int(low)
        self.high = int(high)
        self.column = column
        self.bound_low = None if edge_low else self.low
        self.bound_high = None if edge_high else self.high
        self.db = AmnesiaDatabase(
            budget=budget,
            policy=policy,
            columns=(column,),
            seed=seed,
            table_name=table_name or f"partition_{index}",
            plan=plan,
            value_bounds={column: (self.bound_low, self.bound_high)},
            stats=stats,
            compress=compress,
        )
        self.lock = threading.Lock()
        #: Reads answered without planning because the declared bounds
        #: exclude their range, and the rows those reads skipped: the
        #: ``pruned`` plans the shard planner would have recorded.
        self.prunes = 0
        self.pruned_rows = 0
        self.query_hits = 0
        #: Coverage-based row traffic: oracle matches (RF + MF) of every
        #: covering query — a plan-mode-independent rows signal.
        self.query_rows = 0
        #: Ingest queue: routed-but-unapplied value chunks, FIFO.  One
        #: ``(batch_seq, chunk)`` entry per enqueued batch that touched
        #: this shard; appliers drain each chunk as one ``db.insert``
        #: (one shard epoch), so the applied sequence is exactly the
        #: sequential one.  The batch sequence number lets a failed
        #: apply wave report which *batches* remain partially queued —
        #: only batches with no chunk left anywhere count as applied.
        self.pending: list[tuple[int, np.ndarray]] = []

    @property
    def budget(self) -> int:
        """Current tuple budget of this shard."""
        return self.db.budget

    def covers(self, low: int, high: int) -> bool:
        """Does ``[low, high)`` intersect this shard's *declared* bounds?

        Edge shards are open-ended (they store clamped-in values), so
        a query outside ``[b0, bP)`` still covers the edge shard — the
        symmetric counterpart of insert-side clamping.
        """
        return high > low and not self.excludes(low, high)

    def excludes(self, low: int, high: int) -> bool:
        """Do the declared bounds exclude ``[low, high)``?

        The shard planner's own bounds test: outside ``scan`` mode it
        answers exactly these reads with a ``pruned`` plan.  An empty
        range inside the bounds is neither covered nor excluded.
        """
        below = self.bound_high is not None and low >= self.bound_high
        above = self.bound_low is not None and high <= self.bound_low
        return below or above

    def set_budget(self, budget: int) -> None:
        """Adjust the budget; shrinking forgets down immediately."""
        if budget < 1:
            raise ConfigError(f"partition budget must be >= 1, got {budget}")
        self.db.budget = int(budget)
        self.db.enforce_budget()

    def adopt_history(self, sources) -> None:
        """Replay rows (with full metadata) from source tables.

        ``sources`` is a list of ``(table, positions)`` pairs, positions
        ascending.  Rows are re-inserted grouped by their original
        insert epoch (source order within an epoch, so same-epoch
        cohorts from different sources collapse into one) through
        :meth:`~repro.storage.table.Table.replay_history`, which also
        restores forget stamps and access metadata.
        """
        table = self.db.table
        if table.total_rows:
            raise ConfigError("adopt_history needs an empty partition")
        sources = [(src, np.asarray(p, dtype=np.int64)) for src, p in sources]
        if not any(positions.size for _, positions in sources):
            return

        def gather(read) -> np.ndarray:
            return np.concatenate([read(src)[p] for src, p in sources])

        # A stable sort keeps source order (then position order) within
        # each insert epoch, so every epoch run becomes one cohort.
        epochs = gather(Table.insert_epochs)
        order = np.argsort(epochs, kind="stable")
        epochs = epochs[order]
        starts = np.r_[0, np.flatnonzero(epochs[1:] != epochs[:-1]) + 1]
        stops = np.append(starts[1:], epochs.size)
        table.replay_history(
            list(zip(epochs[starts].tolist(), starts.tolist(), stops.tolist())),
            {self.column: gather(lambda src: src.values(self.column))[order]},
            gather(Table.active_mask)[order],
            gather(Table.forgotten_epochs)[order],
            gather(Table.access_counts)[order],
            gather(Table.last_access_epochs)[order],
            self.db.policy.on_insert,
        )

    def __repr__(self) -> str:
        return (
            f"Partition({self.index}: [{self.low}, {self.high}), "
            f"budget={self.budget}, active={self.db.active_count})"
        )


class PartitionedAmnesiaDatabase:
    """Range-partitioned store with per-partition amnesia and planning.

    Parameters
    ----------
    column:
        The partitioning (and only) column.
    boundaries:
        Sorted cut points ``[b0, b1, ..., bP]`` defining partitions
        ``[b_i, b_{i+1})``.  Values outside ``[b0, bP)`` are routed
        into the edge partitions (the stored values stay unclamped,
        and the edge shards' planner bounds are open-ended to match).
    total_budget:
        Tuple budget shared by all partitions (split evenly at start).
    policy_factory:
        Zero-argument callable producing a fresh policy per partition
        (policies are stateful, so they must not be shared).  Boundary
        splits/merges also draw fresh policies from it.
    plan:
        Access-path mode for every shard's planner (see
        :mod:`repro.query.planner`); default ``"auto"``.  ``"cost"``
        prices paths per shard from its cohort statistics.
    stats:
        Statistics source for every shard (see
        :data:`repro.core.config.STATS_MODES`); default
        ``"uniform"``.  Under ``"hist"``
        each shard carries value histograms for its planner's
        estimates, and ``adaptive`` rebalancing cuts a hot shard at
        its **traffic-weighted value median** instead of the range
        midpoint — computed from the shard's stored values and access
        counters, both plan-mode- and worker-count-independent, so the
        boundary trajectory stays bit-identical across plans and
        widths.
    compress:
        Compressed-execution mode for every shard (see
        :data:`repro.core.config.COMPRESS_MODES`); default ``"off"``.
        Under ``"on"`` each shard demotes its cold cohorts into
        best-codec compressed blocks after every insert, and boundary
        splits/merges carry the mode over (migrated history re-demotes
        by the same age rule).  Execution-only: results are bit-identical.
    workers:
        Fan-out width for reads *and* ingest appliers: how many
        per-shard pipelines may run concurrently (default 1, which
        executes shards sequentially).  Any width returns
        bit-identical results — for ingest too, because each shard
        drains its queue FIFO.  The
        attribute is mutable — benchmarks flip it between runs.
    rebalance:
        Default traffic signal for :meth:`rebalance` — one of
        :data:`repro.core.config.REBALANCE_POLICIES` (default
        ``"hits"``).
    split_threshold:
        Skew factor for ``adaptive`` rebalancing: a shard is split when
        its share of row traffic exceeds ``split_threshold / P`` (i.e.
        that many times its fair share).
    max_partitions:
        Hard cap on the shard count under ``adaptive`` rebalancing;
        ``None`` allows growth to twice the initial count.

    >>> from repro.amnesia import FifoAmnesia
    >>> pdb = PartitionedAmnesiaDatabase(
    ...     "a", [0, 500, 1000], total_budget=100,
    ...     policy_factory=FifoAmnesia,
    ... )
    >>> pdb.partition_count
    2
    """

    def __init__(
        self,
        column: str,
        boundaries,
        total_budget: int,
        policy_factory,
        seed: int = DEFAULT_SEED,
        plan: str = "auto",
        workers: int = 1,
        rebalance: str = "hits",
        split_threshold: float = 2.0,
        max_partitions: int | None = None,
        stats: str = "uniform",
        compress: str = "off",
    ):
        bounds = [int(b) for b in boundaries]
        if len(bounds) < 2:
            raise ConfigError("need at least two boundaries (one partition)")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigError(f"boundaries must be strictly increasing: {bounds}")
        n_partitions = len(bounds) - 1
        if total_budget < n_partitions:
            raise ConfigError(
                f"total_budget {total_budget} cannot cover "
                f"{n_partitions} partitions"
            )
        workers = check_positive_int(workers, "workers")
        check_in(rebalance, REBALANCE_POLICIES, "rebalance")
        check_in(stats, STATS_MODES, "stats")
        check_in(compress, COMPRESS_MODES, "compress")
        if split_threshold < 1.0:
            raise ConfigError(
                f"split_threshold must be >= 1.0, got {split_threshold}"
            )
        if max_partitions is None:
            max_partitions = 2 * n_partitions
        if max_partitions < n_partitions:
            raise ConfigError(
                f"max_partitions {max_partitions} below the initial "
                f"{n_partitions} partitions"
            )
        self.column = column
        self.total_budget = int(total_budget)
        self.workers = workers
        self.rebalance_policy = rebalance
        self.stats_mode = stats
        self.compress_mode = compress
        self.plan_mode = check_in(plan, PLAN_MODES, "plan")
        self.split_threshold = float(split_threshold)
        self.max_partitions = int(max_partitions)
        self._seed = seed
        self._policy_factory = policy_factory
        self._fanout = FanOutPool()
        # Write-side serialization: _ingest_lock orders routers
        # (enqueue) and layout changes; the gate hands batches over to
        # readers atomically.  Lock order is always _ingest_lock →
        # gate.writing() → partition locks.
        self._ingest_lock = threading.Lock()
        self._gate = EpochGate()
        self._pending_batches = 0
        self._ingest_seq = 0
        self._generation = 0
        self._adaptations: list[str] = []
        base = total_budget // n_partitions
        remainder = total_budget - base * n_partitions
        partitions = [
            self._new_partition(
                i, bounds, base + (1 if i < remainder else 0), (str(i),)
            )
            for i in range(n_partitions)
        ]
        # One atomically-swapped tuple holds (partitions, bounds):
        # readers snapshot both with a single attribute read, so a
        # concurrent boundary adaptation can never hand them a
        # partition list from one layout and cut points from another.
        self._layout: tuple[list[Partition], list[int]] = (partitions, bounds)

    # -- topology --------------------------------------------------------

    @property
    def _partitions(self) -> list[Partition]:
        """The live partition list (from the atomic layout tuple)."""
        return self._layout[0]

    @property
    def _bounds(self) -> list[int]:
        """The live routing cut points (from the atomic layout tuple)."""
        return self._layout[1]

    @property
    def partition_count(self) -> int:
        """Number of shards."""
        return len(self._partitions)

    @property
    def partitions(self) -> tuple[Partition, ...]:
        """The shards, in range order."""
        return tuple(self._partitions)

    @property
    def boundaries(self) -> tuple[int, ...]:
        """Current routing cut points (adaptive rebalancing moves them)."""
        return tuple(self._bounds)

    @property
    def adaptations(self) -> tuple[str, ...]:
        """Every boundary split/merge decision taken so far."""
        return tuple(self._adaptations)

    @property
    def active_count(self) -> int:
        """Active tuples across all shards."""
        return sum(p.db.active_count for p in self._partitions)

    @property
    def total_rows(self) -> int:
        """Tuples ever inserted across all shards."""
        return sum(p.db.total_rows for p in self._partitions)

    @staticmethod
    def _partition_of(values: np.ndarray, bounds, count: int) -> np.ndarray:
        idx = np.searchsorted(bounds, values, side="right") - 1
        return np.clip(idx, 0, count - 1)

    @property
    def gate(self) -> EpochGate:
        """The epoch gate readers share and :meth:`flush` holds exclusively.

        Exposed for checkpointing and tests; ordinary callers never
        touch it — :meth:`insert`/:meth:`flush`/queries synchronize
        internally.
        """
        return self._gate

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Release the fan-out thread pool (store stays usable)."""
        self._fanout.close()

    def __enter__(self) -> "PartitionedAmnesiaDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- writes -------------------------------------------------------------

    @property
    def ingest_epoch(self) -> int:
        """Batches published so far (the epoch-snapshot handoff counter).

        Advances only inside :meth:`flush`'s exclusive gate hold, so a
        reader observing ingest epoch N sees exactly the first N
        batches on every shard — never a half-applied batch.
        """
        return self._gate.epoch

    @property
    def pending_batches(self) -> int:
        """Batches enqueued but not yet flushed."""
        with self._ingest_lock:
            return self._pending_batches

    def enqueue(self, values_by_column: dict) -> int:
        """Route one batch into the per-shard ingest queues; no shard work.

        The critical section is a layout snapshot plus the routing
        append — concurrent writers on disjoint shards no longer
        serialize on shard-level inserts, and queries are untouched
        (they synchronize with :meth:`flush`, not with routing).
        Values get the checked ``int64`` cast: lossy inputs (``2.7``,
        NaN, out-of-range) raise :class:`~repro._util.errors.
        QueryError` instead of silently truncating.  Returns the
        number of batches now queued.  Rows become visible to queries
        only when :meth:`flush` publishes them.
        """
        if set(values_by_column) != {self.column}:
            raise QueryError(
                f"partitioned store holds only column {self.column!r}"
            )
        values = checked_int64(
            values_by_column[self.column],
            f"insert values for column {self.column!r}",
        )
        # Crash here (before any routing) drops the whole batch
        # atomically: no queue holds a chunk, the writer re-enqueues.
        fault_point(INGEST_ENQUEUE)
        with self._ingest_lock:
            # Routing under the ingest lock keeps the snapshot honest:
            # layout swaps (rebalance) also hold this lock, so a chunk
            # can never be appended to a shard the migration already
            # snapshotted — the documented insert-vs-migration race
            # stays closed without serializing whole-shard inserts.
            partitions, bounds = self._layout
            owners = self._partition_of(values, bounds, len(partitions))
            seq = self._ingest_seq
            self._ingest_seq += 1
            for i, partition in enumerate(partitions):
                chunk = values[owners == i]
                if chunk.size:
                    partition.pending.append((seq, chunk))
            self._pending_batches += 1
            return self._pending_batches

    def _apply_pending_locked(self, partitions) -> None:
        """Drain every non-empty shard queue; caller holds the ingest
        lock and the gate's exclusive side.

        Appliers fan out on the shared pool (``workers`` wide): each
        drains its shard FIFO, one queued chunk per ``db.insert`` call
        under the shard lock — so the per-shard epoch/cohort sequence
        is exactly what the sequential loop would have produced, and
        the equivalence harness can hold every observable bit-identical
        across worker counts.

        Failure semantics: an applier that raises (or hits an injected
        crash) rolls its *unapplied* chunk tail — including the chunk
        that failed — back to the front of its shard's queue before the
        exception propagates, preserving the FIFO order a retried flush
        needs for the equivalence contract.  The fan-out pool is a
        barrier (it re-raises only after every applier finished), so by
        the time the caller's unwind path runs, no applier is still
        mutating a shard.
        """
        busy = [p for p in partitions if p.pending]

        def drain(partition: Partition) -> None:
            with partition.lock:
                chunks, partition.pending = partition.pending, []
                for i, (seq, chunk) in enumerate(chunks):
                    try:
                        fault_point(INGEST_APPLY)
                        partition.db.insert({self.column: chunk})
                    except BaseException:
                        partition.pending = chunks[i:] + partition.pending
                        raise

        if busy:
            self._fanout.map_ordered(drain, busy, self.workers)

    def _publish_applied_locked(self, partitions) -> int:
        """Publish every *fully-applied* batch; caller holds the ingest
        lock and the gate's exclusive side.  Returns batches published.

        Runs on both the success and the unwind path of an apply wave:
        a batch counts as applied only when no shard queue holds one of
        its chunks any more (the seq tags make that checkable), so a
        crashed wave publishes exactly the batches it completed — never
        a torn one — and the remainder stays queued for the retry.
        """
        remaining = {seq for p in partitions for seq, _ in p.pending}
        fully = self._pending_batches - len(remaining)
        self._pending_batches = len(remaining)
        if fully > 0:
            self._gate.publish(fully)
        return fully

    def flush(self) -> int:
        """Apply every queued batch and publish them atomically.

        Takes the gate's exclusive side for the duration of one apply
        wave: in-flight queries finish first, new ones wait, the
        appliers drain all shards in parallel, and the ingest epoch
        advances by the number of batches applied — the handoff that
        makes the whole wave visible at once.  Returns the published
        ingest epoch.

        If an applier fails mid-wave, the publish still happens on the
        unwind path *inside* the exclusive hold: completed batches
        become visible, the failed batch's chunks are already rolled
        back to their queues, and the gate releases cleanly (no reader
        deadlock, no torn epoch).  A retried ``flush`` finishes the
        wave; note that rows a failed wave inserted into *some* shards
        are visible to queries before the retry — the published epoch
        counts fully-applied batches, per-shard FIFO order is what the
        retry contract preserves.
        """
        with self._ingest_lock:
            partitions, _ = self._layout
            if self._pending_batches == 0:
                return self._gate.epoch
            with self._gate.writing():
                try:
                    self._apply_pending_locked(partitions)
                    fault_point(INGEST_APPLIED)
                finally:
                    self._publish_applied_locked(partitions)
                return self._gate.epoch

    def insert(self, values_by_column: dict) -> None:
        """Route a batch to partitions by value, apply, and publish.

        ``enqueue`` + ``flush``: the rows are visible (atomically, on
        every shard) when the call returns, exactly like the historical
        sequential insert — but the apply wave fans out across shards
        and no longer blocks concurrent writers during shard work.
        """
        self.enqueue(values_by_column)
        self.flush()

    # -- reads ----------------------------------------------------------------

    def range_query(self, low: int, high: int) -> MergedRangeResult:
        """Fan a range query out through the shard planners; merge exactly.

        The shards that have work — those the range covers, or all of
        them under ``plan="scan"`` — run concurrently when
        ``workers > 1`` (see :meth:`_read_shards`), and the outputs
        merge in shard order, so the result (and every policy-visible
        counter behind it) is bit-identical to sequential execution.
        Shards whose declared value bounds exclude the range are pruned
        without planning (zero rows considered).  Query
        traffic for :meth:`rebalance` counts the shards the range
        *covers* and the rows it matched there, never the shards a
        plan mode happened to execute.
        """
        if high < low:
            raise QueryError(f"range [{low}, {high}) is reversed")
        if high == low:
            # An empty range matches nothing under any mode; answering
            # here keeps the executed/pruned classification below in
            # lock-step with the bounds test (which does not prune an
            # empty range inside the bounds — the planner would execute
            # it for 0 rows) and counts no query traffic, like covers().
            return MergedRangeResult(rf=0, mf=0)

        def read(partition: Partition):
            result = partition.db.range_query(self.column, low, high)
            return (result.rf, result.mf, 1, 0), result.rf + result.mf

        outputs = self._read_shards(
            read, low, high, empty=(0, 0, 0, 0), pruned=(0, 0, 0, 1)
        )
        rf, mf, executed, pruned = (sum(col) for col in zip(*outputs))
        return MergedRangeResult(
            rf=rf, mf=mf, shards_executed=executed, shards_pruned=pruned
        )

    def aggregate(
        self,
        function: AggregateFunction | str,
        low: int | None = None,
        high: int | None = None,
    ) -> tuple[float | None, float | None]:
        """Aggregate across shards: ``(amnesiac, oracle)``, merged exactly.

        Supports every :class:`AggregateFunction` — including VAR/STD —
        and optional ``[low, high)`` windows, matching
        :meth:`repro.core.database.AmnesiaDatabase.aggregate`.  Each
        shard contributes per-view :class:`~repro.stats.ExactMoments`
        (computed through its planner; the shards with work run
        concurrently when ``workers > 1``); their exact integer sums
        merge and the function is finalized once over the merged
        accumulator, so AVG/VAR/STD are the exact global statistics —
        not averages of shard answers, and independent of the shard
        layout and of which shard finished first.  Aggregates are not
        query traffic: :meth:`rebalance` follows range reads and scans.
        """
        function = AggregateFunction(function)
        if (low is None) != (high is None):
            raise ConfigError("supply both low and high, or neither")
        if low is not None and high < low:
            raise QueryError(f"range [{low}, {high}) is reversed")

        def read(partition: Partition):
            moments = partition.db.aggregate_moments(function, self.column, low, high)
            return moments, moments[0].count + moments[1].count

        active = ExactMoments()
        oracle = ExactMoments()
        empty = (ExactMoments(), ExactMoments())
        for active_part, missed_part in self._read_shards(
            read, low, high, empty=empty, traffic=False
        ):
            active.merge(active_part)
            oracle.merge(active_part)
            oracle.merge(missed_part)
        return function.from_moments(active), function.from_moments(oracle)

    def scan_chunks(
        self,
        low: int | None = None,
        high: int | None = None,
        *,
        record_access: bool = True,
        epoch: int | None = None,
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per-shard ``(values, epochs, forgotten)`` chunks, in shard order.

        The row-level twin of :meth:`range_query`, feeding cross-table
        plans (:class:`~repro.query.plans.ShardedScanNode`): every
        shard matches through its own planner (so shard pruning and
        zone-map/index paths keep working), and active matches get
        their access recorded exactly as a direct query would — at
        ``epoch`` when the caller supplies one (cross-table queries
        pass their query epoch, so recency-sensitive policies see plain
        and sharded sources identically), else at each shard's own
        clock.  Each chunk is in insertion-position order and the
        chunks come **in shard order**, so their concatenation is
        bit-identical at any worker count and under every plan mode.
        ``low=None`` (with ``high=None``) scans the full store.
        Query-traffic counters for :meth:`rebalance` accumulate like
        :meth:`range_query`'s: coverage-based, never plan-dependent.

        The chunks stay *unconcatenated*, so a batch iterator
        (:meth:`repro.query.plans.PlanNode.batches`) can re-chunk them
        to its batch size without ever building the full stream.  All
        shards are scanned under **one** acquisition of the read gate's
        shared side, so the whole chunk list reflects a single
        published ingest epoch — a consumer draining the chunks later
        still sees the snapshot taken here, however the store advances
        in between.
        """
        low, high = check_scan_bounds(low, high)
        predicate = (
            TruePredicate() if low is None else RangePredicate(self.column, low, high)
        )

        def read(partition: Partition):
            db = partition.db
            at = db.epoch if epoch is None else epoch
            chunk = match_rows(db.planner, predicate, self.column, at, record_access)
            return chunk, int(chunk[0].size)

        nothing = np.empty(0, dtype=np.int64)
        empty = (nothing, nothing, np.empty(0, dtype=bool))
        return self._read_shards(read, low, high, empty=empty)

    def _read_shards(
        self,
        read,
        low: int | None,
        high: int | None,
        *,
        empty,
        pruned=None,
        traffic=True,
    ) -> list:
        """``read`` over every shard, outputs in shard order.

        The one place a read takes a shard's lock, charges query
        traffic and skips a shard: ``read(partition)`` returns
        ``(output, rows matched)`` for a shard with rows, and an empty
        shard answers ``empty`` without planning.  Outside ``scan``
        mode a shard whose declared bounds exclude the range answers
        ``pruned`` (default ``empty``) without entering its planner,
        and counts the prune the planner would have recorded in
        :attr:`Partition.prunes`.  Unless ``traffic``
        is false, traffic is coverage-based: a shard the range covers
        (every shard when ``low`` is None) gains one ``query_hits`` and
        its matched rows (active + forgotten) in ``query_rows``, never
        what a plan mode happened to execute, so :meth:`rebalance`
        evolves identically under ``scan`` and the pruned modes.

        Only *busy* shards go through the pool: shards with rows that
        the range covers, or every shard with rows under ``plan="scan"``
        or a full scan.  The rest run inline, so a read whose work
        lands in one shard makes no pool round-trip at all.  Which
        shards count as busy is a scheduling choice only.

        Runs under the read gate's shared side: a concurrent
        :meth:`flush` publishes its batches either entirely before or
        entirely after the read — no shard answers from a half-applied
        ingest wave.
        """

        def run_shard(partition: Partition):
            with partition.lock:
                covered = traffic and (low is None or partition.covers(low, high))
                if covered:
                    partition.query_hits += 1
                if partition.db.total_rows == 0:
                    return empty
                if (
                    low is not None
                    and partition.db.plan_mode != "scan"
                    and partition.excludes(low, high)
                ):
                    partition.prunes += 1
                    partition.pruned_rows += partition.db.total_rows
                    return empty if pruned is None else pruned
                output, matched = read(partition)
                if covered:
                    partition.query_rows += matched
                return output

        with self._gate.reading():
            partitions = self._partitions
            busy = [
                p.db.total_rows > 0
                and (low is None or p.db.plan_mode == "scan" or p.covers(low, high))
                for p in partitions
            ]
            pooled = iter(
                self._fanout.map_ordered(
                    run_shard, list(compress(partitions, busy)), self.workers
                )
            )
            return [
                next(pooled) if is_busy else run_shard(p)
                for p, is_busy in zip(partitions, busy)
            ]

    def estimate_scan(
        self, low: int | None = None, high: int | None = None, *, cost: bool = False
    ) -> float:
        """Estimated matches (or, with ``cost=True``, rows considered)
        of a :meth:`scan_chunks` call — per-shard planner estimates
        (histogram-sharpened under ``stats="hist"``) summed over the
        shards the range covers."""
        total = 0.0
        with self._gate.reading():
            for partition in self._partitions:
                if low is not None and not partition.covers(low, high):
                    continue
                db = partition.db
                estimate = (
                    db.planner.estimate(self.column, low, high)
                    if low is not None
                    else None
                )
                if estimate is not None:
                    total += (
                        float(estimate.candidate_rows)
                        if cost
                        else estimate.est_rows
                    )
                else:
                    total += float(db.total_rows)
        return total

    # -- planning introspection ---------------------------------------------

    def explain(self, low: int, high: int) -> list[tuple[int, QueryPlan]]:
        """Preview each shard's plan for ``[low, high)`` (no execution).

        Returns ``(partition_index, plan)`` pairs in range order —
        pruned shards show up with a ``pruned`` plan, making the
        planner's fan-out decision inspectable before paying for it.
        """
        predicate = RangePredicate(self.column, low, high)
        return [
            (partition.index, partition.db.planner.plan(predicate))
            for partition in self._partitions
        ]

    def plan_report(self) -> str:
        """Unified EXPLAIN-style report across every shard's planner.

        Shards are listed in range order (the constructor and every
        boundary move build the layout list in that order), so the
        report is stable across worker interleavings and boundary
        adaptations; the header carries the fan-out width and
        every split/merge decision taken so far.
        """
        totals = {"considered": 0, "pruned_rows": 0, "pruned_shards": 0}
        lines = [
            f"PartitionedAmnesiaDatabase(plan={self.plan_mode!r}, "
            f"stats={self.stats_mode!r}) — "
            f"{self.partition_count} shard(s), "
            f"budget {self.total_budget}, workers {self.workers}, "
            f"rebalance {self.rebalance_policy!r}, "
            f"ingest epoch {self.ingest_epoch} "
            f"({self.pending_batches} queued)"
        ]
        for partition in self._partitions:
            stats = partition.db.planner.stats()
            totals["considered"] += stats["rows_considered"]
            totals["pruned_rows"] += stats["rows_pruned"] + partition.pruned_rows
            totals["pruned_shards"] += partition.prunes
            lines.append(f"shard {partition.index} [{partition.low}, {partition.high}):")
            lines.extend(
                "  " + line
                for line in partition.db.plan_report().splitlines()
            )
        lines.append(
            f"totals: rows considered {totals['considered']:,} / "
            f"pruned {totals['pruned_rows']:,}; "
            f"shard-level prunes {totals['pruned_shards']}"
        )
        if self._adaptations:
            lines.append("boundary adaptations:")
            lines.extend("  " + event for event in self._adaptations)
        return "\n".join(lines)

    # -- adaptation ----------------------------------------------------------------

    def _new_partition(
        self, index: int, bounds, budget: int, tag: tuple[str, ...]
    ) -> Partition:
        """An empty shard for the ``index``-th range of ``bounds``.

        The first and last ranges are open-ended.  Seed and table name
        derive from ``tag`` (the initial index, or the generation and
        bounds), never from a plan mode, so layouts replay identically.
        """
        return Partition(
            index=index,
            low=bounds[index],
            high=bounds[index + 1],
            budget=budget,
            policy=self._policy_factory(),
            column=self.column,
            seed=derive_seed(self._seed, "-".join(("partition", *tag))),
            plan=self.plan_mode,
            edge_low=index == 0,
            edge_high=index == len(bounds) - 2,
            table_name="_".join(("partition", *tag)),
            stats=self.stats_mode,
            compress=self.compress_mode,
        )

    def _split_points(
        self, hot_part: Partition, ways: int
    ) -> tuple[list[int], str]:
        """Where to cut a hot shard: quantiles under ``hist``, else midpoint.

        The ``hist`` statistics mode cuts at the shard's
        traffic-weighted value quantiles — the equi-depth histogram
        cuts of its stored values, weighted by per-row access counts
        (+1, so an unqueried shard still splits by value mass).  With
        ``ways=2`` that is the classic traffic-weighted median; a shard
        drawing ``k`` times the split threshold is cut ``k+1`` ways in
        one window, so the layout converges under heavy write skew
        instead of one median per rebalance.  Both inputs are proven
        plan-mode- and worker-count-independent by the equivalence
        harness, so the boundary trajectory stays bit-identical
        whatever access paths answered the queries.  Uniform statistics
        keep the historical 2-way midpoint.  Cuts are clipped into the
        shard's open interval and deduplicated; the returned list may
        therefore be shorter than ``ways - 1`` (or empty, when no valid
        interior cut exists).
        """
        table = hot_part.db.table
        if self.stats_mode == "hist" and table.total_rows > 0:
            cuts = traffic_weighted_quantiles(
                table.values(self.column),
                table.access_counts().astype(np.float64) + 1.0,
                [i / ways for i in range(1, ways)],
            )
            clipped = np.clip(
                cuts, hot_part.low + 1, hot_part.high - 1
            ).astype(int)
            valid = {
                int(c)
                for c in clipped.tolist()
                if hot_part.low < c < hot_part.high
            }
            return sorted(valid), "median"
        mid = (hot_part.low + hot_part.high) // 2
        return (
            [mid] if hot_part.low < mid < hot_part.high else []
        ), "midpoint"

    def _adapt_boundaries(self, floor: int) -> None:
        """Split the hottest shard / merge the coldest adjacent pair.

        Triggered by :meth:`rebalance` under the ``adaptive`` policy:
        when one shard draws more than ``split_threshold`` times its
        fair share of row traffic, its range is split — multi-way, at
        the traffic-weighted value quantiles under the ``hist``
        statistics mode (a shard ``k`` times over the threshold is cut
        ``k + 1`` ways, capacity permitting), at the 2-way range
        midpoint otherwise (see :meth:`_split_points`).  The split is
        funded by merging the adjacent pair with the least combined
        traffic (hot shard excluded); without an eligible pair the
        count may grow up to ``max_partitions``.  All decisions read
        only coverage-based counters and table state, so the trajectory
        is identical under every plan mode.  The chosen cuts and merge
        become new bounds, and :meth:`_install_bounds` re-routes the
        moved rows through the insert router.
        """
        partitions = self._partitions
        n = len(partitions)
        traffic = np.array([p.query_rows for p in partitions], dtype=np.float64)
        total = float(traffic.sum())
        if n < 2 or total <= 0.0:
            return
        shares = traffic / total
        # Shard-count ceiling from both caps: the configured maximum
        # and what the budget floor can fund.
        headroom = min(self.max_partitions, self.total_budget // floor)
        # Hottest shard first; when it cannot split (a width-1 range —
        # a single scorching value, which median cuts isolate quickly)
        # fall through to the next shard still above the threshold
        # instead of stalling the adaptation for the whole window.
        hot = None
        for candidate in sorted(range(n), key=lambda i: (-shares[i], i)):
            if shares[candidate] * n < self.split_threshold:
                break  # descending shares: nothing below is eligible
            pairs = [j for j in range(n - 1) if candidate not in (j, j + 1)]
            merge_gain = 1 if pairs else 0
            # Final count is n - merge_gain + (segments - 1); cap the
            # fan of the split to what the ceiling can absorb.
            max_ways = headroom - n + merge_gain + 1
            if max_ways < 2:
                return  # no capacity for any split this window
            ways = 2
            if self.stats_mode == "hist":
                hotness = shares[candidate] * n / self.split_threshold
                ways = min(max_ways, 1 + int(hotness))
            # The cuts read the shard's values and access counters;
            # hold its lock (like the migration snapshot below) so an
            # in-flight query's half-applied access bumps cannot make
            # the quantiles race-dependent.
            with partitions[candidate].lock:
                cuts, kind = self._split_points(
                    partitions[candidate], max(ways, 2)
                )
            if cuts:
                hot, cut_kind, merge_pairs = candidate, kind, pairs
                break
        if hot is None:
            return
        hot_part = partitions[hot]
        merge_at = None
        if merge_pairs:
            merge_at = min(
                merge_pairs, key=lambda j: (traffic[j] + traffic[j + 1], j)
            )
        new_count = n + len(cuts) - (1 if merge_at is not None else 0)
        if new_count > self.max_partitions or floor * new_count > self.total_budget:
            return
        self._generation += 1
        bounds = list(self._bounds)
        bounds[hot + 1 : hot + 1] = cuts
        cut_noun = "midpoint" if cut_kind == "midpoint" else (
            "median" if len(cuts) == 1 else "medians"
        )
        events = [
            f"gen {self._generation}: split shard [{hot_part.low}, "
            f"{hot_part.high}) at {cut_noun} "
            f"{', '.join(str(c) for c in cuts)} "
            f"(traffic share {shares[hot]:.0%} of {n} shards)"
        ]
        if merge_at is not None:
            cold_a, cold_b = partitions[merge_at], partitions[merge_at + 1]
            bounds.remove(cold_b.low)
            pair_share = (traffic[merge_at] + traffic[merge_at + 1]) / total
            events.append(
                f"gen {self._generation}: merged shards [{cold_a.low}, "
                f"{cold_a.high}) + [{cold_b.low}, {cold_b.high}) "
                f"(combined traffic share {pair_share:.0%})"
            )
        self._install_bounds(bounds)
        self._adaptations.extend(events)

    def _install_bounds(self, bounds: list[int]) -> None:
        """Swap in the layout cut at ``bounds``, re-routing moved rows.

        Each range whose bounds changed is rebuilt from the rows that
        :meth:`_partition_of` (the insert router) sends it, taken from
        the old shards it overlaps in layout order; an old shard that
        overlaps one range only sends it all its rows unrouted.  It
        starts at their largest epoch, and each source's traffic
        counters split evenly over the ranges it feeds, the remainder
        to the last of them.
        """
        ranges = list(zip(bounds, bounds[1:]))
        old = {(p.low, p.high): p for p in self._partitions}
        fresh = [k for k, r in enumerate(ranges) if r not in old]
        retired = [p for p in self._partitions if (p.low, p.high) not in ranges]
        # The fresh ranges each retired shard overlaps, in layout order.
        feeds = [
            [k for k in fresh if ranges[k][0] < p.high and p.low < ranges[k][1]]
            for p in retired
        ]

        def share(counter: int, ks: list[int], k: int) -> int:
            base = counter // len(ks)
            return counter - base * (len(ks) - 1) if k == ks[-1] else base

        layout: list[Partition] = []
        # Migration reads the source tables (values, activity, access
        # metadata); holding the source shards' locks keeps an in-flight
        # query from mutating that state mid-snapshot.
        with ExitStack() as stack:
            for p in retired:
                stack.enter_context(p.lock)
            # A shard feeding one range (a merge source) lies wholly
            # inside it, edge values included, so it hands over every
            # row; only a split source routes its rows one by one.
            owners = [
                None if len(ks) == 1 else self._partition_of(
                    p.db.table.values(self.column), bounds, len(ranges)
                )
                for p, ks in zip(retired, feeds)
            ]

            def moved(i: int, k: int) -> np.ndarray:
                if owners[i] is None:
                    return np.arange(retired[i].db.table.total_rows)
                return np.flatnonzero(owners[i] == k)

            for k, (lo, hi) in enumerate(ranges):
                if (lo, hi) in old:
                    layout.append(old[lo, hi])
                    continue
                fed = [i for i, ks in enumerate(feeds) if k in ks]
                # Budget 1 is provisional: rebalance assigns the real one.
                partition = self._new_partition(
                    k, bounds, 1, (f"g{self._generation}", str(lo), str(hi))
                )
                partition.adopt_history(
                    [(retired[i].db.table, moved(i, k)) for i in fed]
                )
                epoch = max(retired[i].db.epoch for i in fed)
                partition.db.advance_epoch_to(epoch)
                if partition.db.compressed is not None:
                    # The replayed cohorts keep their original epochs,
                    # so the shard demotes exactly what its sources had
                    # cold.
                    partition.db.compressed.demote_cold(epoch)
                partition.query_hits = sum(
                    share(retired[i].query_hits, feeds[i], k) for i in fed
                )
                partition.query_rows = sum(
                    share(retired[i].query_rows, feeds[i], k) for i in fed
                )
                layout.append(partition)
        for index, partition in enumerate(layout):
            partition.index = index
        # Single atomic swap: readers snapshotting self._layout never
        # see a partition list from one generation and cut points from
        # another.
        self._layout = (layout, list(bounds))

    def rebalance(self, floor: int = 1, policy: str | None = None) -> dict[int, int]:
        """Reallocate storage proportionally to observed query traffic.

        ``policy`` (default: the store's configured ``rebalance``)
        picks the traffic signal: ``"hits"`` splits budget by covering-
        query counts, ``"rows"`` by the coverage-based rows-matched
        counters (queries that touched more data pull more budget), and
        ``"adaptive"`` additionally adapts the *boundaries* first —
        splitting a shard whose traffic share exceeds the configured
        skew threshold and merging the coldest adjacent pair, with the
        moved rows re-routed through the insert router — before
        splitting budget by rows.

        Each partition receives at least ``floor`` tuples; the rest of
        the total budget is split by (signal + 1) shares, so an
        untouched store still decays gracefully instead of starving
        instantly.  Shrunken partitions forget down immediately;
        traffic counters reset so the next window adapts afresh.
        Returns {partition: budget}.

        Concurrency contract: rebalancing is a *writer* — it holds the
        ingest lock (so no batch can be routed by a layout the
        migration is about to retire: the documented insert-vs-
        migration race) and the gate's exclusive side (so no query is
        in flight across the layout swap, and any queued batches are
        drained — and published — before the shards are snapshotted).
        Queries may run concurrently with each other at any time;
        they simply order before or after the rebalance wave.
        """
        if floor < 1:
            raise ConfigError(f"floor must be >= 1, got {floor}")
        if floor * self.partition_count > self.total_budget:
            raise ConfigError("floor exceeds the total budget")
        if policy is None:
            policy = self.rebalance_policy
        check_in(policy, REBALANCE_POLICIES, "rebalance")
        with self._ingest_lock, self._gate.writing():
            # Drain queues before snapshotting shards: an enqueued-but-
            # unapplied batch was routed by the current layout and must
            # land (and publish) before any migration rebuilds it.  The
            # publish runs on the unwind path too, so a crashed drain
            # still publishes its completed batches and leaves the
            # layout untouched for the retry.
            try:
                self._apply_pending_locked(self._partitions)
            finally:
                self._publish_applied_locked(self._partitions)
            # Crash here: queues drained and published, boundaries and
            # budgets exactly as before — a retried rebalance is a
            # fresh, complete one.
            fault_point(REBALANCE_ADAPT)
            if policy == "adaptive":
                self._adapt_boundaries(floor)
            partitions = self._partitions
            signal = (
                [p.query_hits for p in partitions]
                if policy == "hits"
                else [p.query_rows for p in partitions]
            )
            shares = np.array(signal, dtype=np.float64) + 1.0
            spare = self.total_budget - floor * len(partitions)
            raw = shares / shares.sum() * spare
            budgets = np.floor(raw).astype(int) + floor
            leftover = self.total_budget - int(budgets.sum())
            order = np.argsort(-(raw - np.floor(raw)))
            for i in range(leftover):
                budgets[order[i % len(partitions)]] += 1
            for partition, budget in zip(partitions, budgets):
                with partition.lock:
                    partition.set_budget(int(budget))
                    partition.query_hits = 0
                    partition.query_rows = 0
            return {p.index: p.budget for p in partitions}

    def checkpoint(self, path):
        """Save the whole store to ``path`` (see :func:`repro.storage.save_store`).

        Queued batches are flushed (and published) first, then the
        snapshot is taken under the gate's shared side, so the saved
        state is a published ingest epoch — never a half-applied batch.
        Restore with :func:`repro.storage.load_store`, supplying the
        ``policy_factory`` (policies are rebuilt, not serialized).
        """
        from ..storage.io import save_store

        return save_store(self, path)

    def stats(self) -> dict:
        """Operational snapshot across shards."""
        partitions = self._partitions
        return {
            "partitions": len(partitions),
            "ingest_epoch": self.ingest_epoch,
            "pending_batches": self.pending_batches,
            "total_budget": self.total_budget,
            "active_rows": self.active_count,
            "total_rows": self.total_rows,
            "budgets": [p.budget for p in partitions],
            "boundaries": list(self._bounds),
            "query_hits": [p.query_hits for p in partitions],
            "query_rows": [p.query_rows for p in partitions],
            "plan": self.plan_mode,
            "stats": self.stats_mode,
            "workers": self.workers,
            "rebalance": self.rebalance_policy,
            "adaptations": list(self._adaptations),
            "shard_prunes": [p.prunes for p in partitions],
        }

    def __repr__(self) -> str:
        return (
            f"PartitionedAmnesiaDatabase(column={self.column!r}, "
            f"partitions={self.partition_count}, "
            f"budget={self.total_budget}, plan={self.plan_mode!r}, "
            f"workers={self.workers})"
        )
