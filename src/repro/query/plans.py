"""Cross-table query plans: composable nodes over the catalog.

Single-table planning stops at the table boundary, but the amnesia
model gets interesting the moment two forgetting streams meet: a join
between per-sensor tables must account for rows that *either* side has
forgotten.  This module adds a small algebra of plan nodes that
compose the existing per-table planners into multi-table queries:

:class:`TableScanNode`
    Leaf over one catalog table.  Matching runs through the table's
    own :class:`~repro.query.planner.QueryPlanner` (so every
    single-table access path — scan/zonemap/index/cost/pruned — keeps
    working underneath), and the output carries one row per *oracle*
    match with a ``forgotten`` flag, in insertion-position order.

:class:`ShardedScanNode`
    Leaf over a registered
    :class:`~repro.partitioning.PartitionedAmnesiaDatabase`: each
    shard matches through its own planner and the per-shard outputs
    are concatenated in shard order, so a sharded stream can feed a
    union or join exactly like a plain table.

:class:`UnionNode`
    Concatenates child streams (SQL ``UNION ALL`` over identically
    shaped inputs), preserving each input's exact RF/MF/precision
    accounting in the result's ``inputs``.

:class:`JoinNode`
    Equi-join on ``value`` or ``epoch``.  The left input probes the
    right one, whose keys are indexed once (a dense prefix-count table
    when they are narrow enough, a sorted copy otherwise), so pairs
    come out in canonical order — lexicographic by (left row, right
    row) — by construction.  A join output row is *forgotten* iff any
    contributing input row was: the amnesiac DBMS would only have
    produced the pairs where both sides are still active.

Execution is driven by :func:`execute_plan` (the engine behind
:meth:`repro.storage.Catalog.query`): all leaf scans across the tree
run through a :class:`~repro._util.parallel.FanOutPool`, grouped by
source so two scans of one table never race its access accounting, and
merged in tree order — results are bit-identical at any worker count.
Every node renders into an EXPLAIN-style tree with per-node cost
estimates via :func:`explain_plan` (estimates only) or
:func:`render_summary` (estimates plus the actual RF/MF/precision).

Above the materializing path sits the **streaming vectorized layer**:
every node exposes :meth:`PlanNode.batches`, an iterator of fixed-size
``(rows, forgotten)`` numpy batches in the same canonical order the
materializing path produces (see the method's docstring for the full
batch contract — ordering, forgotten-flag propagation and epoch
snapshot semantics), and :class:`AggregateNode` consumes those batches
into :class:`~repro.stats.moments.ExactMoments` so an aggregate over a
join or union never materializes the joined row set: the peak working
set is bounded by ``batch_size × build rows`` instead of the full
output.  Aggregation is pushed below unions (per-input partials merged
exactly), and the cost model prices a **sort-merge join**
against the hash join — using the per-bin
:class:`~repro.stats.TableHistogramStats` cardinalities — choosing
merge when both inputs arrive ordered (sharded scans band by value;
sorted-index-backed leaves are ordered by construction).

**Cache-invalidation contract** (the serving layer,
:mod:`repro.serving`, caches above this module): a plan may be reused
only while its planner's ``generation`` stands still — any insert,
forget, index registration or value-bound declaration bumps it, and a
plan carrying a since-dropped index is evicted at lookup.  A cached
*result* may be served only while no forget event touched the cohorts
of its match set and no insert slipped past its predicate's guard
bounds (:func:`repro.serving.result_cache.guard_bounds`); entries for
a dropped or recreated source are purged through the catalog's
lifecycle hooks.  Under that contract every cache hit is bit-identical
to a fresh execution — the same invariant the equivalence harness
enforces for every execution path in this module.

Plans can also be written as compact specs for the CLI and the config
layer (``--query``), parsed by :func:`parse_query_spec`::

    union:s1,s2                      -- UNION ALL of two full scans
    union:s1,s2:low=0,high=100       -- bounded scans
    join:s1,s2:on=value              -- equi-join on the value column
    join:s1,s2:on=epoch,low=0,high=500
    join:s1,s2:on=value,agg=value    -- streamed aggregate over the join

>>> import numpy as np
>>> from repro.storage import Catalog
>>> cat = Catalog(plan="auto")
>>> for name in ("s1", "s2"):
...     t = cat.create_table(name, ["a"])
...     _ = t.insert_batch(0, {"a": [1, 2, 3]})
>>> cat.get("s1").forget(np.array([0]), epoch=1)
1
>>> u = cat.query("union:s1,s2", epoch=1)
>>> (u.rf, u.mf)                     # row 0 of s1 was forgotten
(5, 1)
>>> j = cat.query(JoinNode(TableScanNode("s1"), TableScanNode("s2"),
...                        on="value"), epoch=1)
>>> (j.rf, j.mf, round(j.precision, 3))
(2, 1, 0.667)
>>> a = cat.query("join:s1,s2:on=value,agg=value", epoch=1)
>>> (a.rf, a.mf, a.active.total)     # SUM(l.value) over surviving pairs
(2, 1, 5)
>>> [b.shape[0] for b, _ in
...  UnionNode(TableScanNode("s1"), TableScanNode("s2"))
...  .batches(cat, epoch=1, batch_size=4)]
[4, 2]
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .._util.errors import QueryError, ReproError
from .predicates import RangePredicate, TruePredicate

__all__ = [
    "JOIN_KEYS",
    "AggregateNode",
    "NodeResult",
    "PlanNode",
    "StreamedAggregate",
    "TableScanNode",
    "ShardedScanNode",
    "UnionNode",
    "JoinNode",
    "QuerySpec",
    "check_scan_bounds",
    "match_rows",
    "parse_query_spec",
    "build_plan",
    "execute_plan",
    "explain_plan",
    "render_summary",
    "summarize_result",
]

#: Join keys a :class:`JoinNode` accepts at the leaf level — every scan
#: node emits exactly these two columns.
JOIN_KEYS = ("value", "epoch")

#: Columns every leaf scan emits: the scanned value column (normalised
#: to the role name ``value``) and the row's insertion epoch.
SCAN_COLUMNS = ("value", "epoch")


def _empty_rows(width: int) -> np.ndarray:
    return np.empty((0, width), dtype=np.int64)


# -- streaming plumbing ----------------------------------------------------


def _check_batch_size(batch_size: int) -> int:
    """``batch_size`` validated as a positive row count."""
    batch_size = int(batch_size)
    if batch_size < 1:
        raise QueryError(f"batch size must be >= 1, got {batch_size}")
    return batch_size


def _batched(pieces, batch_size: int):
    """Re-chunk a ``(rows, forgotten)`` piece stream to ``batch_size``.

    Yields batches of exactly ``batch_size`` rows (the final batch may
    be short), preserving row order across arbitrarily sized input
    pieces — the normalization between producers that emit natural
    units (leaf slices, per-shard chunks, per-probe-batch pair blocks)
    and consumers that promise a fixed working-set bound.
    """
    pending_rows: list[np.ndarray] = []
    pending_flags: list[np.ndarray] = []
    buffered = 0
    for rows, flags in pieces:
        n = rows.shape[0]
        if n == 0:
            continue
        pending_rows.append(rows)
        pending_flags.append(flags)
        buffered += n
        if buffered < batch_size:
            continue
        rows_all = (
            pending_rows[0]
            if len(pending_rows) == 1
            else np.concatenate(pending_rows)
        )
        flags_all = (
            pending_flags[0]
            if len(pending_flags) == 1
            else np.concatenate(pending_flags)
        )
        start = 0
        while buffered - start >= batch_size:
            yield (
                rows_all[start : start + batch_size],
                flags_all[start : start + batch_size],
            )
            start += batch_size
        if start < buffered:
            pending_rows = [rows_all[start:]]
            pending_flags = [flags_all[start:]]
            buffered -= start
        else:
            pending_rows = []
            pending_flags = []
            buffered = 0
    if buffered:
        yield (
            pending_rows[0]
            if len(pending_rows) == 1
            else np.concatenate(pending_rows),
            pending_flags[0]
            if len(pending_flags) == 1
            else np.concatenate(pending_flags),
        )


def _drain(pieces) -> tuple[np.ndarray, np.ndarray]:
    """Materialize a piece stream into one ``(rows, forgotten)`` pair."""
    chunks = list(pieces)
    if not chunks:
        return _empty_rows(0), np.empty(0, dtype=bool)
    return (
        np.concatenate([rows for rows, _ in chunks]),
        np.concatenate([flags for _, flags in chunks]),
    )


class _StreamContext:
    """Per-execution state threaded through a batch-stream walk.

    ``payloads`` maps leaf node ids to their scanned inputs (produced
    up front, under the source locks, so the stream holds one epoch
    snapshot however long the consumer takes to drain it); ``counts``
    accumulates each node's (oracle rows, forgotten rows) as its
    output flows past, which is how streamed execution reports the
    same per-node RF/MF accounting the materializing path keeps —
    without retaining any rows.
    """

    def __init__(self, payloads: dict, batch_size: int):
        self.payloads = payloads
        self.batch_size = batch_size
        self.counts: dict[int, list[int]] = {}

    def tally(self, node: "PlanNode", flags: np.ndarray) -> None:
        entry = self.counts.setdefault(id(node), [0, 0])
        entry[0] += int(flags.size)
        entry[1] += int(np.count_nonzero(flags))


def _summarize_stream(node: "PlanNode", ctx: _StreamContext) -> tuple:
    """(rf, mf, precision, children) skeleton from a drained stream."""
    oracle, mf = ctx.counts.get(id(node), (0, 0))
    rf = oracle - mf
    precision = 1.0 if oracle == 0 else rf / oracle
    return (
        rf,
        mf,
        precision,
        tuple(_summarize_stream(child, ctx) for child in node.children),
    )


@dataclass(frozen=True)
class NodeResult:
    """Output stream of one plan node, with amnesia accounting.

    ``rows`` is a ``(n, len(columns))`` int64 matrix — one row per
    *oracle* output tuple; ``forgotten`` flags the rows the amnesiac
    DBMS would not have produced (for a join: any contributing input
    row was forgotten).  ``inputs`` holds the child results, so
    per-input RF/MF/precision accounting survives unions and joins
    exactly.
    """

    columns: tuple[str, ...]
    rows: np.ndarray = field(repr=False)
    forgotten: np.ndarray = field(repr=False)
    inputs: tuple["NodeResult", ...] = ()

    @property
    def oracle_count(self) -> int:
        """Rows the complete (never-forgetting) database would return."""
        return int(self.rows.shape[0])

    @property
    def rf(self) -> int:
        """R_F: rows the amnesiac database actually returns."""
        return int(self.oracle_count - self.mf)

    @property
    def mf(self) -> int:
        """M_F: rows lost because some contributing tuple was forgotten."""
        return int(np.count_nonzero(self.forgotten))

    @property
    def precision(self) -> float:
        """P_F = RF / (RF + MF); 1.0 when the oracle result is empty."""
        return 1.0 if self.oracle_count == 0 else self.rf / self.oracle_count

    def active_rows(self) -> np.ndarray:
        """The amnesiac-visible rows (what the DBMS would answer)."""
        return self.rows[~self.forgotten]

    def column(self, name: str) -> np.ndarray:
        """One output column by name (oracle view, row order)."""
        try:
            return self.rows[:, self.columns.index(name)]
        except ValueError:
            raise QueryError(
                f"result has no column {name!r}; columns are {self.columns}"
            ) from None

    def __repr__(self) -> str:
        return (
            f"NodeResult(columns={self.columns}, rf={self.rf}, "
            f"mf={self.mf}, precision={self.precision:.3f})"
        )


class _KeyDistribution:
    """Join-key mass model: a leaf's oracle value histogram, clipped.

    Wraps a scan's (active, forgotten) histograms and restricts their
    mass to the scan's bounds, exposing just what the join estimator
    needs: bin edges and the oracle mass of value intervals.
    """

    def __init__(self, active, forgotten, low, high):
        self._active = active
        self._forgotten = forgotten
        self._low = low
        self._high = high

    def edges(self) -> np.ndarray:
        return self._active.bin_edges()

    def masses(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Oracle mass of each interval ``[lows[i], highs[i])``."""
        if self._low is not None:
            lows = np.maximum(lows, float(self._low))
            highs = np.minimum(highs, float(self._high))
        return self._active.masses(lows, highs) + self._forgotten.masses(
            lows, highs
        )


def _estimate_equijoin(left: "_KeyDistribution", right: "_KeyDistribution") -> float:
    """Expected equi-join pairs under uniform-within-bin key mass.

    Walks the left distribution's bins: an interval holding ``l`` left
    keys and ``r`` right keys over ``w`` distinct values yields about
    ``l * r / w`` matching pairs — the per-bin refinement of the
    classic ``|L|·|R| / ndv`` estimate, which is what lets skewed key
    histograms price a Zipf join correctly where the FK-ish
    max-of-inputs heuristic collapses.  Both sides' per-bin masses come
    from one broadcast each; the kept terms are summed in bin order.
    """
    edges = left.edges()
    lows, highs = edges[:-1], edges[1:]
    l_mass = left.masses(lows, highs)
    r_mass = right.masses(lows, highs)
    keep = (l_mass > 0.0) & (r_mass > 0.0)
    terms = l_mass[keep] * r_mass[keep] / np.maximum(highs - lows, 1.0)[keep]
    # Added one by one, in bin order: ``np.sum`` adds pairwise and the
    # builtin ``sum`` compensates from Python 3.12 on, and either could
    # move the estimate.
    total = 0.0
    for term in terms.tolist():
        total += term
    return total


class PlanNode(ABC):
    """One node of a cross-table plan tree."""

    children: tuple["PlanNode", ...] = ()

    def key_histogram(self, catalog, key: str):
        """Key-mass model for join estimation (leaves may override)."""
        return None

    def ordered_on(self, catalog, key: str) -> bool:
        """True when this node's output arrives ordered by ``key``.

        Feeds the join's sort-merge pricing; the default (unordered)
        is always safe — strategy choice never changes results.
        """
        return False

    def batches(
        self,
        catalog,
        epoch: int,
        batch_size: int = 4096,
        *,
        pool=None,
        workers: int = 1,
        record_access: bool = True,
    ):
        """Stream this node's output as fixed-size numpy batches.

        Returns an iterator of ``(rows, forgotten)`` pairs — ``rows``
        a ``(n, len(output_columns()))`` int64 matrix, ``forgotten``
        the aligned bool flags — with ``n == batch_size`` for every
        batch except possibly the last.  ``batch_size`` defaults to 4096
        rows; experiments pass their run config's ``exec_batch`` (the
        CLI's ``--batch-size``, via ``base``).

        The batch contract:

        **Ordering.**  Concatenating the batches reproduces, bit for
        bit, the rows and flags :func:`execute_plan` materializes:
        leaf scans stream in insertion-position order (sharded leaves
        in shard order, each shard in position order), unions in child
        order, and joins in canonical nested-loop order — ascending
        (left row, right row) — so where the batch boundaries fall is
        unobservable downstream.

        **Forgotten-flag propagation.**  Every batch carries one flag
        per row; a union row keeps its input's flag, and a join row is
        flagged iff *either* contributing input row was — flags
        compose under batching exactly as they do materialized, so
        RF/MF/precision accounting is identical however the stream is
        chunked.

        **Epoch snapshot.**  All leaf scans run *eagerly, here* —
        fanned out on ``pool`` under the source locks (sharded leaves
        under one acquisition of their store's read gate) with access
        recorded at ``epoch`` — before the iterator is returned.  The
        stream therefore reflects one snapshot per *batch stream*, not
        per batch: inserts, forgetting or epoch advances that land
        while the consumer drains it are invisible until a new stream
        is opened.

        Peak memory above the leaves is bounded by the batch size (for
        a join: ``batch_size × build rows`` during pair discovery),
        never by the output size.

        >>> import numpy as np
        >>> from repro.storage import Catalog
        >>> cat = Catalog()
        >>> _ = cat.create_table("t", ["a"]).insert_batch(
        ...     0, {"a": [5, 6, 7]})
        >>> [(rows.shape, flags.tolist()) for rows, flags in
        ...  TableScanNode("t").batches(cat, epoch=0, batch_size=2)]
        [((2, 2), [False, False]), ((1, 2), [False])]
        """
        batch_size = _check_batch_size(batch_size)
        self.validate(catalog)
        payloads = _fan_out_leaves(
            self, catalog, epoch, pool, workers, record_access, stream=True
        )
        ctx = _StreamContext(payloads, batch_size)
        return _batched(self._stream(ctx), batch_size)

    def _stream(self, ctx: _StreamContext):
        """Yield ``(rows, forgotten)`` pieces in canonical order.

        Internal producer behind :meth:`batches`: pieces may be any
        size (consumers re-chunk via ``_batched``), must arrive in
        canonical order, and every implementation tallies its output
        into ``ctx.counts`` so streamed executions report the same
        per-node accounting the materializing path keeps.
        """
        raise NotImplementedError  # pragma: no cover - all nodes override

    @abstractmethod
    def output_columns(self) -> tuple[str, ...]:
        """Column names of this node's output stream."""

    @abstractmethod
    def estimate_rows(self, catalog) -> float:
        """Estimated oracle-output cardinality (for explain trees)."""

    @abstractmethod
    def estimate_cost(self, catalog) -> float:
        """Estimated rows considered to produce the output."""

    @abstractmethod
    def describe(self, catalog=None) -> str:
        """One-line node description (cost estimates when bound)."""

    def validate(self, catalog) -> None:
        """Structural checks before execution (duplicate node reuse)."""
        seen: set[int] = set()

        def walk(node: "PlanNode") -> None:
            if id(node) in seen:
                raise QueryError(
                    f"plan node {node.describe()} appears twice in the tree; "
                    "build a fresh node per use"
                )
            seen.add(id(node))
            for child in node.children:
                walk(child)

        walk(self)

    def __repr__(self) -> str:
        return self.describe()


def _bounds_suffix(low: int | None, high: int | None) -> str:
    if low is None:
        return ""
    return f" ∈ [{low}, {high})"


def check_scan_bounds(
    low, high
) -> tuple[int | None, int | None]:
    """Validate optional scan bounds: both-or-neither, not reversed.

    Shared by the leaf nodes here and
    :meth:`repro.partitioning.PartitionedAmnesiaDatabase.scan_chunks`,
    so every cross-table scan surface enforces one contract.
    """
    if (low is None) != (high is None):
        raise QueryError("supply both low and high, or neither")
    if low is not None and high < low:
        raise QueryError(f"range [{low}, {high}) is reversed")
    return (None if low is None else int(low), None if high is None else int(high))


def match_rows(
    planner, predicate, column: str, epoch: int, record_access: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Match, charge access and gather one leaf's rows in position order.

    Returns ``(values, insert_epochs, forgotten)`` aligned row by row:
    the active and missed sides merged into ascending positions — the
    row order a naive full scan produces.  One implementation serves
    both the plain-table leaf and the sharded store's per-shard
    streams, so the two can never drift.
    """
    table = planner.table
    if table.total_rows == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0, dtype=bool)
    active, missed, _ = planner.match(predicate, (column,))
    if record_access:
        table.record_access(active, epoch)
    positions = np.concatenate([active, missed])
    flags = np.zeros(positions.size, dtype=bool)
    flags[active.size:] = True
    order = np.argsort(positions, kind="stable")
    positions = positions[order]
    return (
        table.values(column)[positions],
        table.insert_epochs()[positions],
        flags[order],
    )


class _ScanNode(PlanNode):
    """Shared plumbing of the two leaf scans (plain and sharded)."""

    def __init__(self, source: str, low: int | None = None, high: int | None = None):
        self.source = source
        self.low, self.high = check_scan_bounds(low, high)
        self.children = ()

    def output_columns(self) -> tuple[str, ...]:
        return SCAN_COLUMNS

    def _predicate(self, column: str):
        if self.low is None:
            return TruePredicate()
        return RangePredicate(column, self.low, self.high)

    @abstractmethod
    def scan(self, catalog, epoch: int, record_access: bool) -> NodeResult:
        """Execute the leaf against the catalog."""

    def scan_payload(self, catalog, epoch: int, record_access: bool):
        """Scan for the streaming path (leaves may hand back chunks).

        Identical matching and access accounting to :meth:`scan`; the
        payload is whatever shape lets :meth:`_stream` re-chunk
        without an extra copy (the plain leaf's ``NodeResult``, the
        sharded leaf's per-shard chunk list).
        """
        return self.scan(catalog, epoch, record_access)

    def _stream(self, ctx: _StreamContext):
        result: NodeResult = ctx.payloads[id(self)]
        step = ctx.batch_size
        for start in range(0, result.oracle_count, step):
            rows = result.rows[start : start + step]
            flags = result.forgotten[start : start + step]
            ctx.tally(self, flags)
            yield rows, flags
        if result.oracle_count == 0:
            ctx.counts.setdefault(id(self), [0, 0])


class TableScanNode(_ScanNode):
    """Leaf: planner-routed scan of one catalog table.

    Parameters
    ----------
    source:
        Catalog table name.
    low, high:
        Optional ``[low, high)`` bounds on the table's value column;
        omitted means the full stream.  The table's planner picks the
        access path exactly as for a single-table query.

    The output has columns ``("value", "epoch")`` — the scanned column
    (the table's first column by default) normalised to the ``value``
    role, plus the insertion epoch — so streams from differently named
    sensor columns still union and join.
    """

    def __init__(
        self,
        source: str,
        low: int | None = None,
        high: int | None = None,
        column: str | None = None,
    ):
        super().__init__(source, low, high)
        self.column = column

    def _column(self, catalog) -> str:
        if self.column is not None:
            return self.column
        return catalog.get(self.source).column_names[0]

    def scan(self, catalog, epoch: int, record_access: bool) -> NodeResult:
        column = self._column(catalog)
        values, epochs, flags = match_rows(
            catalog.planner(self.source),
            self._predicate(column),
            column,
            epoch,
            record_access,
        )
        rows = np.column_stack([values, epochs]).astype(np.int64, copy=False)
        return NodeResult(SCAN_COLUMNS, rows, flags)

    def estimate_rows(self, catalog) -> float:
        planner = catalog.planner(self.source)
        column = self._column(catalog)
        if self.low is not None:
            estimate = planner.estimate(column, self.low, self.high)
            if estimate is not None:
                # Histogram-sharpened when the planner carries table
                # statistics; per-cohort uniformity otherwise.
                return estimate.est_rows
        return float(catalog.get(self.source).total_rows)

    def key_histogram(self, catalog, key: str):
        """Oracle-mass histogram of the ``value`` column, if tracked.

        Feeds the join's output-cardinality estimate; ``None`` when the
        scan has no histogram statistics (or the key is ``epoch``,
        which the statistics layer does not bin).
        """
        if key != "value":
            return None
        planner = catalog.planner(self.source)
        stats = planner.table_stats
        column = self._column(catalog)
        if stats is None or not stats.covers(column):
            return None
        active, forgotten = stats.histograms(column)
        if active is None:
            return None
        return _KeyDistribution(active, forgotten, self.low, self.high)

    def estimate_cost(self, catalog) -> float:
        planner = catalog.planner(self.source)
        column = self._column(catalog)
        plan = planner.plan(self._predicate(column))
        if plan.estimated_rows is not None:
            return plan.estimated_rows
        if plan.mode == "zonemap":
            return float(
                planner.zone_map.estimate(column, self.low, self.high).candidate_rows
            )
        return float(catalog.get(self.source).total_rows)

    def ordered_on(self, catalog, key: str) -> bool:
        """Ordered by ``value`` when a live sorted index covers the column.

        A :class:`~repro.indexes.SortedIndex` keeps the column in value
        order by construction, so this leaf can feed a merge join an
        already-ordered key stream — the sort-merge pricing signal.
        """
        if key != "value":
            return False
        planner = catalog.planner(self.source)
        return planner.ordered_index(self._column(catalog)) is not None

    def describe(self, catalog=None) -> str:
        est = ""
        if catalog is not None:
            plan = catalog.planner(self.source).plan(
                self._predicate(self._column(catalog))
            )
            est = (
                f" — plan={plan.mode}, ≈{self.estimate_rows(catalog):.0f} rows, "
                f"cost≈{self.estimate_cost(catalog):.0f}"
            )
        return (
            f"TableScan({self.source!r}{_bounds_suffix(self.low, self.high)}){est}"
        )


class ShardedScanNode(_ScanNode):
    """Leaf: planner-routed scan of a registered sharded store.

    ``source`` names a :class:`~repro.partitioning.
    PartitionedAmnesiaDatabase` attached via
    :meth:`repro.storage.Catalog.register_sharded`.  Each shard matches
    through its own planner (pruned shards answer from their declared
    bounds) and the outputs concatenate in shard order, so the stream
    is bit-identical at any worker count.

    Under concurrent ingest the scan is epoch-snapshot consistent: it
    enters the store's read gate, which admits readers only between
    batch applications, so the stream reflects a published ingest epoch
    — every flushed batch in full or not at all, never a torn middle.
    """

    def scan(self, catalog, epoch: int, record_access: bool) -> NodeResult:
        chunks = catalog.sharded(self.source).scan_chunks(
            self.low, self.high, record_access=record_access, epoch=epoch
        )
        values, epochs, flags = (np.concatenate(part) for part in zip(*chunks))
        rows = np.column_stack([values, epochs]).astype(np.int64, copy=False)
        if rows.size == 0:
            rows = _empty_rows(2)
        return NodeResult(SCAN_COLUMNS, rows, flags)

    def scan_payload(self, catalog, epoch: int, record_access: bool):
        """Per-shard chunk handoff for the streaming path.

        The store's :meth:`~repro.partitioning.
        PartitionedAmnesiaDatabase.scan_chunks` — identical matching
        and accounting to :meth:`scan`, but the per-shard outputs stay
        unconcatenated (all taken under one read-gate acquisition, so
        the stream is one epoch snapshot) and :meth:`_stream` re-chunks
        them to the batch size without ever building the full
        concatenated matrix.
        """
        return catalog.sharded(self.source).scan_chunks(
            self.low, self.high, record_access=record_access, epoch=epoch
        )

    def _stream(self, ctx: _StreamContext):
        payload = ctx.payloads[id(self)]
        ctx.counts.setdefault(id(self), [0, 0])
        step = ctx.batch_size
        for values, epochs, flags in payload:
            if values.size == 0:
                continue
            rows = np.column_stack([values, epochs]).astype(
                np.int64, copy=False
            )
            for start in range(0, rows.shape[0], step):
                piece_flags = flags[start : start + step]
                ctx.tally(self, piece_flags)
                yield rows[start : start + step], piece_flags

    def ordered_on(self, catalog, key: str) -> bool:
        """Ordered by ``value`` in shard bands.

        Shard boundaries partition the value domain and
        :meth:`scan_payload` hands chunks back in shard order, so the
        stream is banded by value — every row in shard *i* sorts below
        every row in shard *i+1*.  The merge path's within-band stable
        sort is near-linear on such input, which is what the pricing
        model credits.
        """
        return key == "value"

    def estimate_rows(self, catalog) -> float:
        return catalog.sharded(self.source).estimate_scan(self.low, self.high)

    def estimate_cost(self, catalog) -> float:
        return catalog.sharded(self.source).estimate_scan(
            self.low, self.high, cost=True
        )

    def describe(self, catalog=None) -> str:
        est = ""
        if catalog is not None:
            store = catalog.sharded(self.source)
            est = (
                f" — {store.partition_count} shard(s), "
                f"≈{self.estimate_rows(catalog):.0f} rows, "
                f"cost≈{self.estimate_cost(catalog):.0f}"
            )
        return (
            f"ShardedScan({self.source!r}"
            f"{_bounds_suffix(self.low, self.high)}){est}"
        )


class UnionNode(PlanNode):
    """UNION ALL: concatenate child streams in child order.

    Children must produce identically named columns (leaf scans all
    emit ``("value", "epoch")``, so per-sensor streams union
    naturally).  The result's ``inputs`` carry each child's own
    RF/MF/precision accounting, untouched by the concatenation.
    """

    def __init__(self, *children: PlanNode):
        if len(children) < 2:
            raise QueryError("union needs at least two inputs")
        columns = children[0].output_columns()
        for child in children[1:]:
            if child.output_columns() != columns:
                raise QueryError(
                    f"union inputs disagree on columns: {columns} vs "
                    f"{child.output_columns()}"
                )
        self.children = tuple(children)

    def output_columns(self) -> tuple[str, ...]:
        return self.children[0].output_columns()

    def combine(self, inputs: tuple[NodeResult, ...]) -> NodeResult:
        rows = np.concatenate([r.rows for r in inputs])
        forgotten = np.concatenate([r.forgotten for r in inputs])
        return NodeResult(self.output_columns(), rows, forgotten, inputs)

    def _stream(self, ctx: _StreamContext):
        ctx.counts.setdefault(id(self), [0, 0])
        for child in self.children:
            for rows, flags in child._stream(ctx):
                ctx.tally(self, flags)
                yield rows, flags

    def estimate_rows(self, catalog) -> float:
        return sum(child.estimate_rows(catalog) for child in self.children)

    def estimate_cost(self, catalog) -> float:
        return sum(child.estimate_cost(catalog) for child in self.children)

    def describe(self, catalog=None) -> str:
        est = ""
        if catalog is not None:
            est = (
                f" — ≈{self.estimate_rows(catalog):.0f} rows, "
                f"cost≈{self.estimate_cost(catalog):.0f}"
            )
        return f"Union({len(self.children)} inputs){est}"


#: A build side whose keys span at most ``DENSE_ROWS × rows +
#: DENSE_SLACK`` values gets a dense prefix-count table (at most
#: 8 B × (4·rows + 65)); wider keys are found by binary search.
DENSE_ROWS = 4
DENSE_SLACK = 64

#: Keys spanning fewer values than this sort as uint16 offsets, which
#: numpy radix-sorts.
NARROW_SPAN = 1 << 16


def _key_range(keys: np.ndarray) -> tuple[int, int]:
    """(lowest key, number of values the keys span) as Python ints, so
    a span across the whole int64 range cannot wrap."""
    low = int(keys.min())
    return low, int(keys.max()) - low + 1


def _stable_order(keys: np.ndarray, low: int, span: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")``, radix-sorted when it can be.

    ``low, span`` is the keys' :func:`_key_range`.  A stable sort's
    permutation is unique, so sorting the keys' uint16 offsets from
    their minimum gives the same order whenever the keys span fewer
    than :data:`NARROW_SPAN` values.
    """
    if span < NARROW_SPAN:
        return np.argsort((keys - low).astype(np.uint16), kind="stable")
    return np.argsort(keys, kind="stable")


class _Build:
    """A join's build side, indexed once by :func:`_sort_build`.

    ``order`` is the build rows' stable sort by key.  A dense build
    carries ``prefix``, ``span + 1`` counts of which ``prefix[k - low]``
    build keys lie below ``k``; a sparse one carries ``sorted_keys``
    for binary search instead.
    """

    __slots__ = ("order", "low", "high", "prefix", "sorted_keys")

    def __init__(self, order, low=0, high=0, prefix=None, sorted_keys=None):
        self.order = order
        self.low = low
        self.high = high
        self.prefix = prefix
        self.sorted_keys = sorted_keys

    def runs(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(start, length) of each key's run in :attr:`order`.

        The lengths are what ``searchsorted(sorted_keys, keys, "right")
        - searchsorted(sorted_keys, keys, "left")`` gives, and so are
        the starts of every key that has a run.
        """
        if self.prefix is None:
            lo = np.searchsorted(self.sorted_keys, keys, side="left")
            return lo, np.searchsorted(self.sorted_keys, keys, side="right") - lo
        # Clip before subtracting ``low`` so keys far outside the build
        # range cannot wrap; their lengths are zeroed below.
        at = np.clip(keys, self.low, self.high) - self.low
        lo = self.prefix[at]
        counts = self.prefix[at + 1] - lo
        counts[(keys < self.low) | (keys > self.high)] = 0
        return lo, counts


def _sort_build(keys: np.ndarray) -> _Build:
    """Index a join's build-side keys once, for every probe batch.

    Keys spanning at most ``DENSE_ROWS × rows + DENSE_SLACK`` values
    get a dense prefix-count table, so a probe finds a key's run in
    O(1); wider keys keep their sorted copy for binary search.  Both
    find the same runs, so the pairs are identical either way.
    """
    if keys.size == 0:
        return _Build(np.empty(0, dtype=np.intp), sorted_keys=keys)
    low, span = _key_range(keys)
    order = _stable_order(keys, low, span)
    if span > DENSE_ROWS * keys.size + DENSE_SLACK:
        return _Build(order, sorted_keys=keys[order])
    # The span check bounds every offset, so ``keys - low`` cannot wrap.
    prefix = np.zeros(span + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys - low, minlength=span), out=prefix[1:])
    return _Build(order, low, low + span - 1, prefix=prefix)


def _probe(
    probe_keys: np.ndarray, build: _Build
) -> tuple[np.ndarray, np.ndarray]:
    """Equi-join pairs ``(probe_idx, build_idx)`` in probe-major order.

    ``build`` comes from :func:`_sort_build`; each probe key reads its
    run off the dense table in O(1), or by binary search when the build
    keys are too sparse for one.  Probe indexes ascend, and within one
    probe row the build indexes ascend too (the stable sort keeps equal
    keys in original order), so the pairs arrive in lexicographic
    (probe row, build row) order with no sort of their own.
    """
    lo, counts = build.runs(probe_keys)
    probe_idx = np.repeat(np.arange(probe_keys.size, dtype=np.int64), counts)
    # Pair n of probe row i sits at order[lo[i] + n - first pair of i].
    shift = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return probe_idx, build.order[shift + np.arange(probe_idx.size, dtype=np.int64)]


class JoinNode(PlanNode):
    """Hash equi-join of two child streams on ``value`` or ``epoch``.

    The right child is the build side.  Its keys are indexed once per
    execution by :func:`_sort_build` — a stable key order plus a dense
    prefix-count table when the keys span at most ``DENSE_ROWS × rows +
    DENSE_SLACK`` values, a sorted copy for binary search otherwise —
    and :meth:`combine`, :meth:`_stream` and :meth:`_stream_merge` all
    read key runs off that one structure.  The left child probes it;
    output rows concatenate the left and right columns (prefixed
    ``l.`` / ``r.``) and come out in canonical nested-loop order —
    ascending (left row, right row) — by construction, so the result
    is bit-identical at any worker count and batch size.  An output row
    is forgotten iff either contributing input row was; RF counts only
    both-sides-active pairs, exactly what the amnesiac DBMS would
    return.

    Memory: the materializing path (:meth:`combine`) holds the full
    pair set; the streamed path (:meth:`PlanNode.batches`, streamed
    aggregates) probes in ``batch_size`` batches, so at most
    ``batch_size × build rows`` pairs exist at once.
    """

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        on: str = "value",
        *,
        left_on: str | None = None,
        right_on: str | None = None,
    ):
        self.left_on = on if left_on is None else left_on
        self.right_on = on if right_on is None else right_on
        for side, key in ((left, self.left_on), (right, self.right_on)):
            if key not in side.output_columns():
                raise QueryError(
                    f"join key {key!r} not in input columns "
                    f"{side.output_columns()}; choose one of "
                    f"{JOIN_KEYS} at the leaf level"
                )
        self.children = (left, right)
        self.on = on
        self._peak_pairs = 0
        self._peak_batch_bytes = 0
        self._last_strategy: str | None = None

    @property
    def peak_pairs(self) -> int:
        """Largest pair batch the last execution materialized at once.

        The materializing path discovers the entire pair set in one
        batch, so this equals the oracle output size; streamed
        executions (:meth:`PlanNode.batches`, aggregates) record their
        per-probe-batch peak — bounded by ``batch_size × build rows``
        instead of the output size — and sort-merge its full slab size,
        ``min(batch_size, pairs)``.
        Introspection only, written once per execution: concurrent
        ``Catalog.query`` callers sharing one node object see the most
        recently finished execution's value (results are unaffected).
        """
        return self._peak_pairs

    @property
    def peak_batch_bytes(self) -> int:
        """Approximate bytes of the largest pair batch last execution held.

        ``peak_pairs`` priced in memory: pairs × (8 bytes per int64
        output column + 1 flag byte).  Same write-once introspection
        contract as :attr:`peak_pairs`.
        """
        return self._peak_batch_bytes

    @property
    def last_strategy(self) -> str | None:
        """How the last execution ran this join (introspection only).

        ``"materialized-hash"`` for :func:`execute_plan`'s combine,
        ``"streamed-hash(batch=N)"`` for a batch-iterator run, or
        ``"sort-merge(batch=N)"`` when the cost model picked the merge
        path for a streamed aggregate.  ``None`` before any execution.
        """
        return self._last_strategy

    def _record_peak(self, peak: int, strategy: str) -> None:
        self._peak_pairs = peak  # single write; see peak_pairs
        self._peak_batch_bytes = peak * (8 * len(self.output_columns()) + 1)
        self._last_strategy = strategy

    def output_columns(self) -> tuple[str, ...]:
        left, right = self.children
        return tuple(
            [f"l.{name}" for name in left.output_columns()]
            + [f"r.{name}" for name in right.output_columns()]
        )

    def combine(self, inputs: tuple[NodeResult, ...]) -> NodeResult:
        left, right = inputs
        li, ri = _probe(
            left.column(self.left_on), _sort_build(right.column(self.right_on))
        )
        self._record_peak(int(li.size), "materialized-hash")
        rows = np.hstack([left.rows[li], right.rows[ri]])
        forgotten = left.forgotten[li] | right.forgotten[ri]
        return NodeResult(self.output_columns(), rows, forgotten, inputs)

    def _key_index(self, side: int) -> int:
        key = self.left_on if side == 0 else self.right_on
        return self.children[side].output_columns().index(key)

    def _stream(self, ctx: _StreamContext):
        """Canonical-order pair stream with a bounded working set.

        The same left probe as :meth:`combine`, batch by batch: the
        right child is drained and its keys indexed once (never per
        probe batch), and the left child probes in ``batch_size``
        batches, so at most ``batch_size × build rows`` pairs ever
        materialize at once — the full pair set never exists.  Probe
        indexes ascend across batches, so the stream stays in canonical
        (left row, right row) order with no global sort.
        """
        ctx.counts.setdefault(id(self), [0, 0])
        left, right = self.children
        rrows, rflags = _drain(right._stream(ctx))
        rkeys = (
            rrows[:, self._key_index(1)]
            if rrows.shape[0]
            else np.empty(0, dtype=np.int64)
        )
        build = _sort_build(rkeys)
        lkey_idx = self._key_index(0)
        peak = 0
        for lrows, lflags in _batched(left._stream(ctx), ctx.batch_size):
            li, ri = _probe(lrows[:, lkey_idx], build)
            peak = max(peak, int(li.size))
            if li.size == 0:
                continue
            rows = np.hstack([lrows[li], rrows[ri]])
            flags = lflags[li] | rflags[ri]
            ctx.tally(self, flags)
            yield rows, flags
        self._record_peak(peak, f"streamed-hash(batch={ctx.batch_size})")

    def _stream_merge(self, ctx: _StreamContext):
        """Sort-merge pair stream: key order, working set ≤ batch size.

        Both children drain and both key columns sort stably (radix-
        sorted when the keys span fewer than 2¹⁶ values).  The right
        side is indexed by :func:`_sort_build`, so one vectorized
        lookup finds, for every sorted left row, the run of its key
        among the sorted right rows, and a cumulative sum numbers the
        key-ordered, left-major pair space.
        That space is emitted in slabs of exactly ``batch_size`` pairs
        (the last may be short) that may span key groups, so Python
        iterations scale with pairs / batch rather than with the number
        of key groups, and even a single scorching-hot key never
        materializes its full pair block.
        Pairs arrive in *key* order (then left row, then right row),
        not the canonical (left row, right row) order, which is why
        only order-insensitive consumers — the streamed aggregates,
        whose :class:`~repro.stats.moments.ExactMoments` are batch-
        order-invariant — use it; row-returning paths stay on
        :meth:`_stream`.  RF/MF accounting is a row count, so it is
        identical either way.
        """
        ctx.counts.setdefault(id(self), [0, 0])
        left, right = self.children
        lrows, lflags = _drain(left._stream(ctx))
        rrows, rflags = _drain(right._stream(ctx))
        strategy = f"sort-merge(batch={ctx.batch_size})"
        if lrows.shape[0] == 0 or rrows.shape[0] == 0:
            self._record_peak(0, strategy)
            return
        lkeys = lrows[:, self._key_index(0)]
        lorder = _stable_order(lkeys, *_key_range(lkeys))
        build = _sort_build(rrows[:, self._key_index(1)])
        rorder = build.order
        # Each sorted left row meets the sorted right run [rlo, rlo +
        # width) of its key (width 0 when the key has no right run).
        # Numbering pairs left-row-major over the sorted left rows gives
        # key order, then left row, then right row — both sorts are
        # stable — and pair n of left row k sits at sorted right
        # position n + shift[k].
        rlo, width = build.runs(lkeys[lorder])
        ends = np.cumsum(width)
        shift = rlo - (ends - width)
        total = int(ends[-1])
        step = ctx.batch_size
        for lo in range(0, total, step):
            flat = np.arange(lo, min(lo + step, total), dtype=np.int64)
            k = np.searchsorted(ends, flat, side="right")
            li = lorder.take(k)
            ri = rorder.take(flat + shift.take(k))
            flags = lflags.take(li) | rflags.take(ri)
            ctx.tally(self, flags)
            # take/concatenate over fancy indexing/hstack: at small
            # batch sizes per-call overhead dominates each slab's work.
            yield (
                np.concatenate(
                    (lrows.take(li, axis=0), rrows.take(ri, axis=0)), axis=1
                ),
                flags,
            )
        self._record_peak(min(step, total), strategy)

    def join_strategy(self, catalog) -> str:
        """``"hash"`` or ``"merge"`` — the streamed-aggregate strategy.

        Priced in rows-considered, with the pair cardinality common to
        both sides coming from :meth:`estimate_rows` (per-bin
        :class:`~repro.stats.TableHistogramStats` masses when both
        leaves carry histograms).  The hash path pays a build over the
        smaller input; the merge path pays ``n·log₂n`` sort terms
        unless an input arrives ordered (sharded bands, sorted-index
        leaves), in which case its sort term drops out, so merge is
        picked when both inputs arrive ordered.  That is a price, not a
        measurement: ``_stream_merge`` still sorts both drained key
        columns itself, and on the ``streaming`` bench shape (2 × 500k
        ordered rows) the streamed-hash path, whose build side gets a
        dense table, runs faster than the merge picked over it.
        Strategy never changes results, only the work and working set.
        """
        import math

        left, right = self.children
        l_rows = max(left.estimate_rows(catalog), 1.0)
        r_rows = max(right.estimate_rows(catalog), 1.0)
        pairs = self.estimate_rows(catalog)
        hash_cost = l_rows + r_rows + 2.0 * min(l_rows, r_rows) + pairs
        sort_l = 0.0 if left.ordered_on(catalog, self.left_on) else (
            l_rows * math.log2(l_rows + 1.0)
        )
        sort_r = 0.0 if right.ordered_on(catalog, self.right_on) else (
            r_rows * math.log2(r_rows + 1.0)
        )
        merge_cost = sort_l + sort_r + l_rows + r_rows + pairs
        return "merge" if merge_cost < hash_cost else "hash"

    def estimate_rows(self, catalog) -> float:
        left, right = self.children
        left_keys = left.key_histogram(catalog, self.left_on)
        right_keys = right.key_histogram(catalog, self.right_on)
        if left_keys is not None and right_keys is not None:
            # Histogram cardinalities: expected pairs per key interval,
            # which survives skewed (many-to-many) keys.
            return _estimate_equijoin(left_keys, right_keys)
        # Key-uniqueness (FK-ish) assumption: the smaller side's keys
        # are mostly distinct, so the output is about as large as the
        # bigger input.  Crude, but honest enough for explain trees.
        return max(left.estimate_rows(catalog), right.estimate_rows(catalog))

    def estimate_cost(self, catalog) -> float:
        left, right = self.children
        build_probe = left.estimate_rows(catalog) + right.estimate_rows(catalog)
        return (
            left.estimate_cost(catalog)
            + right.estimate_cost(catalog)
            + build_probe
        )

    def describe(self, catalog=None) -> str:
        est = ""
        if catalog is not None:
            est = (
                f", strategy≈{self.join_strategy(catalog)}"
                f" — ≈{self.estimate_rows(catalog):.0f} rows, "
                f"cost≈{self.estimate_cost(catalog):.0f}"
            )
        keys = (
            f"on={self.on!r}"
            if self.left_on == self.right_on == self.on
            else f"on={self.left_on!r}={self.right_on!r}"
        )
        return f"Join({keys}{est})"


# -- aggregation above the stream ------------------------------------------


class _SummaryView:
    """Read-only rf/mf/precision facade over one summary-tuple node.

    Lets a :class:`StreamedAggregate` expose ``inputs`` with the same
    per-input accounting attributes a :class:`NodeResult` tree carries
    (``rf``/``mf``/``precision``/``inputs``) — without ever having
    materialized the rows those inputs produced.
    """

    __slots__ = ("_summary",)

    def __init__(self, summary: tuple):
        self._summary = summary

    @property
    def rf(self) -> int:
        return self._summary[0]

    @property
    def mf(self) -> int:
        return self._summary[1]

    @property
    def precision(self) -> float:
        return self._summary[2]

    @property
    def oracle_count(self) -> int:
        return self._summary[0] + self._summary[1]

    @property
    def inputs(self) -> tuple["_SummaryView", ...]:
        return tuple(_SummaryView(child) for child in self._summary[3])

    def __repr__(self) -> str:
        return (
            f"SummaryView(rf={self.rf}, mf={self.mf}, "
            f"precision={self.precision:.3f})"
        )


@dataclass(frozen=True)
class StreamedAggregate:
    """Result of a streamed aggregate: moments, no rows.

    ``active`` aggregates the amnesiac-visible values (what the
    forgetting DBMS would answer), ``missed`` the values on rows some
    contributing tuple had forgotten — both
    :class:`~repro.stats.moments.ExactMoments`, so COUNT/SUM/MEAN/
    VAR/MIN/MAX are bit-identical at any batch size or merge order.
    ``summary`` is the same nested ``(rf, mf, precision, children)``
    skeleton :func:`summarize_result` produces for materialized runs,
    and ``inputs`` exposes it with per-input accounting attributes —
    so reporting code written against :class:`NodeResult` keeps
    working.
    """

    on: str
    active: "ExactMoments" = field(repr=False)
    missed: "ExactMoments" = field(repr=False)
    summary: tuple = field(repr=False)
    strategy: str = "streamed"

    @property
    def oracle_count(self) -> int:
        """Rows the complete (never-forgetting) database aggregates."""
        return self.active.count + self.missed.count

    @property
    def rf(self) -> int:
        """R_F: rows the amnesiac database actually aggregates."""
        return self.active.count

    @property
    def mf(self) -> int:
        """M_F: rows lost because some contributing tuple was forgotten."""
        return self.missed.count

    @property
    def precision(self) -> float:
        """P_F = RF / (RF + MF); 1.0 when the oracle result is empty."""
        return 1.0 if self.oracle_count == 0 else self.rf / self.oracle_count

    @property
    def inputs(self) -> tuple[_SummaryView, ...]:
        """Per-input accounting views (the aggregate's child subtrees)."""
        return tuple(_SummaryView(child) for child in self.summary[3])

    def __repr__(self) -> str:
        return (
            f"StreamedAggregate(on={self.on!r}, rf={self.rf}, mf={self.mf}, "
            f"precision={self.precision:.3f}, strategy={self.strategy!r})"
        )


class AggregateNode(PlanNode):
    """Root-only aggregate over one child's batch stream.

    Consumes the child's batches into two
    :class:`~repro.stats.moments.ExactMoments` (active vs. missed
    values of ``on``) without materializing any rows.  Execution picks
    the streaming strategy per child shape:

    - union child: aggregation is **pushed below the union** — each
      input aggregates into its own partial, and the partials' exact
      integer sums merge;
    - join child: the cost model's :meth:`JoinNode.join_strategy`
      picks the streamed hash probe or the sort-merge path (safe here
      because moments are batch-order-invariant);
    - leaf child: the leaf's batch stream feeds the moments directly.

    ``on`` may be a bare leaf column (``value``/``epoch``); over a
    join it resolves to the leftmost prefixed match (``l.value``
    before ``r.value``).  Defaults to the child's first output column.
    """

    def __init__(self, child: PlanNode, on: str | None = None):
        columns = child.output_columns()
        if on is None:
            resolved = columns[0]
        elif on in columns:
            resolved = on
        else:
            matches = [c for c in columns if c.split(".")[-1] == on]
            if not matches:
                raise QueryError(
                    f"aggregate column {on!r} not in child columns {columns}"
                )
            resolved = matches[0]
        self.on = resolved
        self.children = (child,)

    def output_columns(self) -> tuple[str, ...]:
        return (self.on,)

    def validate(self, catalog) -> None:
        super().validate(catalog)

        def walk(n: PlanNode) -> None:
            for child in n.children:
                if isinstance(child, AggregateNode):
                    raise QueryError(
                        "aggregate nodes cannot nest; an aggregate must be "
                        "the plan root"
                    )
                walk(child)

        walk(self)

    def batches(self, *args, **kwargs):
        raise QueryError(
            "an aggregate produces a scalar summary, not row batches; "
            "execute it via Catalog.query / execute_plan"
        )

    def estimate_rows(self, catalog) -> float:
        return 1.0

    def estimate_cost(self, catalog) -> float:
        child = self.children[0]
        return child.estimate_cost(catalog) + child.estimate_rows(catalog)

    def execution_strategy(self, catalog, batch_size: int = 4096) -> str:
        """The streaming strategy execution will use (explain signal)."""
        batch = _check_batch_size(batch_size)
        return f"{self._strategy_name(catalog)}(batch={batch})"

    def _strategy_name(self, catalog) -> str:
        """Streaming strategy for the child's shape, priced once per call.

        Execution calls this exactly once and both labels and branches
        on the answer, so a pricing flip mid-execution (a concurrent
        insert or ``create_index``) cannot split label from path.
        """
        child = self.children[0]
        if isinstance(child, UnionNode):
            return "pushdown-union"
        if isinstance(child, JoinNode):
            how = child.join_strategy(catalog)
            return "sort-merge" if how == "merge" else "streamed-hash"
        return "streamed"

    def describe(self, catalog=None, batch_size: int = 4096) -> str:
        est = ""
        if catalog is not None:
            est = (
                f" — {self.execution_strategy(catalog, batch_size)}, "
                f"cost≈{self.estimate_cost(catalog):.0f}"
            )
        return f"Aggregate(on={self.on!r}){est}"


# -- execution engine ------------------------------------------------------


def _fan_out_leaves(
    node: PlanNode,
    catalog,
    epoch: int,
    pool,
    workers: int,
    record_access: bool,
    *,
    stream: bool = False,
) -> dict[int, object]:
    """Run every leaf scan of ``node``'s tree; map leaf id → payload.

    The shared leaf phase of the materializing and streaming paths:
    leaves are collected depth-first, their sources looked up front
    (an unknown name fails before any scan records access), grouped
    by source name — so two scans of one table execute sequentially
    in tree order, keeping access accounting race-free and identical
    to a sequential walk — and fanned out over ``pool``.  With
    ``stream=True`` each leaf hands back its
    :meth:`_ScanNode.scan_payload` (chunked, for re-batching without a
    full concatenation); otherwise its materialized :class:`NodeResult`.
    """
    leaves: list[_ScanNode] = []

    def collect(n: PlanNode) -> None:
        if isinstance(n, _ScanNode):
            leaves.append(n)
        for child in n.children:
            collect(child)

    collect(node)
    if not leaves:  # pragma: no cover - unreachable via public nodes
        raise QueryError("plan tree has no scan leaves")
    for leaf in leaves:
        if isinstance(leaf, ShardedScanNode):
            catalog.sharded(leaf.source)
        else:
            catalog.get(leaf.source)
    groups: dict[str, list[int]] = {}
    for i, leaf in enumerate(leaves):
        groups.setdefault(leaf.source, []).append(i)
    payloads: list[object] = [None] * len(leaves)

    def run_group(indexes: list[int]) -> None:
        for i in indexes:
            # The source lock serializes against *other* catalog
            # callers (another batch, another cross-table query); the
            # per-source grouping already serializes within this plan.
            with catalog.source_lock(leaves[i].source):
                payloads[i] = (
                    leaves[i].scan_payload(catalog, epoch, record_access)
                    if stream
                    else leaves[i].scan(catalog, epoch, record_access)
                )

    if pool is None:
        run_group(list(range(len(leaves))))
    else:
        pool.map_ordered(run_group, list(groups.values()), workers)
    return {id(leaf): payloads[i] for i, leaf in enumerate(leaves)}


def _execute_aggregate(
    node: AggregateNode,
    catalog,
    epoch: int,
    *,
    pool,
    workers: int,
    record_access: bool,
    batch_size: int,
) -> StreamedAggregate:
    """Streamed-aggregate engine: batches in, moments out, no rows kept."""
    # Lazy: plans is imported by core.config, whose grammar hook must
    # not drag the statistics layer into the import cycle.
    from ..stats.moments import ExactMoments

    batch = _check_batch_size(batch_size)
    child = node.children[0]
    name = node._strategy_name(catalog)
    payloads = _fan_out_leaves(
        node, catalog, epoch, pool, workers, record_access, stream=True
    )
    ctx = _StreamContext(payloads, batch)
    column = child.output_columns().index(node.on)
    active = ExactMoments()
    missed = ExactMoments()

    def consume(pieces, into_active, into_missed) -> None:
        for rows, flags in pieces:
            values = rows[:, column]
            into_active.update(values[~flags])
            into_missed.update(values[flags])

    if name == "pushdown-union":
        # Aggregation pushdown: each union input folds into its own
        # partial and the partials' exact integer sums merge, so the
        # union's concatenated stream never exists even transiently.
        ctx.counts.setdefault(id(child), [0, 0])
        for sub in child.children:
            part_active = ExactMoments()
            part_missed = ExactMoments()

            def tallied(pieces):
                for rows, flags in pieces:
                    ctx.tally(child, flags)
                    yield rows, flags

            consume(tallied(sub._stream(ctx)), part_active, part_missed)
            active.merge(part_active)
            missed.merge(part_missed)
    elif name == "sort-merge":
        # Key-order pair stream: safe because moments are batch-order-
        # invariant; row-returning paths never take this branch.
        consume(child._stream_merge(ctx), active, missed)
    else:
        consume(child._stream(ctx), active, missed)

    ctx.counts[id(node)] = [active.count + missed.count, missed.count]
    return StreamedAggregate(
        on=node.on,
        active=active,
        missed=missed,
        summary=_summarize_stream(node, ctx),
        strategy=f"{name}(batch={batch})",
    )


def execute_plan(
    node: PlanNode,
    catalog,
    epoch: int,
    *,
    pool=None,
    workers: int = 1,
    record_access: bool = True,
    batch_size: int = 4096,
) -> NodeResult | StreamedAggregate:
    """Execute a plan tree against ``catalog``; bit-identical at any width.

    All leaf scans run first, fanned out over ``pool`` — grouped by
    source name so two scans of the same table (or sharded store)
    execute sequentially in tree (depth-first, left-to-right) order,
    which keeps access accounting race-free and identical to a
    sequential walk.  Unions and joins then combine the precomputed
    leaf results bottom-up on the calling thread; every combine merges
    in child order, so completion order never leaks into results.

    An :class:`AggregateNode` root switches to the streaming engine:
    the child's batches fold into :class:`StreamedAggregate` moments
    without materializing any intermediate row set, with ``batch_size``
    bounding the working set (default 4096 rows).  For
    row-returning plans ``batch_size`` is ignored — they materialize.
    """
    node.validate(catalog)
    if isinstance(node, AggregateNode):
        return _execute_aggregate(
            node,
            catalog,
            epoch,
            pool=pool,
            workers=workers,
            record_access=record_access,
            batch_size=batch_size,
        )
    payloads = _fan_out_leaves(
        node, catalog, epoch, pool, workers, record_access, stream=False
    )

    def assemble(n: PlanNode) -> NodeResult:
        if isinstance(n, _ScanNode):
            return payloads[id(n)]
        return n.combine(tuple(assemble(child) for child in n.children))

    return assemble(node)


# -- tree rendering --------------------------------------------------------


def _render_tree(node: PlanNode, line_of) -> list[str]:
    lines = [line_of(node, None)]

    def walk(n: PlanNode, prefix: str) -> None:
        for i, child in enumerate(n.children):
            last = i == len(n.children) - 1
            branch, extend = ("└─ ", "   ") if last else ("├─ ", "│  ")
            lines.append(prefix + branch + line_of(child, n))
            walk(child, prefix + extend)

    walk(node, "")
    return lines


def _describe(node: PlanNode, catalog, batch_size: int) -> str:
    """``node.describe``, naming ``batch_size`` in an aggregate's strategy."""
    if isinstance(node, AggregateNode):
        return node.describe(catalog, batch_size)
    return node.describe(catalog)


def explain_plan(node: PlanNode, catalog, batch_size: int = 4096) -> str:
    """EXPLAIN the node tree: one line per node with cost estimates."""
    node.validate(catalog)
    return "\n".join(
        _render_tree(node, lambda n, _: _describe(n, catalog, batch_size))
    )


def summarize_result(result) -> tuple:
    """Compress a result tree to nested ``(rf, mf, precision, children)``.

    The report-friendly skeleton of a :class:`NodeResult`: callers
    (the catalog's ``plan_report``) can keep it around without pinning
    the materialized row matrices in memory.  A
    :class:`StreamedAggregate` already carries its skeleton (built
    from the stream's tallies) and hands it back directly.
    """
    if isinstance(result, StreamedAggregate):
        return result.summary
    return (
        result.rf,
        result.mf,
        result.precision,
        tuple(summarize_result(child) for child in result.inputs),
    )


def render_summary(
    node: PlanNode, summary: tuple, catalog=None, batch_size: int = 4096
) -> str:
    """Render a plan tree against a :func:`summarize_result` skeleton.

    Cost estimates come from the catalog's *current* statistics; a
    node whose source has since been dropped renders unbound (no
    estimates) instead of failing the report.  ``batch_size`` is the
    one the tree executed with, named in an aggregate's strategy.
    """
    summaries: dict[int, tuple] = {}

    def pair(n: PlanNode, s: tuple) -> None:
        summaries[id(n)] = s
        for child, child_summary in zip(n.children, s[3]):
            pair(child, child_summary)

    pair(node, summary)

    def line(n: PlanNode, _parent) -> str:
        try:
            described = _describe(n, catalog, batch_size)
        except ReproError:
            described = n.describe(None)
        rf, mf, precision, _ = summaries[id(n)]
        rendered = f"{described} => rf={rf} mf={mf} precision={precision:.3f}"
        # Every join in the tree reports its execution footprint — the
        # walk covers *nested* join trees, not just a join at the root.
        if isinstance(n, JoinNode) and n.last_strategy is not None:
            rendered += (
                f" [{n.last_strategy}: peak_pairs={n.peak_pairs}, "
                f"peak_batch_bytes={n.peak_batch_bytes}]"
            )
        return rendered

    return "\n".join(_render_tree(node, line))


# -- compact query specs ---------------------------------------------------


@dataclass(frozen=True)
class QuerySpec:
    """Parsed form of a compact cross-table query spec string."""

    kind: str
    tables: tuple[str, ...]
    on: str = "value"
    low: int | None = None
    high: int | None = None
    agg: str | None = None

    def render(self) -> str:
        """The canonical spec string this object parses back from."""
        options = []
        if self.kind == "join":
            options.append(f"on={self.on}")
        if self.low is not None:
            options.append(f"low={self.low}")
            options.append(f"high={self.high}")
        if self.agg is not None:
            options.append(f"agg={self.agg}")
        spec = f"{self.kind}:{','.join(self.tables)}"
        return spec + (f":{','.join(options)}" if options else "")


def parse_query_spec(spec: str) -> QuerySpec:
    """Parse ``union:...`` / ``join:...`` into a :class:`QuerySpec`.

    Grammar (catalog binding happens later, in :func:`build_plan`)::

        spec    := kind ":" table ("," table)+ [":" option ("," option)*]
        kind    := "union" | "join"
        option  := "on=" ("value" | "epoch") | "low=" int | "high=" int
                 | "agg=" column

    ``agg=`` (either kind) wraps the plan in an :class:`AggregateNode`
    over the named column, switching execution to the streaming engine
    (bare leaf names resolve — ``agg=value`` over a join aggregates
    ``l.value``); the run's batch size bounds its working set.

    >>> parse_query_spec("join:s1,s2:on=epoch,low=0,high=50")
    QuerySpec(kind='join', tables=('s1', 's2'), on='epoch', low=0, high=50, agg=None)
    >>> parse_query_spec("union:s1,s2:agg=value").render()
    'union:s1,s2:agg=value'
    """
    parts = [part.strip() for part in str(spec).split(":")]
    if len(parts) not in (2, 3):
        raise QueryError(
            f"bad query spec {spec!r}; expected kind:tables[:options]"
        )
    kind = parts[0]
    if kind not in ("union", "join"):
        raise QueryError(f"unknown query kind {kind!r}; use union or join")
    tables = tuple(name.strip() for name in parts[1].split(",") if name.strip())
    if len(tables) < 2:
        raise QueryError(f"{kind} spec needs at least two tables, got {tables}")
    options: dict[str, str] = {}
    if len(parts) == 3 and parts[2]:
        for item in parts[2].split(","):
            if "=" not in item:
                raise QueryError(f"bad option {item!r} in query spec {spec!r}")
            key, _, value = item.partition("=")
            options[key.strip()] = value.strip()
    unknown = set(options) - {"on", "low", "high", "agg"}
    if unknown:
        raise QueryError(f"unknown query spec options {sorted(unknown)}")
    agg = options.get("agg")
    if agg is not None and not agg:
        raise QueryError(f"agg= needs a column name in query spec {spec!r}")
    on = options.get("on", "value")
    if on not in JOIN_KEYS:
        raise QueryError(f"join key must be one of {JOIN_KEYS}, got {on!r}")
    if "on" in options and kind != "join":
        raise QueryError("on= only applies to join specs")
    low = high = None
    if ("low" in options) != ("high" in options):
        raise QueryError("query spec needs both low= and high=, or neither")
    if "low" in options:
        try:
            low, high = int(options["low"]), int(options["high"])
        except ValueError:
            raise QueryError(
                f"low/high must be integers in query spec {spec!r}"
            ) from None
        check_scan_bounds(low, high)  # reject reversed ranges up front
    return QuerySpec(
        kind=kind, tables=tables, on=on, low=low, high=high, agg=agg
    )


def build_plan(catalog, spec: QuerySpec | str) -> PlanNode:
    """Bind a spec to ``catalog``: scans per table, then union or join.

    Names resolve against plain tables first, then registered sharded
    stores.  A ``join`` of more than two inputs builds a left-deep
    chain (each join output keeps the ``value``/``epoch`` columns of
    its leftmost leaf under ``l.``-prefixes, so chained keys resolve
    against the fresh right scan).
    """
    if isinstance(spec, str):
        spec = parse_query_spec(spec)

    def leaf(name: str) -> _ScanNode:
        if name in catalog:
            return TableScanNode(name, spec.low, spec.high)
        if catalog.has_sharded(name):
            return ShardedScanNode(name, spec.low, spec.high)
        raise QueryError(
            f"query spec references unknown source {name!r}; catalog has "
            f"tables {catalog.names()} and sharded {catalog.sharded_names()}"
        )

    if spec.kind == "union":
        node: PlanNode = UnionNode(*(leaf(name) for name in spec.tables))
    else:
        node = JoinNode(leaf(spec.tables[0]), leaf(spec.tables[1]), on=spec.on)
        left_key = spec.on
        for name in spec.tables[2:]:
            # Left-deep chain: the previous join buried the leftmost
            # leaf's key under one more l.-prefix; the fresh right scan
            # keys bare.
            left_key = f"l.{left_key}"
            node = JoinNode(
                node,
                leaf(name),
                on=spec.on,
                left_on=left_key,
                right_on=spec.on,
            )
    if spec.agg is not None:
        node = AggregateNode(node, on=spec.agg)
    return node
