"""Query planning: per-query access-path selection.

The executor historically evaluated every predicate over the *complete*
value history — correct, but O(total rows) per query no matter how
selective the predicate.  :class:`QueryPlanner` chooses, per query, one
of three access paths that all produce **bit-identical** results (the
same active/missed position sets, in the same ascending order, hence
the same ``rf``/``mf``/precision and the same float aggregates):

``scan``
    No pruning structure applies, so every row ever inserted may
    match — kept for exact M_F accounting.  A planner configured as
    ``scan`` masks the whole column: the trust-nothing ground truth.
    In every other mode a single-column range or point predicate
    probes the column's :class:`~repro.query.value_order.ValueOrder`
    instead — positions sorted by value, built lazily at the first
    such read — so the read costs the matches plus an unsorted tail
    of at most a few thousand rows, not the history.  Composite
    predicates still mask the whole table.

``zonemap``
    Cohort-level pruning through a
    :class:`~repro.storage.cohorts.CohortZoneMap`: only cohorts whose
    per-cohort ``[min, max]`` intersects the predicate's bounds are
    scanned.  Both the amnesiac (active) and the oracle (forgotten)
    side come out of the same pruned scan, so M_F stays exact.

``index``
    A registered :class:`~repro.indexes.Index` supplies the *active*
    matches directly (indexes drop forgotten tuples — the paper's
    "stop indexing the forgotten data", §1).  The *missed* side — the
    forgotten matches the amnesiac DBMS silently loses — is read off
    the same value order the ``scan`` path probes: its hits the
    activity array marks forgotten.

``auto``
    Prefer ``index`` when a suitable index covers the predicate
    column, else ``zonemap`` when a zone map covers it, else ``scan``.

``cost``
    Cardinality-based selection: every applicable path is priced in
    rows-considered — the zone map's :meth:`~repro.storage.cohorts.
    CohortZoneMap.estimate` supplies pruned-scan costs and per-cohort
    selectivity estimates, each index prices its own probe via
    :meth:`~repro.indexes.Index.estimate_entries` — and the cheapest
    plan wins.  Unlike ``auto``'s fixed index>zonemap>scan preference,
    ``cost`` will scan past an index whose probe would touch more rows
    than a pruned scan (e.g. a coarse BRIN, or a sorted index dragging
    a large unmerged delta buffer).

A planner may also carry *value bounds* — declared invariants on the
values a column can hold, e.g. a range shard's partition bounds.  A
probe provably outside the bounds short-circuits to a ``pruned`` plan
that answers the query without touching any data, which is how shard
pruning becomes a planner decision rather than topology code around
it.  ``scan`` mode ignores value bounds on purpose: it stays the
trust-nothing ground truth the equivalence harness compares against.

A planner may also carry *histogram statistics*
(:class:`~repro.stats.table_stats.TableHistogramStats`): per-column
active/forgotten value histograms maintained through the same observer
protocol as the zone map.  When present, :meth:`QueryPlanner.estimate`
(and with it the ``cost`` mode and every explain tree) reads match
cardinalities from the histograms instead of the zone map's per-cohort
uniformity assumption — sharp on skewed streams, and estimate-only:
plan *results* stay bit-identical under either statistics source.

``AND``-composed predicates whose children all carry single-column
bounds are prunable too: same-column bounds intersect (an empty
intersection short-circuits to a ``pruned`` plan), a single surviving
column routes through the ordinary single-column paths, and a genuine
multi-column conjunction intersects the per-column zone-map candidate
ranges and scans only the intersection — instead of the historical
full-scan fallback.  Both zone-map paths (the single column and that
intersection) are one walk over candidate ranges that ANDs per-column
range masks, each read off a compressed block when the range is
demoted.  Composite predicates beyond that shape (``OR``, ``NOT``,
non-range children) and ``TruePredicate`` queries still fall back to
``scan`` regardless of the configured mode, and a forced mode degrades
gracefully down the same chain (``index`` → ``zonemap`` → ``scan``)
when its structure is missing — the planner never fails a query it can
answer, it only records *why* it picked a cheaper-or-safer path.

:meth:`QueryPlanner.plan_report` renders an ``EXPLAIN``-style summary
of every decision taken so far; :meth:`QueryPlanner.explain` previews
the plan for one query without executing it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util.errors import QueryError
from .._util.validation import check_in
from ..indexes.base import Index
from ..indexes.sorted_index import SortedIndex
from ..stats.table_stats import TableHistogramStats
from ..storage.cohorts import CohortZoneMap
from ..storage.compressed import CompressedCohortStore
from ..storage.table import Table
from .predicates import AndPredicate, PointPredicate, Predicate, RangePredicate
from .queries import AggregateQuery, RangeQuery
from .value_order import ValueOrder

__all__ = [
    "EXECUTED_MODES",
    "PLAN_MODES",
    "QueryPlan",
    "PlanExecution",
    "QueryPlanner",
    "table_planner",
]

#: Plan modes accepted by the planner, the config knob and the CLI.
PLAN_MODES = ("auto", "scan", "zonemap", "index", "cost")

#: Access paths a plan can execute (``pruned`` answers from statistics
#: alone and touches no data).
EXECUTED_MODES = ("scan", "zonemap", "index", "pruned")

@dataclass(frozen=True)
class QueryPlan:
    """One access-path decision (an EXPLAIN row).

    ``mode`` is the path actually executed; ``requested`` the planner's
    configured mode (they differ when a forced mode fell back).
    """

    mode: str
    requested: str
    reason: str
    column: str | None = None
    low: int | None = None
    high: int | None = None
    index: Index | None = None
    #: Cost-model prediction of rows the chosen path considers (only
    #: set by ``cost`` plans and ``pruned`` short-circuits).
    estimated_rows: float | None = None
    #: Per-column bounds of an AND-composed multi-column plan:
    #: ``((column, low, high), ...)``.  Execution intersects each
    #: column's zone-map candidate ranges and scans the intersection.
    and_bounds: tuple | None = None
    #: The intersected ``(start, stop)`` candidate ranges, when the
    #: planner already computed them to price the plan (``cost`` mode)
    #: — execution reuses them instead of intersecting twice.
    and_ranges: tuple | None = None

    def describe(self) -> str:
        """Human-readable one-line plan description."""
        target = ""
        if self.and_bounds is not None:
            target = " on " + " AND ".join(
                f"{column!r} [{low}, {high})"
                for column, low, high in self.and_bounds
            )
        elif self.column is not None:
            target = f" on {self.column!r} [{self.low}, {self.high})"
        via = f" via {type(self.index).__name__}" if self.index is not None else ""
        est = (
            f" (≈{self.estimated_rows:.0f} rows)"
            if self.estimated_rows is not None
            else ""
        )
        return f"{self.mode}{target}{via}{est} — {self.reason}"


@dataclass(frozen=True)
class PlanExecution:
    """A plan plus the work its execution actually did."""

    plan: QueryPlan
    rows_considered: int
    rows_pruned: int


def _range_bounds(predicate: Predicate) -> tuple[str, int, int] | None:
    """Extract single-column ``(column, low, high)`` bounds, if any."""
    if isinstance(predicate, RangePredicate):
        return predicate.column, predicate.low, predicate.high
    if isinstance(predicate, PointPredicate):
        return predicate.column, predicate.value, predicate.value + 1
    return None


def _and_bounds(predicate: Predicate) -> list[tuple[str, int, int]] | None:
    """Per-column bounds of a conjunction of range/point predicates.

    Same-column conjuncts intersect (``low`` rises, ``high`` drops — a
    resulting empty range proves the whole conjunction empty).  Returns
    ``None`` unless *every* child carries single-column bounds.
    """
    if not isinstance(predicate, AndPredicate):
        return None
    merged: dict[str, list[int]] = {}
    order: list[str] = []
    for child in predicate.children:
        bounds = _range_bounds(child)
        if bounds is None:
            return None
        column, low, high = bounds
        if column in merged:
            merged[column][0] = max(merged[column][0], low)
            merged[column][1] = min(merged[column][1], high)
        else:
            merged[column] = [low, high]
            order.append(column)
    return [(column, *merged[column]) for column in order]


def _intersect_ranges(
    a: list[tuple[int, int]], b: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Intersect two sorted, disjoint ``[start, stop)`` range lists."""
    out: list[tuple[int, int]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        stop = min(a[i][1], b[j][1])
        if start < stop:
            out.append((start, stop))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


class QueryPlanner:
    """Chooses and executes access paths over one table.

    Parameters
    ----------
    table:
        The table queries run against.
    mode:
        One of :data:`PLAN_MODES`; ``"auto"`` picks the cheapest
        applicable path per query.
    zone_map:
        Optional :class:`~repro.storage.cohorts.CohortZoneMap` already
        observing ``table``.
    indexes:
        Iterable of :class:`~repro.indexes.Index` instances over
        ``table`` to consider for index plans.
    value_bounds:
        Optional ``{column: (low, high)}`` invariants declared by the
        table's owner: every value in ``column`` is guaranteed to lie
        in ``[low, high)`` (either side may be ``None`` for unbounded).
        A range shard declares its partition bounds here, so probes
        outside them are answered as empty ``pruned`` plans without
        touching data.
    stats:
        Optional :class:`~repro.stats.table_stats.TableHistogramStats`
        already observing ``table``.  When it covers a probed column,
        :meth:`estimate` (and the ``cost`` mode behind it) reads match
        cardinalities from the value histograms instead of per-cohort
        uniformity — estimates sharpen, results stay bit-identical.
    compressed:
        Optional :class:`~repro.storage.compressed.
        CompressedCohortStore` holding demoted (cold) cohorts.  The
        zone-map paths (single-column and the AND intersection) answer
        demoted ranges from the compressed blocks — evaluating range
        predicates directly on dictionary codes / frame-of-reference
        offsets where the codec allows — and the ``cost`` mode prices a
        decode term so plans route around expensive decompression.
        ``scan`` plans ignore it by design: the trust-nothing baseline
        reads raw columns only, which is exactly what makes compressed
        execution checkable in the equivalence harness.
    """

    def __init__(
        self,
        table: Table,
        *,
        mode: str = "auto",
        zone_map: CohortZoneMap | None = None,
        indexes=(),
        value_bounds: dict | None = None,
        stats=None,
        compressed: CompressedCohortStore | None = None,
    ):
        self.table = table
        self.mode = check_in(mode, PLAN_MODES, "plan mode")
        if zone_map is not None and zone_map.table is not table:
            raise QueryError("zone map observes a different table")
        self.zone_map = zone_map
        if stats is not None and stats.table is not table:
            raise QueryError("histogram statistics observe a different table")
        self.table_stats = stats
        if compressed is not None and compressed.table is not table:
            raise QueryError("compressed store holds a different table")
        self.compressed = compressed
        #: Structural generation: bumped whenever the set of usable
        #: access paths changes (index registration, new value bounds).
        self._structures_generation = 0
        self._value_bounds: dict[str, tuple[int | None, int | None]] = {}
        for column, bounds in (value_bounds or {}).items():
            self.declare_value_bounds(column, *bounds)
        self._indexes: dict[str, list[Index]] = {}
        for index in indexes:
            self.register_index(index)
        #: Per-column value orders of the ``scan`` path and of index
        #: plans' missed side, built on first use (never in ``scan`` mode).
        self._orders: dict[str, ValueOrder] = {}
        self._executions = 0
        self._mode_counts = {mode_: 0 for mode_ in EXECUTED_MODES}
        self._rows_considered = 0
        self._rows_pruned = 0
        self._last: PlanExecution | None = None

    # -- registration ---------------------------------------------------

    def register_index(self, index: Index) -> Index:
        """Make ``index`` available to index plans; returns it."""
        if index.table is not self.table:
            raise QueryError(
                f"index on {index.column!r} was built over a different table"
            )
        siblings = self._indexes.setdefault(index.column, [])
        if index not in siblings:
            siblings.append(index)
            self._structures_generation += 1
        return index

    def ordered_index(self, column: str) -> Index | None:
        """A live value-ordered index on ``column``, or ``None``.

        Sort-merge eligibility probe for the cross-table layer: a
        :class:`~repro.indexes.sorted_index.SortedIndex` keeps the
        column's positions in value order by construction, so a leaf
        over this table can hand the join an already-ordered key
        stream — the condition under which the streaming cost model
        prices a merge join below a hash join.
        """
        for index in self._indexes.get(column, ()):
            if isinstance(index, SortedIndex) and not index.is_dropped:
                return index
        return None

    def declare_value_bounds(
        self, column: str, low: int | None, high: int | None
    ) -> None:
        """Declare that every value in ``column`` lies in ``[low, high)``.

        The caller vouches for the invariant (e.g. a partitioned store
        that routes inserts by these very bounds); the planner uses it
        to answer provably-empty probes without touching the table.
        """
        self.table.values(column)  # validates existence
        low = None if low is None else int(low)
        high = None if high is None else int(high)
        if low is not None and high is not None and high <= low:
            raise QueryError(f"value bounds [{low}, {high}) are empty")
        if self._value_bounds.get(column) != (low, high):
            self._structures_generation += 1
        self._value_bounds[column] = (low, high)

    @property
    def value_bounds(self) -> dict[str, tuple[int | None, int | None]]:
        """Declared per-column value invariants (a copy)."""
        return dict(self._value_bounds)

    @property
    def generation(self) -> tuple:
        """Plan-validity token: equal generations guarantee equal plans.

        Combines the planner's structural generation (index
        registrations, value-bound declarations) with the data
        generation of whichever statistics source prices plans in the
        configured mode.  Two :meth:`plan` calls for the same predicate
        under an unchanged generation return equal plans, which is the
        contract the serving layer's plan cache keys on.  ``scan`` mode
        plans are data-independent, so only the structural part varies.
        """
        if self.mode == "scan":
            data: tuple = (0, 0)
        elif self.zone_map is not None:
            data = (
                self.zone_map.generation,
                self.table_stats.generation
                if self.table_stats is not None
                else -1,
            )
        else:
            # No zone map: plans still depend on table shape through
            # cost pricing (forgotten_count, total_rows).
            data = (self.table.total_rows, self.table.forgotten_count)
        if self.compressed is not None and self.mode != "scan":
            # Demotions change the decode term the cost model prices,
            # so cached plans must be invalidated like on an index
            # registration.
            data = (*data, self.compressed.generation)
        return (self._structures_generation, *data)

    # -- planning -------------------------------------------------------

    def _usable_index(self, column: str) -> Index | None:
        """The first live (not dropped) index registered on ``column``."""
        for index in self._indexes.get(column, ()):
            if not index.is_dropped:
                return index
        return None

    def _prune_by_bounds(
        self, column: str, low: int, high: int
    ) -> QueryPlan | None:
        """A ``pruned`` plan when declared bounds exclude ``[low, high)``."""
        declared = self._value_bounds.get(column)
        if declared is None:
            return None
        vlow, vhigh = declared
        if (vhigh is not None and low >= vhigh) or (
            vlow is not None and high <= vlow
        ):
            shown = f"[{'-inf' if vlow is None else vlow}, " \
                    f"{'+inf' if vhigh is None else vhigh})"
            return QueryPlan(
                "pruned",
                self.mode,
                f"declared value bounds {shown} exclude the range",
                column,
                low,
                high,
                None,
                0.0,
            )
        return None

    def estimate(self, column: str, low: int, high: int):
        """Cardinality estimate for a probe of ``[low, high)``.

        Pruned-scan costs come from the zone map (exact); the match
        counts come from the histogram statistics when they cover the
        column, else from per-cohort uniformity.  ``None`` when no zone
        map covers the column — the caller has no statistics to price
        with.
        """
        if self.zone_map is not None and self.zone_map.covers(column):
            surcharge = None
            if self.compressed is not None:
                surcharge = self.compressed.decode_surcharge(column)
            return self.zone_map.estimate(
                column, low, high, stats=self.table_stats, surcharge=surcharge
            )
        return None

    def _plan_cost(
        self, column: str, low: int, high: int
    ) -> QueryPlan:
        """Price every applicable path in rows-considered; cheapest wins."""
        total = self.table.total_rows
        estimate = self.estimate(column, low, high)
        # Candidates in auto's preference order, so exact cost ties
        # resolve the same way auto would.
        choices: list[tuple[float, str, Index | None, str]] = []
        for index in self._indexes.get(column, ()):
            if index.is_dropped:
                continue
            probe = index.estimate_entries(low, high)
            if probe is None:
                probe = estimate.est_active if estimate is not None else total
            # The missed (M_F) side reads the value order: the matches
            # plus the unsorted tail the probe masks.
            missed = (
                estimate.est_rows + self._order(column).tail_rows
                if estimate is not None
                else total
            )
            cost = float(probe) + missed
            choices.append(
                (cost, "index", index, f"{type(index).__name__}≈{cost:.0f}")
            )
        if estimate is not None:
            zonemap_cost = (
                float(estimate.candidate_rows) + estimate.decode_rows
            )
            zonemap_detail = f"zonemap={estimate.candidate_rows}"
            if zonemap_cost > estimate.candidate_rows:
                zonemap_detail = (
                    f"zonemap={estimate.candidate_rows}+decode"
                    f"{zonemap_cost - estimate.candidate_rows:.0f}"
                )
            choices.append(
                (zonemap_cost, "zonemap", None, zonemap_detail)
            )
        choices.append((float(total), "scan", None, f"scan={total}"))
        cost, mode, index, _ = min(choices, key=lambda choice: choice[0])
        detail = ", ".join(choice[3] for choice in choices)
        return QueryPlan(
            mode,
            "cost",
            f"cost model picked {mode} ({detail} rows)",
            column,
            low,
            high,
            index,
            cost,
        )

    def plan(self, predicate: Predicate) -> QueryPlan:
        """Decide the access path for ``predicate`` (no execution)."""
        requested = self.mode
        if requested == "scan":
            return QueryPlan("scan", requested, "scan mode configured")
        bounds = _range_bounds(predicate)
        if bounds is not None:
            return self._plan_bounds(*bounds)
        merged = _and_bounds(predicate)
        if merged is not None:
            return self._plan_and(merged)
        return QueryPlan(
            "scan",
            requested,
            f"{type(predicate).__name__} has no single-column bounds",
        )

    def _plan_and(self, merged: list[tuple[str, int, int]]) -> QueryPlan:
        """Plan an AND of per-column bounds (post same-column merging)."""
        requested = self.mode
        for column, low, high in merged:
            if high <= low:
                return QueryPlan(
                    "pruned",
                    requested,
                    f"AND bounds on {column!r} intersect to the empty range",
                    column,
                    low,
                    high,
                    None,
                    0.0,
                )
            pruned = self._prune_by_bounds(column, low, high)
            if pruned is not None:
                return pruned
        if len(merged) == 1:
            # The conjunction collapsed to one column: every ordinary
            # single-column path (index probes included) applies.
            return self._plan_bounds(*merged[0])
        if self.zone_map is not None and all(
            self.zone_map.covers(column) for column, _, _ in merged
        ):
            and_bounds = tuple(merged)
            estimated = None
            ranges = None
            reason = "AND-composed: scan the intersected per-column candidates"
            if requested == "cost":
                ranges = tuple(self._and_ranges(and_bounds))
                rows = sum(stop - start for start, stop in ranges)
                estimated = float(rows)
                reason = (
                    f"cost model picked zonemap (intersected={rows}, "
                    f"scan={self.table.total_rows} rows)"
                )
            return QueryPlan(
                "zonemap",
                requested,
                reason,
                None,
                None,
                None,
                None,
                estimated,
                and_bounds,
                ranges,
            )
        return QueryPlan(
            "scan",
            requested,
            "multi-column AND: no zone map covers every column; fell back",
        )

    def _plan_bounds(self, column: str, low: int, high: int) -> QueryPlan:
        """Plan a single-column probe of ``[low, high)``."""
        requested = self.mode
        pruned = self._prune_by_bounds(column, low, high)
        if pruned is not None:
            return pruned
        if requested == "cost":
            return self._plan_cost(column, low, high)
        if requested in ("auto", "index"):
            index = self._usable_index(column)
            if index is not None:
                why = f"{type(index).__name__} covers {column!r}"
                return QueryPlan("index", requested, why, column, low, high, index)
        if self.zone_map is not None and self.zone_map.covers(column):
            reason = (
                "zone map covers the predicate column"
                if requested in ("auto", "zonemap")
                else "no usable index; fell back to zone map"
            )
            return QueryPlan("zonemap", requested, reason, column, low, high)
        reason = (
            "no auxiliary structure covers the predicate column"
            if requested == "auto"
            else f"{requested} mode has no structure for {column!r}; fell back"
        )
        return QueryPlan("scan", requested, reason, column, low, high)

    def explain(self, query_or_predicate) -> QueryPlan:
        """EXPLAIN one query (or bare predicate) without running it."""
        if isinstance(query_or_predicate, RangeQuery):
            predicate = query_or_predicate.predicate
        elif isinstance(query_or_predicate, AggregateQuery):
            predicate = query_or_predicate.effective_predicate()
        elif isinstance(query_or_predicate, Predicate):
            predicate = query_or_predicate
        else:
            raise QueryError(
                f"cannot explain {type(query_or_predicate).__name__}"
            )
        return self.plan(predicate)

    # -- execution ------------------------------------------------------

    def match(
        self,
        predicate: Predicate,
        columns: tuple[str, ...],
        plan: QueryPlan | None = None,
    ) -> tuple[np.ndarray, np.ndarray, PlanExecution]:
        """Split matches of ``predicate`` into (active, missed) positions.

        Every path returns ascending int64 position arrays identical to
        what a full scan produces, so callers' precision and access
        accounting are plan-independent.  A caller holding a still-valid
        plan for ``predicate`` (same :attr:`generation` — the serving
        layer's plan cache) may pass it to skip re-planning.
        """
        if plan is None:
            plan = self.plan(predicate)
        if plan.mode == "pruned":
            empty = np.empty(0, dtype=np.int64)
            active, missed, considered = empty, empty.copy(), 0
        elif plan.mode == "zonemap":
            bounds = plan.and_bounds or ((plan.column, plan.low, plan.high),)
            ranges = (
                plan.and_ranges
                if plan.and_ranges is not None
                else self._and_ranges(bounds)
            )
            active, missed, considered = self._match_ranges(ranges, bounds)
        elif plan.mode == "index":
            active, missed, considered = self._match_index(plan)
        else:
            active, missed, considered = self._match_scan(predicate, columns)
        execution = PlanExecution(
            plan=plan,
            rows_considered=considered,
            rows_pruned=max(self.table.total_rows - considered, 0),
        )
        self._record(execution)
        return active, missed, execution

    def _match_scan(
        self, predicate: Predicate, columns: tuple[str, ...]
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Split every match of ``predicate``, unpruned, by activity.

        Outside ``scan`` mode a single-column range or point predicate
        reads the column's value order: the entries between its cuts
        plus the unsorted tail.  Anything else (and everything in
        ``scan`` mode) masks the whole table.  Either way the hits come
        out ascending and split by the activity array read now, so the
        result is the full mask scan's, bit for bit.
        """
        bounds = _range_bounds(predicate) if self.mode != "scan" else None
        if bounds is not None:
            column, low, high = bounds
            hits, considered = self._order(column).probe(low, high)
        else:
            values = {name: self.table.values(name) for name in columns}
            hits = np.flatnonzero(predicate.mask(values))
            considered = self.table.total_rows
        live = self.table.active_mask()[hits]
        return hits[live], hits[~live], considered

    def _order(self, column: str) -> ValueOrder:
        """The value order of ``column``, made on first use."""
        order = self._orders.get(column)
        if order is None:
            order = self._orders.setdefault(column, ValueOrder(self.table, column))
        return order

    def _window_range_mask(
        self,
        column: str,
        start: int,
        stop: int,
        low: int,
        high: int,
        values: np.ndarray,
    ) -> np.ndarray:
        """Mask of ``low <= value < high`` over positions ``[start, stop)``.

        Answered from the compressed store when the range is a demoted
        cohort — the predicate runs directly on dictionary codes /
        frame-of-reference offsets, bit-identical to the raw window by
        the codecs' lossless contract — else from the raw column.
        """
        if self.compressed is not None:
            found = self.compressed.block_at(start, stop, column)
            if found is not None:
                return self.compressed.range_mask(found[0], column, low, high)
        window = values[start:stop]
        return (window >= low) & (window < high)

    def _and_ranges(self, and_bounds: tuple) -> list[tuple[int, int]]:
        """Intersected zone-map candidate ranges of per-column bounds.

        Each column's candidate list is a superset of the rows matching
        that column's bounds, so the intersection is a superset of the
        conjunction's matches — pruning is safe, results stay exact.
        """
        ranges: list[tuple[int, int]] | None = None
        for column, low, high in and_bounds:
            candidates = self.zone_map.candidate_ranges(column, low, high)
            ranges = (
                candidates
                if ranges is None
                else _intersect_ranges(ranges, candidates)
            )
            if not ranges:
                break
        return ranges or []

    def _match_ranges(
        self, ranges, bounds: tuple
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Split the rows of ``ranges`` matching every ``bounds`` conjunct.

        ``bounds`` holds same-column-merged ``(column, low, high)``
        triples, so ANDing the per-column range masks is exactly the
        predicate's mask — and each column's mask can come off its
        compressed block.  Returns (active, missed, rows considered).
        """
        values = {column: self.table.values(column) for column, _, _ in bounds}
        active_mask = self.table.active_mask()
        active_chunks: list[np.ndarray] = []
        missed_chunks: list[np.ndarray] = []
        considered = 0
        for start, stop in ranges:
            considered += stop - start
            mask = None
            for column, low, high in bounds:
                column_mask = self._window_range_mask(
                    column, start, stop, low, high, values[column]
                )
                mask = column_mask if mask is None else mask & column_mask
            if not mask.any():
                continue
            active_window = active_mask[start:stop]
            hits = np.flatnonzero(mask & active_window)
            if hits.size:
                active_chunks.append(hits + start)
            hits = np.flatnonzero(mask & ~active_window)
            if hits.size:
                missed_chunks.append(hits + start)
        return _concat(active_chunks), _concat(missed_chunks), considered

    def _match_index(
        self, plan: QueryPlan
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Active side from the index; the exact M_F side from the
        column's value order, its hits the activity array marks
        forgotten."""
        probe = plan.index.lookup_range(plan.low, plan.high)
        active = np.sort(probe.positions.astype(np.int64, copy=False))
        hits, read = self._order(plan.column).probe(plan.low, plan.high)
        missed = hits[~self.table.active_mask()[hits]]
        return active, missed, probe.entries_touched + read

    # -- accounting -----------------------------------------------------

    def _record(self, execution: PlanExecution) -> None:
        self._executions += 1
        self._mode_counts[execution.plan.mode] += 1
        self._rows_considered += execution.rows_considered
        self._rows_pruned += execution.rows_pruned
        self._last = execution

    @property
    def last_execution(self) -> PlanExecution | None:
        """The most recently executed plan, if any."""
        return self._last

    def stats(self) -> dict:
        """Counters for dashboards and tests."""
        total = self._rows_considered + self._rows_pruned
        return {
            "mode": self.mode,
            "queries_planned": self._executions,
            "paths": dict(self._mode_counts),
            "rows_considered": self._rows_considered,
            "rows_pruned": self._rows_pruned,
            "pruned_fraction": (self._rows_pruned / total) if total else 0.0,
            "indexes": {
                column: [type(i).__name__ for i in indexes]
                for column, indexes in self._indexes.items()
            },
            "zone_map_cohorts": (
                self.zone_map.cohort_count if self.zone_map is not None else 0
            ),
            "compressed": (
                None if self.compressed is None else self.compressed.stats()
            ),
            "histogram_stats": (
                None
                if self.table_stats is None
                else {
                    "columns": list(self.table_stats.columns),
                    "bins": self.table_stats.bins,
                }
            ),
            "value_bounds": dict(self._value_bounds),
        }

    def plan_report(self) -> str:
        """EXPLAIN-style multi-line report of planning activity."""
        stats = self.stats()
        lines = [
            f"QueryPlanner(mode={self.mode!r}) — "
            f"{stats['queries_planned']} queries planned"
        ]
        structures = []
        if self.zone_map is not None:
            structures.append(
                f"zone map over {len(self.zone_map.columns)} column(s), "
                f"{stats['zone_map_cohorts']} cohorts"
            )
        if self.table_stats is not None:
            structures.append(
                f"histograms over {len(self.table_stats.columns)} column(s), "
                f"{self.table_stats.bins} bins"
            )
        if self.compressed is not None:
            report = self.compressed.byte_report()
            structures.append(
                f"compressed store: {report['demoted_cohorts']} demoted "
                f"cohorts, {report['compressed_nbytes']:,} B "
                f"({report['ratio']:.2f}x of raw)"
            )
        for column, kinds in stats["indexes"].items():
            structures.append(f"{'+'.join(kinds)} on {column!r}")
        for column, (vlow, vhigh) in stats["value_bounds"].items():
            structures.append(
                f"value bounds on {column!r}: "
                f"[{'-inf' if vlow is None else vlow}, "
                f"{'+inf' if vhigh is None else vhigh})"
            )
        lines.append(
            "  structures: " + ("; ".join(structures) if structures else "none")
        )
        paths = stats["paths"]
        lines.append(
            "  access paths: "
            + ", ".join(
                f"{mode}={paths[mode]}"
                for mode in ("index", "zonemap", "scan", "pruned")
            )
        )
        lines.append(
            f"  rows considered {stats['rows_considered']:,} / "
            f"pruned {stats['rows_pruned']:,} "
            f"({stats['pruned_fraction']:.1%} pruned)"
        )
        if self._last is not None:
            lines.append(f"  last plan: {self._last.plan.describe()}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"QueryPlanner(mode={self.mode!r}, "
            f"indexes={sorted(self._indexes)}, "
            f"zone_map={'yes' if self.zone_map is not None else 'no'})"
        )


def table_planner(
    table: Table,
    mode: str,
    *,
    stats: str,
    compress: str = "off",
    value_bounds: dict | None = None,
) -> QueryPlanner:
    """A planner over ``table`` with the structures ``mode`` uses.

    Every mode but ``scan`` attaches a zone map, plus histogram
    statistics under ``stats="hist"`` and a compressed store under
    ``compress="on"``.  ``scan`` attaches none of them: the
    trust-nothing baseline reads raw columns and consults no
    estimates, which is what makes every other path checkable
    against it.
    """
    pruned = mode != "scan"
    return QueryPlanner(
        table,
        mode=mode,
        zone_map=CohortZoneMap(table) if pruned else None,
        value_bounds=value_bounds,
        stats=TableHistogramStats(table) if pruned and stats == "hist" else None,
        compressed=(
            CompressedCohortStore(table) if pruned and compress == "on" else None
        ),
    )


def _concat(chunks: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
