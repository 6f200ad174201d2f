"""Query execution against the amnesiac and oracle views.

The executor answers queries through a :class:`~repro.query.planner.
QueryPlanner`, which picks an access path per query (full scan,
zone-map-pruned scan, or index probe — see :mod:`repro.query.planner`).
Whatever the path, the result is split by the activity bitmap exactly
as a complete-history scan would split it:

* active matches  → what the amnesiac DBMS answers (R_F);
* forgotten matches → what it silently misses (M_F).

It also performs access accounting: tuples appearing in a result get
their access frequency bumped, which is the signal the rot and overuse
policies learn from (§3.2).  Because every plan returns the identical
active position set, policy-visible state evolves the same regardless
of the plan choice.
"""

from __future__ import annotations

import numpy as np

from .._util.errors import QueryError
from ..stats.moments import ExactMoments
from ..storage.table import Table
from .planner import QueryPlanner
from .queries import (
    AggregateQuery,
    AggregateResult,
    RangeQuery,
    RangeResult,
)

__all__ = ["QueryExecutor"]


class QueryExecutor:
    """Evaluates queries on a :class:`~repro.storage.Table`.

    Parameters
    ----------
    table:
        The table to query.
    record_access:
        When True (default), active tuples contributing to a result have
        their access frequency incremented — required by query-based
        amnesia.  Disable for read-only analysis passes that must not
        perturb policy state.
    planner:
        Access-path chooser.  ``None`` (the default) builds a
        scan-only :class:`~repro.query.planner.QueryPlanner`, which
        reproduces the historical full-oracle-scan behaviour exactly.

    >>> import numpy as np
    >>> from repro.storage import Table
    >>> from repro.query import RangeQuery, RangePredicate
    >>> t = Table("obs", ["a"])
    >>> _ = t.insert_batch(0, {"a": [1, 5, 9]})
    >>> t.forget(np.array([1]), epoch=1)
    1
    >>> r = QueryExecutor(t).execute_range(RangeQuery(RangePredicate("a", 0, 10)), epoch=1)
    >>> (r.rf, r.mf, r.precision)
    (2, 1, 0.6666666666666666)
    """

    def __init__(
        self,
        table: Table,
        *,
        record_access: bool = True,
        planner: QueryPlanner | None = None,
    ):
        self.table = table
        self.record_access = record_access
        if planner is None:
            planner = QueryPlanner(table, mode="scan")
        elif planner.table is not table:
            raise QueryError("planner was built over a different table")
        self.planner = planner

    # -- internals -------------------------------------------------------

    def _require_rows(self) -> None:
        if self.table.total_rows == 0:
            raise QueryError(f"table {self.table.name!r} is empty")

    def plan_report(self) -> str:
        """EXPLAIN-style report of the planner's activity so far."""
        return self.planner.plan_report()

    # -- matching ---------------------------------------------------------

    def match(
        self, query, epoch: int, *, plan=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Split ``query``'s matches into (active, missed) positions.

        The one match step of every predicate read: validation,
        planner-routed matching and access accounting live here once,
        so the range, aggregate, moments and served paths cannot drift
        — the equivalence suite's "policy-visible state cannot tell the
        paths apart" invariant hangs on that.  ``plan`` forwards a
        still-valid cached plan to :meth:`~repro.query.planner.
        QueryPlanner.match` (see the planner's ``generation``
        contract); ``None`` plans per query.
        """
        if isinstance(query, RangeQuery):
            if not query.columns:
                raise QueryError("range query predicate references no column")
            predicate = query.predicate
        elif isinstance(query, AggregateQuery):
            if not self.table.has_column(query.column):
                raise QueryError(
                    f"aggregate column {query.column!r} not in table "
                    f"{self.table.name!r}"
                )
            predicate = query.effective_predicate()
        else:
            raise QueryError(f"unsupported query type {type(query).__name__}")
        self._require_rows()
        active, missed, _ = self.planner.match(
            predicate, query.columns, plan=plan
        )
        if self.record_access:
            self.table.record_access(active, epoch)
        return active, missed

    # -- range queries ------------------------------------------------------

    def execute_range(
        self, query: RangeQuery, epoch: int, *, plan=None
    ) -> RangeResult:
        """Run a range query; returns both views' match sets."""
        active, missed = self.match(query, epoch, plan=plan)
        return RangeResult(
            query=query, active_positions=active, missed_positions=missed
        )

    # -- aggregate queries -----------------------------------------------------

    def aggregate(
        self, query: AggregateQuery, active: np.ndarray, missed: np.ndarray
    ) -> AggregateResult:
        """Amnesiac and oracle values of ``query`` over matched positions,
        finalized from exact moments like every other aggregate path."""
        column_values = self.table.values(query.column)
        amnesiac = ExactMoments.of(column_values[active])
        oracle = ExactMoments.of(column_values[missed])
        oracle.merge(amnesiac)  # the oracle also sees the active rows
        return AggregateResult(
            query=query,
            amnesiac_value=query.function.from_moments(amnesiac),
            oracle_value=query.function.from_moments(oracle),
            active_matches=int(active.size),
            oracle_matches=int(active.size + missed.size),
        )

    def execute_aggregate(
        self, query: AggregateQuery, epoch: int, *, plan=None
    ) -> AggregateResult:
        """Run an aggregate; computes amnesiac and oracle values."""
        active, missed = self.match(query, epoch, plan=plan)
        return self.aggregate(query, active, missed)

    def execute_moments(
        self, query: AggregateQuery, epoch: int
    ) -> tuple[ExactMoments, ExactMoments]:
        """Run an aggregate, returning (active, missed) moment bundles.

        The mergeable form of :meth:`execute_aggregate`: instead of
        finalized values it returns one
        :class:`~repro.stats.ExactMoments` per view side — integer
        sufficient statistics whose merges are bit-identical under any
        grouping or order — which a sharded store merges across shards
        before finalizing, the only way AVG/VAR/STD stay exact under
        partitioning.  Matching and access accounting go through
        :meth:`match`, like every other read.
        """
        active, missed = self.match(query, epoch)
        column_values = self.table.values(query.column)
        return (
            ExactMoments.of(column_values[active]),
            ExactMoments.of(column_values[missed]),
        )

    # -- generic dispatch -------------------------------------------------------

    def execute(self, query, epoch: int, *, plan=None):
        """Dispatch on query type (convenience for mixed batches)."""
        if isinstance(query, RangeQuery):
            return self.execute_range(query, epoch, plan=plan)
        if isinstance(query, AggregateQuery):
            return self.execute_aggregate(query, epoch, plan=plan)
        raise QueryError(f"unsupported query type {type(query).__name__}")
