"""Disposition-aware query execution with cost accounting.

Where :class:`repro.query.QueryExecutor` measures *information*
(amnesiac vs oracle), this executor measures *work*: how many tuples a
plan touches under a given forgotten-data disposition, and what it gets
back.  It powers experiment I1 — the scan-vs-index visibility asymmetry
of the stop-indexing disposition — and the summary-answered aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util.errors import LifecycleError
from ..indexes.base import Index
from ..query.queries import AggregateFunction
from ..stats.moments import ExactMoments
from ..storage.table import Table
from .dispositions import Disposition, SummaryDisposition

__all__ = ["PlanOutcome", "DispositionExecutor"]


@dataclass(frozen=True)
class PlanOutcome:
    """Result + cost of one plan execution.

    ``recall`` is measured against the oracle (every tuple ever
    inserted that matches), so a full scan under stop-indexing achieves
    recall 1.0 while an index plan reports the amnesiac recall.
    """

    plan: str
    positions: np.ndarray
    tuples_touched: int
    oracle_matches: int

    @property
    def returned(self) -> int:
        """Tuples the plan produced."""
        return int(self.positions.size)

    @property
    def recall(self) -> float:
        """returned / oracle_matches (1.0 when nothing matches at all)."""
        if self.oracle_matches == 0:
            return 1.0
        return self.returned / self.oracle_matches


class DispositionExecutor:
    """Runs range plans under a disposition's visibility rules.

    >>> import numpy as np
    >>> from repro.storage import Table
    >>> from repro.lifecycle import StopIndexingDisposition
    >>> t = Table("obs", ["a"])
    >>> d = StopIndexingDisposition()
    >>> t.add_observer(d)
    >>> _ = t.insert_batch(0, {"a": np.arange(100)})
    >>> t.forget(np.arange(50), epoch=1)
    50
    >>> ex = DispositionExecutor(t, d)
    >>> ex.range_scan("a", 0, 100).recall     # complete scan sees all
    1.0
    >>> ex.range_scan("a", 0, 100).tuples_touched
    100
    """

    def __init__(self, table: Table, disposition: Disposition, index: Index | None = None):
        self.table = table
        self.disposition = disposition
        self.index = index
        if index is not None and index.table is not table:
            raise LifecycleError("index was built over a different table")

    # -- plans -----------------------------------------------------------

    def _oracle_matches(self, column: str, low: int, high: int) -> int:
        values = self.table.values(column)
        return int(np.count_nonzero((values >= low) & (values < high)))

    def range_scan(self, column: str, low: int, high: int) -> PlanOutcome:
        """Complete scan: touches every tuple, sees the scan mask."""
        values = self.table.values(column)
        visible = self.disposition.scan_mask(self.table)
        mask = (values >= low) & (values < high) & visible
        return PlanOutcome(
            plan="scan",
            positions=np.flatnonzero(mask),
            tuples_touched=self.table.total_rows,
            oracle_matches=self._oracle_matches(column, low, high),
        )

    def range_via_index(self, column: str, low: int, high: int) -> PlanOutcome:
        """Index plan: touches only probed entries, sees the index mask."""
        if self.index is None:
            raise LifecycleError("no index attached to this executor")
        if self.index.column != column:
            raise LifecycleError(
                f"attached index covers {self.index.column!r}, not {column!r}"
            )
        probe = self.index.lookup_range(low, high)
        visible = self.disposition.index_mask(self.table)
        positions = probe.positions[visible[probe.positions]]
        return PlanOutcome(
            plan="index",
            positions=positions,
            tuples_touched=probe.entries_touched,
            oracle_matches=self._oracle_matches(column, low, high),
        )

    # -- summary-backed aggregates ---------------------------------------------

    def aggregate_with_summaries(
        self, function: AggregateFunction | str, column: str
    ) -> tuple[float | None, float | None]:
        """(amnesiac+summary answer, oracle answer) for a whole-table aggregate.

        Requires a :class:`SummaryDisposition`; the answer combines live
        tuples with the stored summaries of everything forgotten, and the
        oracle folds every tuple into the same exact moments.
        """
        if not isinstance(self.disposition, SummaryDisposition):
            raise LifecycleError(
                "summary-backed aggregates need a SummaryDisposition"
            )
        function = AggregateFunction(function)
        active_values = self.table.active_values(column)
        answer = self.disposition.store.combined_with_active(
            function, column, active_values
        )
        everything = ExactMoments.of(self.table.values(column))
        return answer, function.from_moments(everything)
