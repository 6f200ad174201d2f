"""Aggregate summaries of forgotten data.

The paper's fourth disposition option (§1): "keep a summary, i.e., a
few aggregated values (min, max, avg) of all the forgotten data.  This
will reduce the storage drastically but the DBMS will only be able to
answer specific aggregation queries without making available any other
details."

A :class:`ForgottenSummary` keeps, per forgetting event and column, one
:class:`~repro.stats.ExactMoments`: count, min, max and the exact
integer sums Σx and Σx².  From those the :class:`SummaryStore` answers
whole-table COUNT, SUM, AVG, MIN, MAX, VAR and STD over *forgotten +
active* data exactly, and bit-identically however the forgotten values
were split into events; experiment I1 compares them with mark-only
forgetting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util.errors import LifecycleError
from ..query.queries import AggregateFunction
from ..stats.moments import ExactMoments

__all__ = ["ForgottenSummary", "SummaryStore"]

_INT64_BYTES = 8
#: Stored statistics per column (count, Σx, Σx², min, max).
_STATS_PER_COLUMN = 5


@dataclass(frozen=True)
class ForgottenSummary:
    """Exact moments of all columns for one forgetting event."""

    epoch: int
    tuple_count: int
    columns: dict[str, ExactMoments]

    @property
    def nbytes(self) -> int:
        """Storage footprint of the summary itself (tiny, by design)."""
        return len(self.columns) * _STATS_PER_COLUMN * _INT64_BYTES


class SummaryStore:
    """Accumulates per-event summaries and answers aggregate queries.

    >>> import numpy as np
    >>> store = SummaryStore()
    >>> _ = store.add(epoch=1, values_by_column={"a": np.array([1, 3])})
    >>> _ = store.add(epoch=2, values_by_column={"a": np.array([5])})
    >>> store.combined("a").count
    3
    >>> store.combined("a").mean
    3.0
    """

    def __init__(self) -> None:
        self._events: list[ForgottenSummary] = []

    def add(self, epoch: int, values_by_column: dict[str, np.ndarray]) -> ForgottenSummary:
        """Summarise one forgotten batch and retain the summary."""
        if not values_by_column:
            raise LifecycleError("summary event needs at least one column")
        columns = {
            name: ExactMoments.of(values)
            for name, values in values_by_column.items()
        }
        counts = {m.count for m in columns.values()}
        if len(counts) != 1:
            raise LifecycleError("summary columns must cover the same tuples")
        tuple_count = counts.pop()
        if tuple_count == 0:
            raise LifecycleError("cannot summarise an empty value array")
        event = ForgottenSummary(
            epoch=int(epoch), tuple_count=tuple_count, columns=columns
        )
        self._events.append(event)
        return event

    @property
    def event_count(self) -> int:
        """Number of forgetting events summarised."""
        return len(self._events)

    @property
    def tuple_count(self) -> int:
        """Total tuples covered by all summaries."""
        return sum(e.tuple_count for e in self._events)

    @property
    def nbytes(self) -> int:
        """Total storage of all summaries."""
        return sum(e.nbytes for e in self._events)

    def events(self) -> list[ForgottenSummary]:
        """All summaries, oldest first."""
        return list(self._events)

    def _merged(self, column: str) -> ExactMoments:
        """A fresh accumulator over every event's moments for ``column``."""
        merged = ExactMoments()
        for event in self._events:
            if column in event.columns:
                merged.merge(event.columns[column])
        return merged

    def combined(self, column: str) -> ExactMoments:
        """Merge every event's moments for ``column`` (stored ones stay put)."""
        merged = self._merged(column)
        if merged.count == 0:
            raise LifecycleError(f"no summaries recorded for column {column!r}")
        return merged

    # -- query answering -------------------------------------------------

    def answer(self, function: AggregateFunction, column: str) -> float:
        """Whole-population aggregate over all *forgotten* tuples."""
        return function.from_moments(self.combined(column))

    def combined_with_active(
        self,
        function: AggregateFunction,
        column: str,
        active_values: np.ndarray,
    ) -> float | None:
        """Aggregate over active ∪ forgotten using summaries for the latter.

        Every operator combines exactly: the live values fold into the
        same exact integer sums as the forgotten ones.  This is what
        lets a summary-keeping amnesiac database answer §4.3's
        ``SELECT AVG(a) FROM t`` with zero error despite forgetting.
        """
        merged = self._merged(column)
        merged.update(active_values)
        return function.from_moments(merged)
