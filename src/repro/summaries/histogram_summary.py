"""Histogram summaries: approximate *range* answers over forgotten data.

Plain min/max/avg summaries (paper §1) can only serve whole-population
aggregates.  The related work goes further — "turning portions of the
database into summaries ... or replacing portions of the database by
micro-models" (§5).  The cheapest useful micro-model of a forgotten
batch is an equi-width histogram: a few dozen counters that let the
DBMS *estimate* how many forgotten tuples a range predicate would have
matched, under the standard uniform-within-bin assumption.

That estimate turns silent information loss into a quantified error
bar: a range query can report "RF tuples returned, ~MF̂ more were
forgotten in this range".
"""

from __future__ import annotations

import numpy as np

from .._util.errors import ConfigError, LifecycleError
from ..stats.histograms import EquiWidthHistogram

__all__ = ["HistogramSummaryStore"]

_INT64_BYTES = 8


class HistogramSummaryStore:
    """Per-forget-event histograms of one column's forgotten values.

    Parameters
    ----------
    lo, hi:
        Inclusive value domain covered by the histograms (values
        outside are clamped into edge bins, consistent with
        :class:`~repro.stats.histograms.EquiWidthHistogram`).
    bins:
        Bin count per event histogram — the accuracy/space dial.

    >>> store = HistogramSummaryStore(0, 99, bins=10)
    >>> store.add(epoch=1, values=np.arange(0, 50))
    >>> store.approx_range_count(0, 25)
    25.0
    """

    def __init__(self, lo: int, hi: int, bins: int = 32):
        if hi < lo:
            raise ConfigError(f"domain [{lo}, {hi}] is reversed")
        self.lo = int(lo)
        self.hi = int(hi)
        self.bins = int(bins)
        if self.bins < 1:
            raise ConfigError(f"bins must be >= 1, got {bins}")
        # One merged histogram is sufficient: counts are additive and
        # per-event splits would only matter for time-travel queries.
        self._histogram = EquiWidthHistogram(self.lo, self.hi, bins=self.bins)
        self._events = 0

    @property
    def event_count(self) -> int:
        """Forget events summarised."""
        return self._events

    @property
    def tuple_count(self) -> int:
        """Forgotten tuples represented."""
        return self._histogram.total

    @property
    def nbytes(self) -> int:
        """Footprint: one counter per bin plus the two domain bounds."""
        return (self.bins + 2) * _INT64_BYTES

    def add(self, epoch: int, values: np.ndarray) -> None:
        """Fold one forgotten batch into the summary."""
        values = np.asarray(values)
        if values.size == 0:
            raise LifecycleError("cannot summarise an empty forgotten batch")
        self._histogram.add(values)
        self._events += 1

    def approx_range_count(self, low: int, high: int) -> float:
        """Estimated forgotten tuples with ``low <= value < high``.

        Bins partially covered by the range contribute proportionally
        to the overlap (uniform-within-bin assumption).
        """
        return self._histogram.mass(low, high)

    def __repr__(self) -> str:
        return (
            f"HistogramSummaryStore(domain=[{self.lo}, {self.hi}], "
            f"bins={self.bins}, tuples={self.tuple_count})"
        )
