"""Histogram-backed table statistics: the planner's skew-aware layer.

The zone map's :meth:`~repro.storage.cohorts.CohortZoneMap.estimate`
assumes values are uniform within each cohort's ``[min, max]`` — the
classic System-R assumption, and exactly what Zipf-skewed streams
break: a cohort spanning the whole domain but holding 60% of its mass
in a handful of hot values makes uniformity misprice scans, misjudge
join output sizes and cut adaptive shard splits at value midpoints that
leave one side carrying almost all the traffic.

:class:`TableHistogramStats` maintains one pair of
:class:`~repro.stats.histograms.EquiWidthHistogram` per tracked column
— active mass and forgotten mass — incrementally through the
:class:`~repro.storage.table.TableObserver` protocol, exactly like the
zone map: values are *added* on insert and *moved* to the forgotten
histogram on forget.  When the value domain outgrows the current bin
range the histograms are rebuilt lazily from table state at the next
use (rebuilding is pure — it reads only the table's values and
activity bitmap — so estimates stay deterministic).

Everything downstream is estimate-only: the planner's ``cost`` mode,
the cross-table join's output estimate and the EXPLAIN trees
consume these numbers, but every access path still returns
bit-identical results (the equivalence harness proves it under
``--stats hist`` too).
"""

from __future__ import annotations

import numpy as np

from .._util.errors import StorageError
from .._util.validation import check_positive_int
from .histograms import EquiWidthHistogram

__all__ = [
    "STATS_BINS",
    "TableHistogramStats",
    "traffic_weighted_quantiles",
]

#: Default bin count for per-column statistics histograms.
STATS_BINS = 64


def traffic_weighted_quantiles(
    values: np.ndarray, weights: np.ndarray, fractions
) -> list[int]:
    """The values splitting ``weights`` at the given cumulative fractions.

    The equi-depth cut points of a weighted value distribution: for
    each fraction ``f`` in ``(0, 1)``, return the first value (in sorted
    order) whose cumulative weight reaches ``f`` times the total.  With
    unit weights ``[0.5]`` gives the plain median; with access-count
    weights it gives the *traffic-weighted* median the adaptive
    partitioner cuts hot shards at.  The multi-way adaptive split cuts a
    hot shard at ``[1/k, ..., (k-1)/k]`` in one adaptation window
    instead of converging one median at a time.  Fully deterministic —
    no sampling, no tie randomness — and, with access-count weights,
    built only from plan-mode-independent inputs.

    >>> traffic_weighted_quantiles(
    ...     np.array([1, 2, 3, 100]), np.ones(4), [0.25, 0.5, 0.75]
    ... )
    [1, 2, 3]
    >>> traffic_weighted_quantiles(
    ...     np.array([1, 2, 3]), np.array([9.0, 1.0, 1.0]), [0.5]
    ... )
    [1]
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        raise StorageError("cannot take quantiles of no values")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != values.shape or (weights < 0).any():
        raise StorageError("weights must be non-negative and match values")
    fractions = [float(f) for f in fractions]
    if not fractions or any(not 0.0 < f < 1.0 for f in fractions):
        raise StorageError(
            f"quantile fractions must lie strictly in (0, 1), got {fractions}"
        )
    order = np.argsort(values, kind="stable")
    cumulative = np.cumsum(weights[order])
    total = float(cumulative[-1])
    cuts = []
    for fraction in fractions:
        if total <= 0.0:
            # Zero traffic everywhere: fall back to positional
            # (unweighted) quantiles of the sorted values.
            idx = int(values.size * fraction)
        else:
            idx = int(np.searchsorted(cumulative, total * fraction))
        cuts.append(int(values[order[min(idx, values.size - 1)]]))
    return cuts


class TableHistogramStats:
    """Per-column active/forgotten value histograms over one table.

    A :class:`~repro.storage.table.TableObserver` (registered at
    construction, like :class:`~repro.storage.cohorts.CohortZoneMap`)
    that keeps, for every tracked column, an equi-width histogram of
    the *active* values and one of the *forgotten* values.  Insert adds
    to the active histogram; forget moves mass from active to
    forgotten — so :meth:`estimate` prices both sides of the
    amnesiac/oracle split without touching row data.

    Registration marks the statistics dirty instead of folding the
    backfill stream in directly (the backfill replays inserts of rows
    that are already forgotten); the first :meth:`estimate` — and any
    use after the domain outgrew the bin range — rebuilds from the
    table's current values and activity bitmap, after which the live
    insert/forget stream is folded in incrementally.

    >>> from repro.storage import Table
    >>> t = Table("obs", ["a"])
    >>> _ = t.insert_batch(0, {"a": [1, 1, 1, 9]})
    >>> stats = TableHistogramStats(t, bins=4)
    >>> t.forget(np.array([3]), epoch=1)
    1
    >>> stats.estimate("a", 0, 4)
    (3.0, 0.0)
    >>> stats.estimate("a", 7, 10)
    (0.0, 1.0)
    """

    def __init__(self, table, columns=None, bins: int = STATS_BINS):
        names = tuple(columns) if columns is not None else table.column_names
        if not names:
            raise StorageError("histogram statistics need at least one column")
        for name in names:
            table.values(name)  # validates existence
        self.table = table
        self.bins = check_positive_int(bins, "bins")
        self._active: dict[str, EquiWidthHistogram | None] = {
            name: None for name in names
        }
        self._forgotten: dict[str, EquiWidthHistogram | None] = {
            name: None for name in names
        }
        self._dirty = set(names)
        self._generation = 0
        table.add_observer(self)  # backfill arrives while still dirty

    # -- schema ---------------------------------------------------------

    @property
    def columns(self) -> tuple[str, ...]:
        """Columns these statistics track."""
        return tuple(self._active)

    def covers(self, column: str) -> bool:
        """True when ``column`` is tracked (a histogram may still be
        empty — estimates are simply 0 then)."""
        return column in self._active

    @property
    def generation(self) -> int:
        """Monotonic statistics generation: bumped on every observer event.

        The histogram twin of
        :attr:`~repro.storage.cohorts.CohortZoneMap.generation`: an
        unchanged generation guarantees the histograms (and every
        estimate read from them) are unchanged, which is what lets the
        serving layer's plan cache reuse a priced plan without
        re-estimating.
        """
        return self._generation

    # -- maintenance ----------------------------------------------------

    def _rebuild(self, column: str) -> None:
        """Recompute both histograms from the table's current state."""
        values = self.table.values(column)
        self._dirty.discard(column)
        if values.size == 0:
            self._active[column] = None
            self._forgotten[column] = None
            return
        lo, hi = int(values.min()), int(values.max())
        mask = self.table.active_mask()
        self._active[column] = EquiWidthHistogram.from_values(
            values[mask], lo, hi, bins=self.bins
        )
        self._forgotten[column] = EquiWidthHistogram.from_values(
            values[~mask], lo, hi, bins=self.bins
        )

    def _sync(self, column: str) -> None:
        if column in self._dirty:
            self._rebuild(column)

    def _fits(self, column: str, values: np.ndarray) -> bool:
        hist = self._active[column]
        return hist is not None and bool(
            values.min() >= hist.lo and values.max() <= hist.hi
        )

    # -- observer hooks -------------------------------------------------

    def on_insert(self, table, positions: np.ndarray) -> None:
        """Table hook: fold freshly inserted (active) values in."""
        self._generation += 1
        if positions.size == 0:
            return
        for column in self._active:
            if column in self._dirty:
                continue  # rebuilt from table state at next use
            values = table.values(column)[positions]
            if self._fits(column, values):
                self._active[column].add(values)
            else:
                self._dirty.add(column)  # domain grew; rebin lazily

    def on_forget(self, table, positions: np.ndarray) -> None:
        """Table hook: move newly forgotten values across."""
        self._generation += 1
        if positions.size == 0:
            return
        for column in self._active:
            if column in self._dirty:
                continue
            values = table.values(column)[positions]
            self._active[column].remove(values)
            self._forgotten[column].add(values)

    # -- estimation -----------------------------------------------------

    def histograms(
        self, column: str
    ) -> tuple[EquiWidthHistogram | None, EquiWidthHistogram | None]:
        """The (active, forgotten) histograms for ``column`` (live
        objects; ``(None, None)`` while the table is empty)."""
        if column not in self._active:
            raise StorageError(
                f"histogram statistics do not track column {column!r} "
                f"(tracked: {', '.join(self._active)})"
            )
        self._sync(column)
        return self._active[column], self._forgotten[column]

    def estimate(self, column: str, low: int, high: int) -> tuple[float, float]:
        """Estimated ``(active, forgotten)`` matches of ``[low, high)``."""
        active, forgotten = self.histograms(column)
        if active is None:
            return 0.0, 0.0
        return active.mass(low, high), forgotten.mass(low, high)

    def nbytes(self) -> int:
        """Approximate footprint of the histogram arrays."""
        total = 0
        for store in (self._active, self._forgotten):
            for hist in store.values():
                if hist is not None:
                    total += hist.counts.nbytes
        return total

    def __repr__(self) -> str:
        return (
            f"TableHistogramStats(columns={list(self._active)}, "
            f"bins={self.bins})"
        )
