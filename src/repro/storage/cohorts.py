"""Cohort (update-batch) bookkeeping and cohort-level statistics.

The paper's amnesia maps (Figures 1 and 2) plot, per update batch, the
fraction of that batch's tuples still active after a run.  To draw them
we must remember which contiguous range of row positions each epoch
inserted.  Rows are appended strictly in epoch order, so a cohort is a
half-open interval ``[start, stop)`` of positions.

Epoch 0 is the initial load; epochs ``1..n`` are update batches.

The log also keeps each cohort's active-row count.
:class:`CohortZoneMap` layers per-cohort min/max values on top of it.
It subscribes to the table's insert events, so the bounds stay exact
without the table knowing about them — the query planner uses them and
the log's counts to skip cohorts a range predicate cannot touch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util.errors import StorageError

__all__ = ["CardinalityEstimate", "Cohort", "CohortLog", "CohortZoneMap"]

_INT64_MAX = np.iinfo(np.int64).max
_INT64_MIN = np.iinfo(np.int64).min
_EPOCH, _START, _STOP, _ACTIVE = range(4)


@dataclass(frozen=True)
class Cohort:
    """One insertion batch: ``epoch`` inserted positions ``[start, stop)``."""

    epoch: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        """Number of tuples inserted in this cohort."""
        return self.stop - self.start

    def positions(self) -> np.ndarray:
        """Row positions belonging to this cohort, ascending."""
        return np.arange(self.start, self.stop, dtype=np.int64)

    def __contains__(self, position: int) -> bool:
        return self.start <= int(position) < self.stop


class CohortLog:
    """Append-only log of insertion cohorts and their active-row counts.

    Maintains the invariant that cohorts are contiguous, non-overlapping
    and in strictly increasing epoch order — i.e. they tile ``[0,
    total_rows)`` exactly.  A cohort starts fully active; the table
    counts forgotten rows out through :meth:`forget`.

    >>> log = CohortLog()
    >>> _ = log.record(epoch=0, start=0, stop=1000)
    >>> _ = log.record(epoch=1, start=1000, stop=1200)
    >>> log.index_of(np.array([0, 999, 1000])).tolist()
    [0, 0, 1]
    >>> log.forget(np.array([3, 1000, 1001]))
    >>> log.active_counts().tolist()
    [999, 198]
    """

    __slots__ = ("_count", "_ledger")

    def __init__(self) -> None:
        self._count = 0
        #: Rows ``_EPOCH``, ``_START``, ``_STOP``, ``_ACTIVE``; one
        #: column per cohort, capacity doubling as the log grows.
        self._ledger = np.zeros((4, 16), dtype=np.int64)

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        spans = self._ledger[:_ACTIVE, : self._count].T.tolist()
        return (Cohort(*span) for span in spans)

    def __getitem__(self, index: int) -> Cohort:
        index = range(self._count)[index]  # IndexError, negatives as a list
        return Cohort(*self._ledger[:_ACTIVE, index].tolist())

    @property
    def total_rows(self) -> int:
        """Total number of rows covered by all cohorts."""
        return int(self._ledger[_STOP, self._count - 1]) if self._count else 0

    @property
    def latest_epoch(self) -> int:
        """Epoch of the most recent cohort (-1 when empty)."""
        return int(self._ledger[_EPOCH, self._count - 1]) if self._count else -1

    def record(self, epoch: int, start: int, stop: int) -> Cohort:
        """Record a new cohort, enforcing contiguity and epoch order."""
        if stop < start:
            raise StorageError(f"cohort range [{start}, {stop}) is reversed")
        expected_start = self.total_rows
        if start != expected_start:
            raise StorageError(
                f"cohort must start at {expected_start}, got {start}"
            )
        if self._count and epoch <= self.latest_epoch:
            raise StorageError(
                f"cohort epochs must increase: {epoch} after {self.latest_epoch}"
            )
        n = self._count
        if n == self._ledger.shape[1]:
            self._ledger = np.hstack([self._ledger, np.zeros_like(self._ledger)])
        self._ledger[:, n] = (epoch, start, stop, stop - start)
        self._count = n + 1
        return self[n]

    def forget(self, positions: np.ndarray) -> None:
        """Count still-active ``positions`` (each once) out of their
        cohorts' active counts."""
        n = self._count
        self._ledger[_ACTIVE, :n] -= np.bincount(self.index_of(positions), minlength=n)

    def _row(self, row: int) -> np.ndarray:
        out = self._ledger[row, : self._count]
        out.flags.writeable = False
        return out

    def starts(self) -> np.ndarray:
        """Read-only per-cohort first position."""
        return self._row(_START)

    def stops(self) -> np.ndarray:
        """Read-only per-cohort end position (exclusive)."""
        return self._row(_STOP)

    def active_counts(self) -> np.ndarray:
        """Read-only per-cohort count of still-active rows."""
        return self._row(_ACTIVE)

    def count_through(self, epoch: int) -> int:
        """How many cohorts were inserted at or before ``epoch``."""
        return int(np.searchsorted(self._row(_EPOCH), epoch, side="right"))

    def index_of(self, positions: np.ndarray) -> np.ndarray:
        """Map row positions to cohort ordinals (0-based log indices).

        Vectorised via binary search over cohort start offsets.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == 0:
            return np.empty(0, dtype=np.int64)
        total = self.total_rows
        if positions.min() < 0 or positions.max() >= total:
            raise IndexError(f"positions out of range [0, {total}) in index_of")
        return np.searchsorted(self.starts(), positions, side="right") - 1

    def epochs(self) -> list[int]:
        """All recorded epochs, in order."""
        return self._row(_EPOCH).tolist()


@dataclass(frozen=True)
class CardinalityEstimate:
    """Zone-map-derived cardinality estimate for one range probe.

    ``candidate_rows`` is the *exact* cost of a pruned scan (rows in
    intersecting cohorts); the ``est_*`` match counts assume values are
    uniform within each cohort's ``[min, max]`` — the classic System-R
    uniformity assumption applied per cohort instead of per table.
    ``decode_rows`` is the compressed store's extra rows-equivalent for
    the same candidates (0 without one).  The planner prices an index
    plan's missed side off ``est_rows``: it reads the value order, not
    the candidates.
    """

    #: Rows a zone-map-pruned scan must consider (exact).
    candidate_rows: int
    #: Estimated active (amnesiac-visible) matches.
    est_active: float
    #: Estimated forgotten matches (the M_F side).
    est_forgotten: float
    #: Decode surcharge of the ``candidate_rows`` cohorts.
    decode_rows: float = 0.0

    @property
    def est_rows(self) -> float:
        """Estimated oracle-result cardinality (active + forgotten)."""
        return self.est_active + self.est_forgotten


class CohortZoneMap:
    """Per-cohort zone-map statistics: min/max value and active count.

    A :class:`~repro.storage.table.TableObserver` that maintains, for
    each tracked column and each insertion cohort, the minimum and
    maximum value ever inserted; the exact active counts are the
    table's :class:`CohortLog`'s.  The query planner prunes cohorts
    whose ``[min, max]`` cannot intersect a range predicate, and the
    active/forgotten counts weigh its match estimates.

    Min/max are *insert-time* bounds: forgetting never widens a zone,
    so the bounds stay safe (possibly loose) without any rewriting —
    the same conservative contract a BRIN keeps between vacuums.

    Registration backfills existing history (see
    :meth:`~repro.storage.table.Table.add_observer`), so a zone map
    attached to a table that already holds rows has exact bounds at
    once, and a repeated backfill leaves them as they are.

    >>> from repro.storage import Table
    >>> t = Table("obs", ["a"])
    >>> _ = t.insert_batch(0, {"a": [5, 7, 9]})
    >>> _ = t.insert_batch(1, {"a": [100, 110]})
    >>> zm = CohortZoneMap(t)
    >>> zm.candidate_ranges("a", 0, 50)
    [(0, 3)]
    >>> t.forget(np.array([3, 4]), epoch=2)
    2
    >>> zm.candidate_ranges("a", 100, 200)  # zones outlive forgetting
    [(3, 5)]
    """

    def __init__(self, table, columns=None):
        names = tuple(columns) if columns is not None else table.column_names
        if not names:
            raise StorageError("zone map needs at least one column")
        for name in names:
            table.values(name)  # validates existence
        self.table = table
        #: Per-column zones for the first ``_count`` cohorts; capacity
        #: doubles as cohorts arrive, unused slots hold empty zones.
        self._count = 0
        self._mins = {name: np.full(16, _INT64_MAX, dtype=np.int64) for name in names}
        self._maxs = {name: np.full(16, _INT64_MIN, dtype=np.int64) for name in names}
        self._generation = 0
        table.add_observer(self)  # backfill replays existing history

    # -- schema ---------------------------------------------------------

    @property
    def columns(self) -> tuple[str, ...]:
        """Columns this zone map tracks."""
        return tuple(self._mins)

    def covers(self, column: str) -> bool:
        """True when ``column`` is tracked by this zone map."""
        return column in self._mins

    @property
    def cohort_count(self) -> int:
        """Cohorts currently mapped."""
        return len(self.table.cohorts)

    @property
    def generation(self) -> int:
        """Monotonic statistics generation: bumped on every observer event.

        Two reads of the zone map separated by an unchanged generation
        are guaranteed to see identical statistics (no insert or forget
        reached the table in between) — the staleness guard the serving
        layer's plan cache keys on: a cached plan is valid exactly as
        long as the generation it was priced under still stands.
        """
        return self._generation

    # -- observer hooks -------------------------------------------------

    def _sync(self) -> None:
        """Map newly recorded cohorts to empty zones, doubling capacity."""
        count = len(self.table.cohorts)
        capacity = next(iter(self._mins.values())).size
        if count > capacity:
            capacity = max(2 * capacity, count)
            for zones, empty in ((self._mins, _INT64_MAX), (self._maxs, _INT64_MIN)):
                for name, old in zones.items():
                    grown = np.full(capacity, empty, dtype=np.int64)
                    grown[: old.size] = old
                    zones[name] = grown
        self._count = count

    def _zones(self, column: str) -> tuple[np.ndarray, np.ndarray]:
        """``(mins, maxs)`` views over the mapped cohorts of ``column``."""
        self._sync()
        try:
            return self._mins[column][: self._count], self._maxs[column][: self._count]
        except KeyError:
            raise StorageError(
                f"zone map does not track column {column!r} "
                f"(tracked: {', '.join(self._mins)})"
            ) from None

    def on_insert(self, table, positions: np.ndarray) -> None:
        """Table hook: fold new rows into their cohorts' zones."""
        self._generation += 1
        self._sync()
        if positions.size == 0:
            return
        idx = table.cohorts.index_of(positions)
        for name in self._mins:
            values = table.values(name)[positions]
            np.minimum.at(self._mins[name], idx, values)
            np.maximum.at(self._maxs[name], idx, values)

    def on_forget(self, table, positions: np.ndarray) -> None:
        """Table hook: bump the generation (the log keeps the counts)."""
        self._generation += 1

    # -- pruning --------------------------------------------------------

    def _intersects(self, column: str, low: int, high: int):
        """``(mins, maxs, mask)``: cohorts whose zone meets ``[low, high)``."""
        mins, maxs = self._zones(column)
        return mins, maxs, (mins < high) & (maxs >= low)

    def candidate_ranges(
        self, column: str, low: int, high: int
    ) -> list[tuple[int, int]]:
        """Position ranges ``[start, stop)`` a probe of ``[low, high)``
        must scan: the cohorts whose zone intersects it, safe for both
        the active and the forgotten side."""
        _, _, intersects = self._intersects(column, low, high)
        log = self.table.cohorts
        starts, stops = log.starts(), log.stops()
        idx = np.flatnonzero(intersects)
        return list(zip(starts[idx].tolist(), stops[idx].tolist()))

    def pruned_fraction(self, column: str, low: int, high: int) -> float:
        """Fraction of rows a probe of ``[low, high)`` skips."""
        total = self.table.total_rows
        if total == 0:
            return 0.0
        _, _, intersects = self._intersects(column, low, high)
        log = self.table.cohorts
        scanned = int((log.stops() - log.starts())[intersects].sum())
        return 1.0 - scanned / total

    # -- cardinality estimation -----------------------------------------

    def estimate(
        self, column: str, low: int, high: int, *, stats=None, surcharge=None
    ) -> CardinalityEstimate:
        """Estimate how many rows a probe of ``[low, high)`` matches.

        Exact pruned-scan costs come straight from the cohort layout;
        the match-count estimates interpolate each intersecting
        cohort's active/forgotten population by the fraction of its
        value span ``[min, max]`` the probe covers (uniformity
        assumption).  This is the statistic the planner's ``cost`` mode
        feeds on.

        ``stats`` optionally supplies a
        :class:`~repro.stats.table_stats.TableHistogramStats` covering
        ``column``: the match-count estimates are then read from the
        value histograms (sharp on skewed streams) while the pruned-scan
        costs stay zone-map exact.  A ``stats`` object that does not
        cover the column falls back to per-cohort uniformity.

        ``surcharge`` optionally supplies the per-cohort decode
        surcharge (:meth:`~repro.storage.compressed.
        CompressedCohortStore.decode_surcharge`); the estimate then
        prices the candidates' decode term off the same mask.
        """
        mins, maxs, intersects = self._intersects(column, low, high)
        if mins.size == 0:
            return CardinalityEstimate(0, 0.0, 0.0)
        log = self.table.cohorts
        sizes = log.stops() - log.starts()
        if stats is not None and stats.covers(column):
            est_active, est_forgotten = stats.estimate(column, low, high)
        else:
            # Float arithmetic: a bound may lie past the int64 range, and
            # a zone spanning most of it would overflow int64.
            overlap = np.minimum(maxs + 1.0, float(high)) - np.maximum(
                mins, float(low)
            )
            span = maxs - mins.astype(np.float64) + 1.0
            fraction = np.where(
                intersects, np.clip(overlap / np.maximum(span, 1), 0.0, 1.0), 0.0
            )
            active = log.active_counts()
            est_active = float((active * fraction).sum())
            est_forgotten = float(((sizes - active) * fraction).sum())
        decode_rows = 0.0
        if surcharge is not None:
            decode_rows = float((sizes * surcharge)[intersects].sum())
        return CardinalityEstimate(
            candidate_rows=int(sizes[intersects].sum()),
            est_active=est_active,
            est_forgotten=est_forgotten,
            decode_rows=decode_rows,
        )

    # -- introspection --------------------------------------------------

    def active_counts(self) -> np.ndarray:
        """Per-cohort active-tuple counts (a copy of the log's)."""
        return self.table.cohorts.active_counts().copy()

    def bounds(self, column: str) -> tuple[np.ndarray, np.ndarray]:
        """Per-cohort (mins, maxs) for ``column`` (copies)."""
        mins, maxs = self._zones(column)
        return mins.copy(), maxs.copy()

    def nbytes(self) -> int:
        """Approximate footprint of the mapped cohorts' statistics."""
        zones = (*self._mins.values(), *self._maxs.values())
        return sum(a[: self._count].nbytes for a in zones)

    def __repr__(self) -> str:
        return (
            f"CohortZoneMap(columns={list(self._mins)}, "
            f"cohorts={self.cohort_count})"
        )
