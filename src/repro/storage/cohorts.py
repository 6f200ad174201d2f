"""Cohort (update-batch) bookkeeping and cohort-level statistics.

The paper's amnesia maps (Figures 1 and 2) plot, per update batch, the
fraction of that batch's tuples still active after a run.  To draw them
we must remember which contiguous range of row positions each epoch
inserted.  Rows are appended strictly in epoch order, so a cohort is a
half-open interval ``[start, stop)`` of positions.

Epoch 0 is the initial load; epochs ``1..n`` are update batches.

:class:`CohortZoneMap` layers zone-map statistics (per-cohort min/max
value and active-tuple count) on top of the log.  It subscribes to the
table's insert/forget events, so the statistics stay exact without the
table knowing about them — the query planner uses them to skip cohorts
a range predicate cannot touch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util.errors import StorageError

__all__ = ["CardinalityEstimate", "Cohort", "CohortLog", "CohortZoneMap"]

_INT64_MAX = np.iinfo(np.int64).max
_INT64_MIN = np.iinfo(np.int64).min


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
    """Append-only log of insertion cohorts.

    Maintains the invariant that cohorts are contiguous, non-overlapping
    and in strictly increasing epoch order — i.e. they tile ``[0,
    total_rows)`` exactly.

    >>> log = CohortLog()
    >>> _ = log.record(epoch=0, start=0, stop=1000)
    >>> _ = log.record(epoch=1, start=1000, stop=1200)
    >>> log.epoch_of(np.array([0, 999, 1000])).tolist()
    [0, 0, 1]
    """

    __slots__ = ("_cohorts", "_starts")

    def __init__(self) -> None:
        self._cohorts: list[Cohort] = []
        self._starts: list[int] = []

    def __len__(self) -> int:
        return len(self._cohorts)

    def __iter__(self):
        return iter(self._cohorts)

    def __getitem__(self, index: int) -> Cohort:
        return self._cohorts[index]

    @property
    def total_rows(self) -> int:
        """Total number of rows covered by all cohorts."""
        return self._cohorts[-1].stop if self._cohorts else 0

    @property
    def latest_epoch(self) -> int:
        """Epoch of the most recent cohort (-1 when empty)."""
        return self._cohorts[-1].epoch if self._cohorts else -1

    def record(self, epoch: int, start: int, stop: int) -> Cohort:
        """Record a new cohort, enforcing contiguity and epoch order."""
        if stop < start:
            raise StorageError(f"cohort range [{start}, {stop}) is reversed")
        expected_start = self.total_rows
        if start != expected_start:
            raise StorageError(
                f"cohort must start at {expected_start}, got {start}"
            )
        if self._cohorts and epoch <= self._cohorts[-1].epoch:
            raise StorageError(
                f"cohort epochs must increase: {epoch} after {self._cohorts[-1].epoch}"
            )
        cohort = Cohort(epoch=int(epoch), start=int(start), stop=int(stop))
        self._cohorts.append(cohort)
        self._starts.append(cohort.start)
        return cohort

    def by_epoch(self, epoch: int) -> Cohort:
        """Return the cohort inserted at ``epoch``."""
        for cohort in self._cohorts:
            if cohort.epoch == epoch:
                return cohort
        raise KeyError(f"no cohort recorded for epoch {epoch}")

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
        starts = np.asarray(self._starts, dtype=np.int64)
        return np.searchsorted(starts, positions, side="right") - 1

    def epoch_of(self, positions: np.ndarray) -> np.ndarray:
        """Map row positions to the epoch that inserted them."""
        idx = self.index_of(positions)
        if idx.size == 0:
            return idx
        epochs = np.asarray([c.epoch for c in self._cohorts], dtype=np.int64)
        return epochs[idx]

    def epochs(self) -> list[int]:
        """All recorded epochs, in order."""
        return [c.epoch for c in self._cohorts]


@dataclass(frozen=True)
class CardinalityEstimate:
    """Zone-map-derived cardinality estimate for one range probe.

    ``candidate_rows`` and ``forgotten_candidate_rows`` are *exact*
    costs of a pruned scan (rows in intersecting cohorts); the
    ``est_*`` match counts assume values are uniform within each
    cohort's ``[min, max]`` — the classic System-R uniformity
    assumption applied per cohort instead of per table.  The
    ``*decode_rows`` surcharges are the compressed store's extra
    rows-equivalent for the same two candidate sets (0 without one).
    """

    #: Rows a zone-map-pruned scan must consider (exact).
    candidate_rows: int
    #: Rows a forgotten-side pruned scan must consider (exact).
    forgotten_candidate_rows: int
    #: Estimated active (amnesiac-visible) matches.
    est_active: float
    #: Estimated forgotten matches (the M_F side).
    est_forgotten: float
    #: Decode surcharge of the ``candidate_rows`` cohorts.
    decode_rows: float = 0.0
    #: Decode surcharge of the ``forgotten_candidate_rows`` cohorts.
    forgotten_decode_rows: float = 0.0

    @property
    def est_rows(self) -> float:
        """Estimated oracle-result cardinality (active + forgotten)."""
        return self.est_active + self.est_forgotten


class CohortZoneMap:
    """Per-cohort zone-map statistics: min/max value and active count.

    A :class:`~repro.storage.table.TableObserver` that maintains, for
    each tracked column and each insertion cohort, the minimum and
    maximum value ever inserted plus the exact count of still-active
    tuples.  The query planner prunes cohorts whose ``[min, max]``
    cannot intersect a range predicate; the active/forgotten counts let
    it additionally skip cohorts that cannot contribute to one side of
    the amnesiac/oracle split.

    Min/max are *insert-time* bounds: forgetting never widens a zone,
    so the bounds stay safe (possibly loose) without any rewriting —
    the same conservative contract a BRIN keeps between vacuums.

    Registration backfills existing history (see
    :meth:`~repro.storage.table.Table.add_observer`), so a zone map
    attached to a table that already holds rows is immediately exact.

    >>> from repro.storage import Table
    >>> t = Table("obs", ["a"])
    >>> _ = t.insert_batch(0, {"a": [5, 7, 9]})
    >>> _ = t.insert_batch(1, {"a": [100, 110]})
    >>> zm = CohortZoneMap(t)
    >>> zm.candidate_ranges("a", 0, 50)
    [(0, 3)]
    >>> t.forget(np.array([3, 4]), epoch=2)
    2
    >>> zm.candidate_ranges("a", 100, 200, require="active")
    []
    >>> zm.candidate_ranges("a", 100, 200, require="forgotten")
    [(3, 5)]
    """

    #: Pruning requirements accepted by :meth:`candidate_ranges`.
    REQUIREMENTS = ("any", "active", "forgotten")

    def __init__(self, table, columns=None):
        names = tuple(columns) if columns is not None else table.column_names
        if not names:
            raise StorageError("zone map needs at least one column")
        for name in names:
            table.values(name)  # validates existence
        self.table = table
        self._mins = {name: np.empty(0, dtype=np.int64) for name in names}
        self._maxs = {name: np.empty(0, dtype=np.int64) for name in names}
        self._starts = np.empty(0, dtype=np.int64)
        self._stops = np.empty(0, dtype=np.int64)
        self._active = np.empty(0, dtype=np.int64)
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
        self._sync()
        return int(self._active.size)

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
        """Grow the per-cohort arrays to cover newly recorded cohorts."""
        log = self.table.cohorts
        needed = len(log)
        current = self._active.size
        if needed <= current:
            return
        grow = needed - current
        for name in self._mins:
            self._mins[name] = np.concatenate(
                [self._mins[name], np.full(grow, _INT64_MAX, dtype=np.int64)]
            )
            self._maxs[name] = np.concatenate(
                [self._maxs[name], np.full(grow, _INT64_MIN, dtype=np.int64)]
            )
        fresh = [log[i] for i in range(current, needed)]
        self._starts = np.concatenate(
            [self._starts, np.asarray([c.start for c in fresh], dtype=np.int64)]
        )
        self._stops = np.concatenate(
            [self._stops, np.asarray([c.stop for c in fresh], dtype=np.int64)]
        )
        self._active = np.concatenate(
            [self._active, np.zeros(grow, dtype=np.int64)]
        )

    def _refresh_counts(self, idx: np.ndarray) -> None:
        """Recompute active counts for the cohorts in ``idx`` from the bitmap.

        Recounting (rather than incrementing) makes the hooks
        idempotent, so a backfill replay — including re-registration of
        an already-populated zone map — converges to the exact counts.
        """
        touched = np.unique(idx)
        starts = self._starts[touched]
        stops = self._stops[touched]
        # One reduceat over [first start, last stop): the even pieces
        # are the touched windows, the odd ones the gaps between them.
        # Dropping the final stop lets the last window run to the end.
        # ``idx`` maps row positions, so no touched window is empty
        # (reduceat would give an empty piece its first element).
        cuts = np.column_stack([starts, stops]).ravel()[:-1]
        mask = self.table.active_mask()[: stops[-1]]
        counts = np.add.reduceat(mask, cuts, dtype=np.int64)
        self._active[touched] = counts[::2]

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
        self._refresh_counts(idx)

    def on_forget(self, table, positions: np.ndarray) -> None:
        """Table hook: refresh active counts (zones stay as bounds)."""
        self._generation += 1
        self._sync()
        if positions.size == 0:
            return
        self._refresh_counts(table.cohorts.index_of(positions))

    # -- pruning --------------------------------------------------------

    def _intersects(self, column: str, low: int, high: int):
        """``(mins, maxs, mask)``: cohorts whose zone meets ``[low, high)``."""
        self._sync()
        try:
            mins = self._mins[column]
            maxs = self._maxs[column]
        except KeyError:
            raise StorageError(
                f"zone map does not track column {column!r} "
                f"(tracked: {', '.join(self._mins)})"
            ) from None
        return mins, maxs, (mins < high) & (maxs >= low)

    def candidate_ranges(
        self, column: str, low: int, high: int, *, require: str = "any"
    ) -> list[tuple[int, int]]:
        """Position ranges ``[start, stop)`` a probe of ``[low, high)`` must scan.

        ``require`` narrows the candidates further:

        * ``"any"`` — value bounds intersect (safe for both views);
        * ``"active"`` — at least one active tuple remains;
        * ``"forgotten"`` — at least one tuple was forgotten.
        """
        _, _, intersects = self._intersects(column, low, high)
        if require not in self.REQUIREMENTS:
            raise StorageError(
                f"require must be one of {self.REQUIREMENTS}, got {require!r}"
            )
        if require == "active":
            intersects &= self._active > 0
        elif require == "forgotten":
            intersects &= (self._stops - self._starts) > self._active
        idx = np.flatnonzero(intersects)
        return [
            (int(self._starts[i]), int(self._stops[i])) for i in idx.tolist()
        ]

    def pruned_fraction(self, column: str, low: int, high: int) -> float:
        """Fraction of rows a probe of ``[low, high)`` skips."""
        total = self.table.total_rows
        if total == 0:
            return 0.0
        _, _, intersects = self._intersects(column, low, high)
        scanned = int((self._stops - self._starts)[intersects].sum())
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
        prices both candidate sets' decode terms off the same masks.
        """
        mins, maxs, intersects = self._intersects(column, low, high)
        if mins.size == 0:
            return CardinalityEstimate(0, 0, 0.0, 0.0)
        sizes = self._stops - self._starts
        forgotten = sizes - self._active
        if stats is not None and stats.covers(column):
            est_active, est_forgotten = stats.estimate(column, low, high)
        else:
            overlap = np.minimum(maxs + 1, high) - np.maximum(mins, low)
            span = maxs - mins + 1
            fraction = np.where(
                intersects, np.clip(overlap / np.maximum(span, 1), 0.0, 1.0), 0.0
            )
            est_active = float((self._active * fraction).sum())
            est_forgotten = float((forgotten * fraction).sum())
        forgotten_side = intersects & (forgotten > 0)
        decode_rows = forgotten_decode_rows = 0.0
        if surcharge is not None:
            extra = sizes * surcharge
            decode_rows = float(extra[intersects].sum())
            forgotten_decode_rows = float(extra[forgotten_side].sum())
        return CardinalityEstimate(
            candidate_rows=int(sizes[intersects].sum()),
            forgotten_candidate_rows=int(sizes[forgotten_side].sum()),
            est_active=est_active,
            est_forgotten=est_forgotten,
            decode_rows=decode_rows,
            forgotten_decode_rows=forgotten_decode_rows,
        )

    # -- introspection --------------------------------------------------

    def active_counts(self) -> np.ndarray:
        """Read-only per-cohort active-tuple counts."""
        self._sync()
        return self._active.copy()

    def bounds(self, column: str) -> tuple[np.ndarray, np.ndarray]:
        """Per-cohort (mins, maxs) for ``column`` (copies)."""
        self._sync()
        if column not in self._mins:
            raise StorageError(f"zone map does not track column {column!r}")
        return self._mins[column].copy(), self._maxs[column].copy()

    def nbytes(self) -> int:
        """Approximate footprint of the statistics arrays."""
        per_column = sum(
            self._mins[n].nbytes + self._maxs[n].nbytes for n in self._mins
        )
        return int(
            per_column
            + self._starts.nbytes
            + self._stops.nbytes
            + self._active.nbytes
        )

    def __repr__(self) -> str:
        return (
            f"CohortZoneMap(columns={list(self._mins)}, "
            f"cohorts={self._active.size})"
        )
