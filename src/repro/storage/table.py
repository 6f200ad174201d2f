"""The amnesiac table: columnar data + activity bitmap + tuple metadata.

A :class:`Table` is the simulator's unit of storage (paper §2.1).  It
holds:

* one append-only :class:`~repro.storage.column.IntColumn` per attribute
  (values are immutable history — amnesia never rewrites them);
* an *active* :class:`~repro.storage.bitmap.Bitmap` — the single source
  of truth for what the amnesiac DBMS can still see;
* per-tuple metadata the policies feed on: insertion epoch, access
  frequency, last-access epoch, forgotten-at epoch;
* a :class:`~repro.storage.cohorts.CohortLog` mapping row positions back
  to the update batch that inserted them (for the amnesia maps).

Observers (indexes, lifecycle dispositions) can subscribe to insert and
forget events so that auxiliary structures stay consistent without the
table knowing about them.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from .._util.errors import (
    InsufficientVictimsError,
    SchemaError,
    StorageError,
    UnknownColumnError,
)
from .._util.validation import as_int_array
from .bitmap import Bitmap
from .cohorts import CohortLog
from .column import IntColumn
from .vectors import GrowableIntVector

__all__ = ["Table", "TableObserver"]


class TableObserver(Protocol):
    """Subscriber to table mutations (duck-typed; see ``add_observer``)."""

    def on_insert(self, table: "Table", positions: np.ndarray) -> None:
        """Called after rows at ``positions`` were inserted."""

    def on_forget(self, table: "Table", positions: np.ndarray) -> None:
        """Called after rows at ``positions`` were marked forgotten."""


class Table:
    """A columnar table with activity marking and amnesia metadata.

    >>> t = Table("obs", ["a"])
    >>> _ = t.insert_batch(0, {"a": [5, 7, 9]})
    >>> t.forget(np.array([1]), epoch=1)
    1
    >>> t.active_count, t.forgotten_count
    (2, 1)
    >>> t.values("a")[t.active_positions()].tolist()
    [5, 9]
    """

    def __init__(self, name: str, column_names):
        if not name:
            raise SchemaError("table name must be non-empty")
        names = list(column_names)
        if not names:
            raise SchemaError("a table needs at least one column")
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {names}")
        self.name = name
        self._columns: dict[str, IntColumn] = {n: IntColumn(n) for n in names}
        self._active = Bitmap()
        self._insert_epoch = GrowableIntVector(fill=0)
        self._access_count = GrowableIntVector(fill=0)
        self._last_access_epoch = GrowableIntVector(fill=-1)
        self._forgotten_epoch = GrowableIntVector(fill=-1)
        self._cohorts = CohortLog()
        self._observers: list[TableObserver] = []

    # -- schema ---------------------------------------------------------

    @property
    def column_names(self) -> tuple[str, ...]:
        """Attribute names, in declaration order."""
        return tuple(self._columns)

    def has_column(self, name: str) -> bool:
        """True if the table has a column called ``name``."""
        return name in self._columns

    def column(self, name: str) -> IntColumn:
        """The column object for ``name`` (raises UnknownColumnError)."""
        try:
            return self._columns[name]
        except KeyError:
            raise UnknownColumnError(name, self.column_names) from None

    # -- sizes ------------------------------------------------------------

    @property
    def total_rows(self) -> int:
        """Rows ever inserted (active + forgotten)."""
        return len(self._active)

    @property
    def active_count(self) -> int:
        """Rows the amnesiac DBMS can still see."""
        return self._active.count_set()

    @property
    def forgotten_count(self) -> int:
        """Rows marked forgotten so far."""
        return self._active.count_clear()

    @property
    def cohorts(self) -> CohortLog:
        """The insertion-batch log (read-mostly)."""
        return self._cohorts

    # -- mutation ---------------------------------------------------------

    def insert_batch(self, epoch: int, values_by_column: dict) -> np.ndarray:
        """Insert one batch of rows; return their positions.

        ``values_by_column`` must supply every column with equal-length
         1-D integer arrays.  The batch is recorded as the cohort for
        ``epoch``; epochs must strictly increase across calls.
        """
        missing = set(self._columns) - set(values_by_column)
        extra = set(values_by_column) - set(self._columns)
        if missing or extra:
            raise SchemaError(
                f"insert batch columns mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(extra)}"
            )
        arrays = {
            name: np.asarray(values_by_column[name]) for name in self._columns
        }
        lengths = {name: arr.shape[0] if arr.ndim == 1 else -1 for name, arr in arrays.items()}
        if len(set(lengths.values())) != 1 or -1 in lengths.values():
            raise SchemaError(f"insert batch arrays must be 1-D and equal length, got {lengths}")
        (n,) = set(lengths.values())
        # Convert every column before anything is recorded: a rejected
        # column must leave the table untouched, not half-appended.
        arrays = {
            name: as_int_array(arr, f"column {name!r} values")
            for name, arr in arrays.items()
        }

        start = self.total_rows
        cohort = self._cohorts.record(epoch=epoch, start=start, stop=start + n)
        for name, column in self._columns.items():
            column.append_many(arrays[name])
        self._active.extend(n, value=True)
        self._insert_epoch.extend(n, value=epoch)
        self._access_count.extend(n, value=0)
        self._last_access_epoch.extend(n, value=-1)
        self._forgotten_epoch.extend(n, value=-1)

        positions = cohort.positions()
        for observer in self._observers:
            observer.on_insert(self, positions)
        return positions

    def forget(self, positions: np.ndarray, epoch: int) -> int:
        """Mark rows at ``positions`` forgotten; return how many flipped.

        Forgetting is idempotent per row (re-forgetting is a no-op) but
        the simulator treats double-forgetting as a policy bug, so the
        count of newly flipped rows is returned for callers to assert on.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == 0:
            return 0
        newly = positions[self._active.test_many(positions)]
        flipped = self._active.clear_many(positions)
        if newly.size:
            self._forgotten_epoch.set_at(newly, int(epoch))
            for observer in self._observers:
                observer.on_forget(self, newly)
        return flipped

    def require_victims(self, n: int) -> None:
        """Raise unless at least ``n`` active rows exist."""
        if n > self.active_count:
            raise InsufficientVictimsError(n, self.active_count)

    def restore_access(self, positions: np.ndarray, counts, last_epochs) -> None:
        """Bulk-restore access metadata for rows migrated between tables.

        Partition boundary splits/merges replay a shard's history into a
        fresh table; this carries the access-frequency signal the rot
        and overuse policies feed on across the move, instead of
        resetting every migrated row to "never read".
        """
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == 0:
            return
        self._access_count.put(positions, counts)
        self._last_access_epoch.put(positions, last_epochs)

    def record_access(self, positions: np.ndarray, epoch: int) -> None:
        """Bump access frequency for rows appearing in a query result.

        Duplicate positions accumulate — a tuple returned by several
        queries in one batch is that much "fresher" (paper §3.2).
        """
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == 0:
            return
        self._access_count.add_at(positions, 1)
        self._last_access_epoch.set_at(np.unique(positions), int(epoch))

    # -- views --------------------------------------------------------------

    def active_mask(self) -> np.ndarray:
        """Read-only boolean mask over all rows (True = active)."""
        return self._active.view()

    def active_positions(self) -> np.ndarray:
        """Positions of active rows, ascending."""
        return self._active.set_positions()

    def forgotten_positions(self) -> np.ndarray:
        """Positions of forgotten rows, ascending."""
        return self._active.clear_positions()

    def is_active(self, positions: np.ndarray) -> np.ndarray:
        """Boolean activity test for arbitrary ``positions``."""
        return self._active.test_many(positions)

    def values(self, column: str) -> np.ndarray:
        """Read-only view of *all* values of ``column`` (oracle view)."""
        return self.column(column).values()

    def active_values(self, column: str) -> np.ndarray:
        """Values of ``column`` restricted to active rows (a copy)."""
        return self.column(column).take(self.active_positions())

    def insert_epochs(self) -> np.ndarray:
        """Read-only per-row insertion epoch."""
        return self._insert_epoch.values()

    def access_counts(self) -> np.ndarray:
        """Read-only per-row access frequency."""
        return self._access_count.values()

    def last_access_epochs(self) -> np.ndarray:
        """Read-only per-row last-access epoch (-1 = never accessed)."""
        return self._last_access_epoch.values()

    def forgotten_epochs(self) -> np.ndarray:
        """Read-only per-row forgotten-at epoch (-1 = still active)."""
        return self._forgotten_epoch.values()

    # -- cohort analytics -----------------------------------------------------

    def cohort_activity(self) -> dict[int, float]:
        """Fraction of each cohort still active: the amnesia-map row.

        Returns ``{epoch: active_fraction}`` over all recorded cohorts.
        This is exactly one vertical slice of the paper's Figures 1–2.
        Runs once per amnesia-map slice on every epoch, so the
        per-cohort counts come from a single ``np.add.reduceat`` over
        the activity bitmap instead of a Python loop — cohorts tile
        ``[0, total_rows)``, so each cohort's segment ends where the
        next one starts.
        """
        cohorts = list(self._cohorts)
        if not cohorts:
            return {}
        mask = self.active_mask()
        sizes = np.asarray([c.size for c in cohorts], dtype=np.int64)
        if mask.size == 0:
            fractions = np.zeros(len(cohorts))
        else:
            # reduceat quirks: a repeated index (mid-stream empty
            # cohort) yields mask[start] instead of 0 — overwritten
            # below — and an index == len(mask) (trailing empty
            # cohort) is rejected outright, so those cohorts stay out
            # of the reduceat entirely rather than shifting the last
            # real segment's boundary.
            starts = np.asarray([c.start for c in cohorts], dtype=np.int64)
            counts = np.zeros(len(cohorts), dtype=np.int64)
            valid = starts < mask.size
            counts[valid] = np.add.reduceat(
                mask.astype(np.int64), starts[valid]
            )
            fractions = np.where(
                sizes > 0, counts / np.maximum(sizes, 1), 0.0
            )
        return {
            cohort.epoch: float(fraction)
            for cohort, fraction in zip(cohorts, fractions)
        }

    # -- observers ---------------------------------------------------------

    def add_observer(self, observer: TableObserver, *, backfill: bool = True) -> None:
        """Subscribe ``observer`` to insert/forget events.

        By default registration *backfills*: the observer immediately
        receives one ``on_insert`` covering every existing row followed
        by one ``on_forget`` for the already-forgotten ones, so an
        observer attached to a table that already holds history starts
        exact instead of silently missing it.  Pass ``backfill=False``
        for observers that only want the live stream (or that rebuild
        themselves from the table, as the indexes do).
        """
        if observer in self._observers:
            raise StorageError("observer already registered")
        self._observers.append(observer)
        if backfill and self.total_rows:
            observer.on_insert(self, np.arange(self.total_rows, dtype=np.int64))
            forgotten = self.forgotten_positions()
            if forgotten.size:
                observer.on_forget(self, forgotten)

    def remove_observer(self, observer: TableObserver) -> None:
        """Unsubscribe a previously registered observer."""
        try:
            self._observers.remove(observer)
        except ValueError:
            raise StorageError("observer was not registered") from None

    def __repr__(self) -> str:
        return (
            f"Table(name={self.name!r}, columns={list(self._columns)}, "
            f"total={self.total_rows}, active={self.active_count})"
        )
