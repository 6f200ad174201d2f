"""The amnesiac table: one row store of values, activity and metadata.

A :class:`Table` is the simulator's unit of storage (paper §2.1).  Its
per-row state is a set of plain NumPy arrays that grow together under
one row count and one capacity:

* one ``int64`` value array per attribute (values are immutable history
  — amnesia never rewrites them);
* one ``bool`` *activity* array — the single source of truth for what
  the amnesiac DBMS can still see; forgetting only clears a row's flag
  (paper §2.3), so the oracle keeps the complete history;
* four ``int64`` metadata arrays the policies feed on: insertion epoch,
  access frequency, last-access epoch and forgotten-at epoch.

A :class:`~repro.storage.cohorts.CohortLog` maps row positions back to
the update batch that inserted them and keeps each batch's span and
active-row count, which the amnesia maps, the zone map and the
compressed store all read.  Every read accessor returns a zero-copy,
read-only view over the first ``total_rows`` slots, or a fresh copy.

Observers (indexes, lifecycle dispositions) can subscribe to insert and
forget events so that auxiliary structures stay consistent without the
table knowing about them.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from .._util.errors import SchemaError, StorageError, UnknownColumnError
from .._util.validation import as_int_array
from .cohorts import CohortLog

__all__ = ["Table", "TableObserver"]

_INITIAL_CAPACITY = 64


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
        if not all(names):
            raise SchemaError(f"column names must be non-empty, got {names}")
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {names}")
        self.name = name
        self._rows = 0
        self._active_rows = 0
        self._values = {
            n: np.zeros(_INITIAL_CAPACITY, dtype=np.int64) for n in names
        }
        self._active = np.zeros(_INITIAL_CAPACITY, dtype=bool)
        self._insert_epoch = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self._access_count = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self._last_access_epoch = np.full(_INITIAL_CAPACITY, -1, dtype=np.int64)
        self._forgotten_epoch = np.full(_INITIAL_CAPACITY, -1, dtype=np.int64)
        self._cohorts = CohortLog()
        self._observers: list[TableObserver] = []

    # -- schema ---------------------------------------------------------

    @property
    def column_names(self) -> tuple[str, ...]:
        """Attribute names, in declaration order."""
        return tuple(self._values)

    def has_column(self, name: str) -> bool:
        """True if the table has a column called ``name``."""
        return name in self._values

    # -- sizes ------------------------------------------------------------

    @property
    def total_rows(self) -> int:
        """Rows ever inserted (active + forgotten)."""
        return self._rows

    @property
    def active_count(self) -> int:
        """Rows the amnesiac DBMS can still see."""
        return self._active_rows

    @property
    def forgotten_count(self) -> int:
        """Rows marked forgotten so far."""
        return self._rows - self._active_rows

    @property
    def cohorts(self) -> CohortLog:
        """The insertion-batch log (read-mostly)."""
        return self._cohorts

    # -- row store internals ----------------------------------------------

    def _reserve(self, needed: int) -> None:
        """Grow every per-row array to hold ``needed`` rows (amortised).

        Every slot past ``total_rows`` holds its array's fill (0, or -1
        for the last-access and forgotten epochs), written here: the
        whole array is touched when it grows, never page by page as
        later inserts first reach fresh memory.
        """
        capacity = self._active.shape[0]
        if needed <= capacity:
            return
        capacity = max(2 * capacity, needed)

        def grown(old: np.ndarray, fill) -> np.ndarray:
            new = np.full(capacity, fill, dtype=old.dtype)
            new[: self._rows] = old[: self._rows]
            return new

        # One array at a time, so only one old copy is alive at once.
        for name, data in self._values.items():
            self._values[name] = grown(data, 0)
        self._active = grown(self._active, False)
        self._insert_epoch = grown(self._insert_epoch, 0)
        self._access_count = grown(self._access_count, 0)
        self._last_access_epoch = grown(self._last_access_epoch, -1)
        self._forgotten_epoch = grown(self._forgotten_epoch, -1)

    def _checked(self, positions) -> np.ndarray:
        """``positions`` as int64, or IndexError if any is not a row."""
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and (
            positions.min() < 0 or positions.max() >= self._rows
        ):
            raise IndexError(
                f"positions out of range [0, {self._rows}) "
                f"for table {self.name!r}"
            )
        return positions

    def _view(self, data: np.ndarray) -> np.ndarray:
        """Zero-copy, read-only view of the first ``total_rows`` slots."""
        out = data[: self._rows]
        out.flags.writeable = False
        return out

    # -- mutation ---------------------------------------------------------

    def insert_batch(self, epoch: int, values_by_column: dict) -> np.ndarray:
        """Insert one batch of rows; return their positions.

        ``values_by_column`` must supply every column with equal-length
         1-D integer arrays.  The batch is recorded as the cohort for
        ``epoch``; epochs must strictly increase across calls.
        """
        missing = set(self._values) - set(values_by_column)
        extra = set(values_by_column) - set(self._values)
        if missing or extra:
            raise SchemaError(
                f"insert batch columns mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(extra)}"
            )
        arrays = {
            name: np.asarray(values_by_column[name]) for name in self._values
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

        start, stop = self._rows, self._rows + n
        cohort = self._cohorts.record(epoch=epoch, start=start, stop=stop)
        self._reserve(stop)
        for name, data in self._values.items():
            data[start:stop] = arrays[name]
        # The access and forgotten metadata already hold their fills.
        self._active[start:stop] = True
        self._insert_epoch[start:stop] = epoch
        self._rows = stop
        self._active_rows += n

        positions = cohort.positions()
        for observer in self._observers:
            observer.on_insert(self, positions)
        return positions

    def forget(self, positions: np.ndarray, epoch: int) -> int:
        """Mark rows at ``positions`` forgotten; return how many flipped.

        Forgetting is idempotent per row (re-forgetting is a no-op, and
        a position repeated in one call counts once) but the simulator
        treats double-forgetting as a policy bug, so the count of newly
        flipped rows is returned for callers to assert on.  The cohort
        log counts them out, then observers receive each newly
        forgotten position exactly once, ascending.
        """
        positions = self._checked(positions).ravel()
        # Strictly ascending positions (what validate_victims returns)
        # are used as they are; anything else is sorted and its repeats
        # dropped by a neighbour mask (np.unique would hash it).
        if not (positions[1:] > positions[:-1]).all():
            positions = np.sort(positions)
            positions = positions[np.r_[True, positions[1:] != positions[:-1]]]
        newly = positions[self._active[positions]]
        if newly.size:
            self._active[newly] = False
            self._forgotten_epoch[newly] = int(epoch)
            self._active_rows -= int(newly.size)
            self._cohorts.forget(newly)
            for observer in self._observers:
                observer.on_forget(self, newly)
        return int(newly.size)

    def replay_history(
        self, cohorts, columns: dict, active, forgotten_epochs,
        access_counts, last_access_epochs, on_insert,
    ) -> None:
        """Rebuild this empty table from per-row history arrays.

        The one replay path for a checkpoint load and a partition
        boundary move.  Each ``(epoch, start, stop)`` of ``cohorts`` is
        one ``insert_batch`` of the ``columns`` slice, then
        ``on_insert(table, positions, epoch)`` unless the hook is None.
        Rows with ``active`` False are then forgotten again at their
        ``forgotten_epochs`` stamps, and every row's access count and
        last-access epoch is restored, so the rot and overuse policies
        see a moved row exactly as before instead of "never read".

        Nothing is inserted unless the cohorts tile ``[0, rows)`` in
        epoch order and every per-row array has shape ``(rows,)``.
        """
        if self._rows:
            raise StorageError(f"replay needs an empty table, {self!r} is not")
        tiling = CohortLog()  # refuses a gap, overlap or epoch out of order
        for epoch, start, stop in cohorts:
            tiling.record(epoch, start, stop)
        rows = tiling.total_rows
        per_row = dict(
            {f"column {name!r}": values for name, values in columns.items()},
            active=active, forgotten_epochs=forgotten_epochs,
            access_counts=access_counts, last_access_epochs=last_access_epochs,
        )
        bad = {k: np.shape(v) for k, v in per_row.items() if np.shape(v) != (rows,)}
        if bad:
            raise StorageError(f"replay expects {(rows,)} per-row values, got {bad}")
        for epoch, start, stop in cohorts:
            batch = {name: values[start:stop] for name, values in columns.items()}
            positions = self.insert_batch(epoch, batch)
            if on_insert is not None:
                on_insert(self, positions, epoch)
        forgotten = np.flatnonzero(~active)
        # One stable sort groups the rows by forget epoch, positions still
        # ascending within each group: one forget per epoch, in epoch
        # order, restores every stamp exactly.
        forgotten = forgotten[np.argsort(forgotten_epochs[forgotten], kind="stable")]
        stamps = forgotten_epochs[forgotten]
        firsts = np.flatnonzero(stamps[1:] != stamps[:-1]) + 1
        for first, batch in zip(np.r_[0, firsts], np.split(forgotten, firsts)):
            if batch.size:
                self.forget(batch, epoch=int(stamps[first]))
        self._access_count[:rows] = access_counts
        self._last_access_epoch[:rows] = last_access_epochs

    def record_access(self, positions: np.ndarray, epoch: int) -> None:
        """Bump access frequency for rows appearing in a query result.

        Duplicate positions accumulate — a tuple returned by several
        queries in one batch is that much "fresher" (paper §3.2).
        """
        positions = self._checked(positions)
        if positions.size == 0:
            return
        np.add.at(self._access_count, positions, 1)
        self._last_access_epoch[positions] = int(epoch)

    # -- views --------------------------------------------------------------

    def active_mask(self) -> np.ndarray:
        """Read-only boolean mask over all rows (True = active)."""
        return self._view(self._active)

    def active_positions(self) -> np.ndarray:
        """Positions of active rows, ascending.

        The scan starts at the first cohort the cohort log counts with
        an active row, so a fully forgotten prefix of the history is
        skipped rather than read.
        """
        if not self._active_rows:
            return np.empty(0, dtype=np.int64)
        first = np.argmax(self._cohorts.active_counts() > 0)
        start = int(self._cohorts.starts()[first])
        out = np.flatnonzero(self._active[start : self._rows])
        out += start
        return out

    def forgotten_positions(self) -> np.ndarray:
        """Positions of forgotten rows, ascending."""
        return np.flatnonzero(~self._active[: self._rows])

    def is_active(self, positions: np.ndarray) -> np.ndarray:
        """Boolean activity test for arbitrary ``positions`` (a copy)."""
        return self._active[self._checked(positions)]

    def values(self, column: str) -> np.ndarray:
        """Read-only view of *all* values of ``column`` (oracle view).

        Raises :class:`UnknownColumnError` for a column the table lacks,
        so callers validate a column name with it too.
        """
        try:
            data = self._values[column]
        except KeyError:
            raise UnknownColumnError(column, self.column_names) from None
        return self._view(data)

    def active_values(self, column: str) -> np.ndarray:
        """Values of ``column`` restricted to active rows (a copy)."""
        return self.values(column)[self.active_mask()]

    def insert_epochs(self) -> np.ndarray:
        """Read-only per-row insertion epoch."""
        return self._view(self._insert_epoch)

    def access_counts(self) -> np.ndarray:
        """Read-only per-row access frequency."""
        return self._view(self._access_count)

    def last_access_epochs(self) -> np.ndarray:
        """Read-only per-row last-access epoch (-1 = never accessed)."""
        return self._view(self._last_access_epoch)

    def forgotten_epochs(self) -> np.ndarray:
        """Read-only per-row forgotten-at epoch (-1 = still active)."""
        return self._view(self._forgotten_epoch)

    # -- cohort analytics -----------------------------------------------------

    def cohort_activity(self) -> dict[int, float]:
        """Fraction of each cohort still active: the amnesia-map row.

        Returns ``{epoch: active_fraction}`` over all recorded cohorts.
        This is exactly one vertical slice of the paper's Figures 1–2,
        read off the cohort log's active counts (an empty cohort
        reads 0.0).
        """
        log = self._cohorts
        sizes = log.stops() - log.starts()
        fractions = np.where(
            sizes > 0, log.active_counts() / np.maximum(sizes, 1), 0.0
        )
        return dict(zip(log.epochs(), fractions.tolist()))

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
            f"Table(name={self.name!r}, columns={list(self._values)}, "
            f"total={self.total_rows}, active={self.active_count})"
        )
