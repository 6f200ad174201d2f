"""Index protocol.

§1 proposes "stop indexing the forgotten data: a complete scan will
fetch all data, but a fast index-based query evaluation will skip the
forgotten data"; §4.4 adds that indices "can be easily dropped, and
recreated upon need, to reduce the storage footprint" (as MonetDB
does).  The index classes here implement both behaviours:

* no probe returns a forgotten tuple:
  :class:`~repro.indexes.sorted_index.SortedIndex` reads the table's
  activity array at probe time and purges forgotten entries when it
  merges its write buffer, and
  :class:`~repro.indexes.brin.BlockRangeIndex` counts each block's
  active tuples down on every forget event;
* they expose ``drop()``/``rebuild()`` and a footprint estimate so the
  storage-budget experiments can weigh index bytes against tuple bytes;
* every probe reports how many entries it touched, the cost signal the
  disposition experiments compare against a full scan.

So an index answers the amnesiac side only.  The forgotten matches the
simulator still counts (M_F) come from the planner's per-column
:class:`~repro.query.value_order.ValueOrder`, which keeps every row.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .._util.errors import IndexError_
from ..storage.table import Table

__all__ = ["Index", "ProbeResult"]


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of one index probe.

    ``positions`` are the matching *visible* (non-skipped) tuples;
    ``entries_touched`` counts index entries examined — the probe's
    cost in the simulator's unit of work.
    """

    positions: np.ndarray
    entries_touched: int

    @property
    def count(self) -> int:
        """Number of matches returned."""
        return int(self.positions.size)


class Index(ABC):
    """Base class for column indexes over a table.

    Subclasses index exactly one integer column and must keep
    themselves consistent through the table's observer hooks.  An index
    may be *dropped* (its structures freed); probing a dropped index
    raises, and :meth:`rebuild` restores it from the table.
    """

    def __init__(self, table: Table, column: str):
        table.values(column)  # validates existence
        self.table = table
        self.column = column
        self._dropped = False
        self._maintenance_ops = 0
        # No backfill: rebuild() below constructs the structures from the
        # table's current state, which an event replay could not precede.
        table.add_observer(self, backfill=False)
        self.rebuild()

    # -- lifecycle ------------------------------------------------------

    @property
    def is_dropped(self) -> bool:
        """True when the index holds no structures."""
        return self._dropped

    @property
    def maintenance_ops(self) -> int:
        """Entries inserted/invalidated since construction."""
        return self._maintenance_ops

    def drop(self) -> None:
        """Free the index structures (queries fall back to scans)."""
        self._free()
        self._dropped = True

    def rebuild(self) -> None:
        """(Re)build from the table's current active tuples."""
        positions = self.table.active_positions()
        values = self.table.values(self.column)[positions]
        self._build(positions, values)
        self._dropped = False

    def _require_built(self) -> None:
        if self._dropped:
            raise IndexError_(
                f"index on {self.column!r} was dropped; rebuild() it first"
            )

    # -- observer hooks -----------------------------------------------------

    def on_insert(self, table: Table, positions: np.ndarray) -> None:
        """Table hook: index newly inserted tuples."""
        if self._dropped:
            return
        values = table.values(self.column)[positions]
        self._insert(positions, values)
        self._maintenance_ops += int(positions.size)

    def on_forget(self, table: Table, positions: np.ndarray) -> None:
        """Table hook: remove forgotten tuples from the index."""
        if self._dropped:
            return
        self._forget(positions)
        self._maintenance_ops += int(positions.size)

    # -- required structure operations ------------------------------------------

    @abstractmethod
    def _build(self, positions: np.ndarray, values: np.ndarray) -> None:
        """Build fresh structures from (position, value) pairs."""

    @abstractmethod
    def _free(self) -> None:
        """Release all structures."""

    @abstractmethod
    def _insert(self, positions: np.ndarray, values: np.ndarray) -> None:
        """Add new (position, value) pairs."""

    def _forget(self, positions: np.ndarray) -> None:
        """React to forgotten positions (default: nothing to update)."""

    @abstractmethod
    def lookup_range(self, low: int, high: int) -> ProbeResult:
        """Visible positions with ``low <= value < high``."""

    @abstractmethod
    def nbytes(self) -> int:
        """Approximate memory footprint of the index structures."""

    def lookup_value(self, value: int) -> ProbeResult:
        """Visible positions with ``value == column`` (range of width 1)."""
        return self.lookup_range(value, value + 1)

    # -- cost estimation ----------------------------------------------------

    def estimate_entries(self, low: int, high: int) -> int | None:
        """Entries a ``lookup_range(low, high)`` probe would touch.

        The planner's cost model compares this against zone-map scan
        costs, so subclasses should make it cheap (no materialised
        probe) and faithful to what ``entries_touched`` would report.
        ``None`` means the index cannot predict its probe cost; the
        planner then falls back to table-statistics estimates.
        """
        return None

    def __repr__(self) -> str:
        state = "dropped" if self._dropped else "built"
        return f"{type(self).__name__}(column={self.column!r}, {state})"
