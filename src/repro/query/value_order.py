"""A lazily extended value order of one column, for range reads.

A forgotten tuple stays in the table so M_F can be counted exactly, so
a range read that masks the whole column pays for every row ever
inserted.  When values are independent of insert time the zone map
cannot prune either.  :class:`ValueOrder` keeps the column's positions
sorted by value instead, and a read binary-searches its bounds: the
work follows the answer, not the history.

Values are append-only and never change, so any order of
``values[:through]`` stays valid for good.  The order needs no
observer: a probe first sorts the unsorted tail ``[through,
total_rows)`` into a new run once it holds more than
:data:`RUN_THRESHOLD` rows, and masks a shorter tail directly.  A run
is merged into the one before it while it holds at least half that
run's entries, so the run count stays logarithmic in the history.

Each run stores positions only (int32 while the table has fewer than
``2**31`` rows) plus one sorted-value *fence* every
:data:`FENCE_STRIDE` entries: binary search over the fences narrows a
bound to one block, and a gather of that block's values finds the exact
cut.  That is about 4.1 resident bytes per ordered row.  Activity is
not recorded here; callers split the hits by the table's activity array
at probe time.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["FENCE_STRIDE", "RUN_THRESHOLD", "ValueOrder"]

#: Unsorted tail rows beyond which a probe sorts the tail into a new run
#: (the same threshold as ``SortedIndex.DEFAULT_MERGE_THRESHOLD``).
RUN_THRESHOLD = 4096

#: Sorted entries per fence value.
FENCE_STRIDE = 64

_INT64_MIN = int(np.iinfo(np.int64).min)
_INT64_MAX = int(np.iinfo(np.int64).max)


class ValueOrder:
    """Positions of one column sorted by value, extended at probe time.

    >>> from repro.storage import Table
    >>> t = Table("obs", ["a"])
    >>> _ = t.insert_batch(0, {"a": [5, 1, 9, 1]})
    >>> hits, read = ValueOrder(t, "a").probe(1, 6)
    >>> hits.tolist(), read
    ([0, 1, 3], 4)
    """

    def __init__(self, table, column: str):
        table.values(column)  # validates existence
        self.table = table
        self.column = column
        self._lock = threading.Lock()
        #: ``(runs, through)``: each run a ``(positions, fences)`` pair,
        #: together ordering ``[0, through)``.  Published as one tuple so
        #: a concurrent reader never pairs runs with another ``through``.
        self._state: tuple[tuple, int] = ((), 0)

    @property
    def run_sizes(self) -> list[int]:
        """Entries per sorted run, oldest first; later rows form the tail."""
        return [positions.size for positions, _ in self._state[0]]

    @property
    def nbytes(self) -> int:
        """Resident bytes of the runs' positions and fences."""
        return sum(p.nbytes + f.nbytes for p, f in self._state[0])

    @property
    def tail_rows(self) -> int:
        """Unsorted rows the next probe masks (0 when it sorts them)."""
        tail = self.table.total_rows - self._state[1]
        return tail if tail <= RUN_THRESHOLD else 0

    def probe(self, low: int, high: int) -> tuple[np.ndarray, int]:
        """Ascending int64 positions with ``low <= value < high``.

        Also returns the rows read: run entries between the two cuts
        plus every tail row.
        """
        runs, through = self._extend()
        # Views taken after the snapshot cover at least ``through`` rows.
        values = self.table.values(self.column)
        pieces = []
        read = 0
        for positions, fences in runs:
            start = _cut(values, positions, fences, low)
            stop = _cut(values, positions, fences, high)
            if stop > start:
                pieces.append(positions[start:stop])
                read += stop - start
        tail = values[through:]
        fresh = np.flatnonzero((tail >= low) & (tail < high)) + through
        # The int64 tail hits promote the int32 run slices.
        hits = np.concatenate([*pieces, fresh])
        hits.sort()
        return hits, read + tail.size

    def _extend(self) -> tuple[tuple, int]:
        """The current snapshot, after sorting a long tail into a run."""
        state = self._state
        if self.table.total_rows - state[1] <= RUN_THRESHOLD:
            return state
        with self._lock:
            runs, through = self._state
            values = self.table.values(self.column)
            if values.size - through <= RUN_THRESHOLD:
                return self._state
            dtype = np.int32 if values.size < 2**31 else np.int64
            order = np.argsort(values[through:], kind="stable")
            order += through
            runs = [*runs, _run(order.astype(dtype), values)]
            while len(runs) > 1 and 2 * runs[-1][0].size >= runs[-2][0].size:
                merged = np.concatenate([runs[-2][0], runs[-1][0]])
                merged = merged[np.argsort(values[merged], kind="stable")]
                runs[-2:] = [_run(merged, values)]
            self._state = (tuple(runs), int(values.size))
            return self._state


def _run(positions: np.ndarray, values: np.ndarray) -> tuple:
    """A value-sorted run of ``positions`` with its fences."""
    return positions, values[positions[::FENCE_STRIDE]]


def _cut(
    values: np.ndarray, positions: np.ndarray, fences: np.ndarray, bound: int
) -> int:
    """Entries of one run whose value lies below ``bound``."""
    if bound > _INT64_MAX:
        return positions.size
    if bound <= _INT64_MIN:
        return 0
    block = int(fences.searchsorted(bound)) - 1
    if block < 0:
        return 0
    start = block * FENCE_STRIDE
    window = values.take(positions[start : start + FENCE_STRIDE])
    return start + int(window.searchsorted(bound))
