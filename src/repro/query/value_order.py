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
:data:`FENCE_STRIDE` entries: bisection of the fences narrows a bound
to one block, and a bisection of that block keyed by value finds the
exact cut, reading about twenty values in all.  That is about 4.1
resident bytes per ordered row.  Activity is not recorded here;
callers split the hits by the table's activity array at probe time.

The planner prices the order before it reads it: :meth:`ValueOrder.
count` runs the probe's own extension and cuts and adds the tail, so
the price is the exact number of rows the probe reads, in O(runs ·
log n) with no slicing, sorting or masking.  The last cuts are kept
with their snapshot, so the probe that follows a count of the same
range does not cut again.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

import numpy as np

__all__ = ["FENCE_STRIDE", "RUN_THRESHOLD", "ValueOrder"]

#: Unsorted tail rows beyond which a probe sorts the tail into a new run
#: (the same threshold as ``SortedIndex.DEFAULT_MERGE_THRESHOLD``).
RUN_THRESHOLD = 4096

#: Sorted entries per fence value.
FENCE_STRIDE = 64


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
        #: ``(runs, through)``: each run a ``(positions, view, fences)``
        #: triple (see :func:`_run`), together ordering ``[0, through)``.
        #: Published as one tuple so a concurrent reader never pairs
        #: runs with another ``through``.
        self._state: tuple[tuple, int] = ((), 0)
        #: ``(state, low, high, cuts)`` of the last range cut.
        self._last_cuts: tuple = (None, None, None, None)

    @property
    def run_sizes(self) -> list[int]:
        """Entries per sorted run, oldest first; later rows form the tail."""
        return [run[0].size for run in self._state[0]]

    @property
    def nbytes(self) -> int:
        """Resident bytes of the runs' positions and fences."""
        return sum(p.nbytes + f.nbytes for p, _, f in self._state[0])

    @property
    def tail_rows(self) -> int:
        """Unsorted rows the next probe masks (0 when it sorts them)."""
        tail = self.table.total_rows - self._state[1]
        return tail if tail <= RUN_THRESHOLD else 0

    def count(self, low: int, high: int) -> int:
        """Rows :meth:`probe` of ``[low, high)`` would read, exactly.

        The probe's own cuts (two bisections per bound and run) plus
        the tail, after the same extension, so it costs O(runs · log n)
        and slices, sorts and masks nothing.  The cuts are kept for a
        probe of the same range that follows.
        """
        state = self._extend()
        read = self.table.total_rows - state[1]
        for start, stop in self._cuts(state, low, high):
            read += max(stop - start, 0)
        return read

    def probe(self, low: int, high: int) -> tuple[np.ndarray, int]:
        """Ascending int64 positions with ``low <= value < high``.

        Also returns the rows read: run entries between the two cuts
        plus every tail row.
        """
        state = self._extend()
        runs, through = state
        pieces = []
        read = 0
        for (positions, _, _), (start, stop) in zip(
            runs, self._cuts(state, low, high)
        ):
            if stop > start:
                pieces.append(positions[start:stop])
                read += stop - start
        # Views taken after the snapshot cover at least ``through`` rows.
        tail = self.table.values(self.column)[through:]
        fresh = np.flatnonzero((tail >= low) & (tail < high)) + through
        # The int64 tail hits promote the int32 run slices.
        hits = np.concatenate([*pieces, fresh])
        # Runs cover consecutive position spans, oldest first, and sort
        # stably, so a point read's slices (one value each) and its
        # tail hits already come out ascending.
        if high - low != 1:
            hits.sort()
        return hits, read + tail.size

    def _cuts(self, state: tuple, low: int, high: int) -> list:
        """Per run of ``state``, the entries ``(start, stop)`` below
        ``low`` and below ``high``.

        The last range cut is kept with its snapshot, so the probe a
        planner runs after pricing the same range does not cut again.
        """
        last = self._last_cuts
        if last[0] is state and last[1] == low and last[2] == high:
            return last[3]
        # Memoryviews index to Python ints, so each bisection step
        # compares exact integers (bounds past int64 included) without
        # a numpy call.
        value_of = memoryview(self.table.values(self.column)).__getitem__
        cuts = [
            (
                _cut(value_of, positions, fences, low),
                _cut(value_of, positions, fences, high),
            )
            for _, positions, fences in state[0]
        ]
        self._last_cuts = (state, low, high, cuts)
        return cuts

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
    """A value-sorted run: ``positions``, a memoryview of them and one
    fence value every :data:`FENCE_STRIDE` entries (a memoryview too,
    so bisections read Python ints)."""
    fences = values[positions[::FENCE_STRIDE]]
    return positions, memoryview(positions), memoryview(fences)


def _cut(value_of, positions: memoryview, fences: memoryview, bound: int) -> int:
    """Entries of one run whose value lies below ``bound``.

    A bisection of the fences narrows the bound to one block, and a
    bisection of that block, keyed by value, finds the cut.
    """
    block = bisect_left(fences, bound)
    if block == 0:
        return 0
    start = (block - 1) * FENCE_STRIDE
    stop = min(start + FENCE_STRIDE, len(positions))
    return bisect_left(positions, bound, start, stop, key=value_of)
