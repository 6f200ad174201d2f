"""A sorted (value-ordered) secondary index.

Entries are (value, position) pairs kept in value order, probed by
binary search.  Inserts land in an unsorted *delta* buffer that is
merged into the sorted run once it outgrows a threshold — the classic
read-optimised/write-buffer split of columnar systems.  The index keeps
no record of forgetting of its own: a probe drops its forgotten hits by
reading the table's activity array ("stop indexing the forgotten
data"), and a merge purges forgotten entries from the run.
"""

from __future__ import annotations

import numpy as np

from .base import Index, ProbeResult

__all__ = ["SortedIndex"]

_EMPTY = np.empty(0, dtype=np.int64)


class SortedIndex(Index):
    """Binary-searchable (value, position) index with a delta buffer.

    >>> import numpy as np
    >>> from repro.storage import Table
    >>> t = Table("obs", ["a"])
    >>> _ = t.insert_batch(0, {"a": [5, 1, 9, 1]})
    >>> idx = SortedIndex(t, "a")
    >>> sorted(idx.lookup_range(1, 6).positions.tolist())
    [0, 1, 3]
    >>> t.forget(np.array([1]), epoch=1)
    1
    >>> sorted(idx.lookup_range(1, 6).positions.tolist())
    [0, 3]
    """

    #: Delta entries beyond which the next operation triggers a merge.
    DEFAULT_MERGE_THRESHOLD = 4096

    def __init__(self, table, column, merge_threshold: int = DEFAULT_MERGE_THRESHOLD):
        self.merge_threshold = int(merge_threshold)
        super().__init__(table, column)

    # -- structure ops ---------------------------------------------------

    def _build(self, positions: np.ndarray, values: np.ndarray) -> None:
        order = np.argsort(values, kind="stable")
        self._values = values[order]
        self._positions = positions[order]
        self._delta_values = _EMPTY
        self._delta_positions = _EMPTY

    def _free(self) -> None:
        self._build(_EMPTY, _EMPTY)

    def _insert(self, positions: np.ndarray, values: np.ndarray) -> None:
        self._delta_values = np.concatenate([self._delta_values, values])
        self._delta_positions = np.concatenate([self._delta_positions, positions])
        if self._delta_positions.size > self.merge_threshold:
            self._merge()

    def _merge(self) -> None:
        """Fold the delta into the sorted run, purging forgotten entries."""
        values = np.concatenate([self._values, self._delta_values])
        positions = np.concatenate([self._positions, self._delta_positions])
        keep = self.table.active_mask()[positions]
        self._build(positions[keep], values[keep])

    # -- probes ----------------------------------------------------------------

    def _run_bounds(self, low: int, high: int) -> tuple[int, int]:
        """Slice ``[lo, hi)`` of the sorted run holding ``[low, high)``."""
        values = self._values
        return int(values.searchsorted(low)), int(values.searchsorted(high))

    def lookup_range(self, low: int, high: int) -> ProbeResult:
        self._require_built()
        lo, hi = self._run_bounds(low, high)
        delta = self._delta_values
        fresh = self._delta_positions[(delta >= low) & (delta < high)]
        candidates = np.concatenate([self._positions[lo:hi], fresh])
        return ProbeResult(
            positions=candidates[self.table.active_mask()[candidates]],
            entries_touched=hi - lo + delta.size,
        )

    def nbytes(self) -> int:
        if self._dropped:
            return 0
        run = self._values.nbytes + self._positions.nbytes
        return int(run + self._delta_values.nbytes + self._delta_positions.nbytes)
