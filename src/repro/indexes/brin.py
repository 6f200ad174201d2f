"""Block-range index (BRIN / zone maps).

§4.4: "A refinement is to consider partial indices, such as
Block-Range-Indices."  The table's position space is tiled into fixed
blocks; per block the index keeps the min/max value and the count of
active tuples.  A range probe first prunes blocks whose [min, max]
cannot intersect the predicate — or whose active count has dropped to
zero, which is how amnesia *shrinks the effective index*: fully
forgotten blocks cost nothing to skip, the paper's spatially correlated
"mold" making BRIN progressively cheaper.
"""

from __future__ import annotations

import numpy as np

from .._util.errors import ConfigError
from .base import Index, ProbeResult

__all__ = ["BlockRangeIndex"]

_INT64_BYTES = 8


class BlockRangeIndex(Index):
    """Zone-map index over fixed-size position blocks.

    >>> import numpy as np
    >>> from repro.storage import Table
    >>> t = Table("obs", ["a"])
    >>> _ = t.insert_batch(0, {"a": np.arange(1000)})
    >>> idx = BlockRangeIndex(t, "a", block_size=100)
    >>> probe = idx.lookup_range(250, 260)
    >>> probe.positions.tolist() == list(range(250, 260))
    True
    >>> probe.entries_touched  # one block scanned, not the whole table
    100
    """

    def __init__(self, table, column, block_size: int = 128):
        if block_size < 1:
            raise ConfigError(f"block_size must be >= 1, got {block_size}")
        self.block_size = int(block_size)
        super().__init__(table, column)

    # -- structure ops ---------------------------------------------------

    def _block_of(self, positions: np.ndarray) -> np.ndarray:
        return positions // self.block_size

    def _ensure_blocks(self, max_position: int) -> None:
        needed = max_position // self.block_size + 1
        current = self._mins.size
        if needed <= current:
            return
        grow = needed - current
        self._mins = np.concatenate(
            [self._mins, np.full(grow, np.iinfo(np.int64).max, dtype=np.int64)]
        )
        self._maxs = np.concatenate(
            [self._maxs, np.full(grow, np.iinfo(np.int64).min, dtype=np.int64)]
        )
        self._active_counts = np.concatenate(
            [self._active_counts, np.zeros(grow, dtype=np.int64)]
        )

    def _build(self, positions: np.ndarray, values: np.ndarray) -> None:
        self._mins = np.empty(0, dtype=np.int64)
        self._maxs = np.empty(0, dtype=np.int64)
        self._active_counts = np.empty(0, dtype=np.int64)
        if positions.size:
            self._insert(positions, values)

    def _free(self) -> None:
        self._mins = np.empty(0, dtype=np.int64)
        self._maxs = np.empty(0, dtype=np.int64)
        self._active_counts = np.empty(0, dtype=np.int64)

    def _insert(self, positions: np.ndarray, values: np.ndarray) -> None:
        if positions.size == 0:
            return
        self._ensure_blocks(int(positions.max()))
        blocks = self._block_of(positions)
        np.minimum.at(self._mins, blocks, values)
        np.maximum.at(self._maxs, blocks, values)
        np.add.at(self._active_counts, blocks, 1)

    def _forget(self, positions: np.ndarray) -> None:
        if positions.size == 0:
            return
        blocks = self._block_of(np.asarray(positions, dtype=np.int64))
        np.add.at(self._active_counts, blocks, -1)
        # Min/max stay as (safe, possibly loose) bounds; they tighten at
        # the next rebuild, exactly like a real BRIN after vacuum.

    # -- probes ----------------------------------------------------------------

    @property
    def block_count(self) -> int:
        """Number of blocks currently mapped."""
        return int(self._mins.size)

    def candidate_blocks(self, low: int, high: int) -> np.ndarray:
        """Blocks whose zone [min, max] intersects [low, high)."""
        self._require_built()
        if self._mins.size == 0:
            return np.empty(0, dtype=np.int64)
        intersects = (self._mins < high) & (self._maxs >= low)
        return np.flatnonzero(intersects & (self._active_counts > 0))

    def lookup_range(self, low: int, high: int) -> ProbeResult:
        self._require_built()
        blocks = self.candidate_blocks(low, high)
        values = self.table.values(self.column)
        active_mask = self.table.active_mask()
        touched = 0
        chunks: list[np.ndarray] = []
        total = self.table.total_rows
        for block in blocks.tolist():
            start = block * self.block_size
            stop = min(start + self.block_size, total)
            touched += stop - start
            window = values[start:stop]
            mask = (window >= low) & (window < high) & active_mask[start:stop]
            hits = np.flatnonzero(mask)
            if hits.size:
                chunks.append(hits + start)
        positions = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        )
        return ProbeResult(positions=positions, entries_touched=touched)

    def nbytes(self) -> int:
        if self._dropped:
            return 0
        return int(self._mins.nbytes + self._maxs.nbytes + self._active_counts.nbytes)

    def pruned_fraction(self, low: int, high: int) -> float:
        """Fraction of blocks a probe of [low, high) skips."""
        if self.block_count == 0:
            return 0.0
        return 1.0 - self.candidate_blocks(low, high).size / self.block_count
