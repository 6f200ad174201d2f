"""The cold tier: an archive for forgotten tuples.

"A more cost-effective option is to move forgotten data to cheap slow
cold-storage" (§1).  The :class:`ColdStore` simulates that tier: it
receives the values of forgotten tuples segment by segment, keeps them
in arrays sorted by position, accounts storage/retrieval against a
:class:`~repro.coldstore.cost_model.StorageCostModel`, and can *recover*
tuples on explicit request — mirroring the paper's stance that cold
data "will never show up in query results, unless the user takes the
action and recovers" it (§5).
"""

from __future__ import annotations

import numpy as np

from .._util.errors import ColdStoreError
from .cost_model import StorageCostModel, TierUsage

__all__ = ["ColdStore"]

_INT64_BYTES = 8


class ColdStore:
    """Archive of forgotten tuples with cost accounting.

    Every archived position and its column values live in arrays sorted
    by position, so membership and retrieval are one ``isin`` and one
    ``searchsorted`` over the whole request; a segment keeps nothing
    but its forget epoch.

    >>> import numpy as np
    >>> store = ColdStore()
    >>> _ = store.archive(epoch=1, positions=np.array([3, 4]),
    ...                   values_by_column={"a": np.array([30, 40])})
    >>> store.contains(np.array([3, 5])).tolist()
    [True, False]
    >>> store.retrieve(np.array([4]))["a"].tolist()
    [40]
    """

    def __init__(self, cost_model: StorageCostModel | None = None):
        self.cost_model = cost_model or StorageCostModel()
        self.usage = TierUsage()
        self._epochs: list[int] = []
        self._positions = np.empty(0, dtype=np.int64)
        self._values: dict[str, np.ndarray] = {}

    # -- archiving ------------------------------------------------------

    def archive(
        self,
        epoch: int,
        positions: np.ndarray,
        values_by_column: dict[str, np.ndarray],
    ) -> None:
        """Store one forgotten batch as a new segment.

        Positions must be new to the tier, and every segment archives
        the same columns.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == 0:
            raise ColdStoreError("cannot archive an empty segment")
        order = np.argsort(positions)
        ordered = positions[order]
        if (ordered[1:] == ordered[:-1]).any():
            raise ColdStoreError("archive positions must be distinct")
        for name, values in values_by_column.items():
            if np.asarray(values).shape != positions.shape:
                raise ColdStoreError(
                    f"column {name!r} values must align with positions"
                )
        if self._epochs and values_by_column.keys() != self._values.keys():
            raise ColdStoreError(
                f"segment columns {sorted(values_by_column)} differ from "
                f"the archived {sorted(self._values)}"
            )
        clashes = positions[self.contains(positions)]
        if clashes.size:
            raise ColdStoreError(
                f"positions already archived: {clashes[:5].tolist()}"
            )
        at = np.searchsorted(self._positions, ordered)
        for name, values in values_by_column.items():
            archived = self._values.get(name, np.empty(0, dtype=np.int64))
            values = np.asarray(values, dtype=np.int64)[order]
            self._values[name] = np.insert(archived, at, values)
        self._positions = np.insert(self._positions, at, ordered)
        self._epochs.append(int(epoch))
        self.usage.record_store(
            positions.size * _INT64_BYTES * (1 + len(values_by_column))
        )

    # -- introspection ----------------------------------------------------

    @property
    def segment_count(self) -> int:
        """Number of archived segments."""
        return len(self._epochs)

    @property
    def tuple_count(self) -> int:
        """Number of archived tuples."""
        return int(self._positions.size)

    @property
    def stored_bytes(self) -> int:
        """Total logical bytes resident in the tier."""
        return self.usage.stored_bytes

    def contains(self, positions: np.ndarray) -> np.ndarray:
        """Boolean per position: is it archived here?"""
        return np.isin(np.asarray(positions, dtype=np.int64), self._positions)

    # -- retrieval -------------------------------------------------------------

    def retrieve(self, positions: np.ndarray) -> dict[str, np.ndarray]:
        """Fetch archived values for ``positions`` (cost-accounted).

        Returns ``{column: values}`` aligned with the requested
        positions.  Raises if any position was never archived.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == 0:
            raise ColdStoreError("cannot retrieve an empty position set")
        missing = positions[~self.contains(positions)]
        if missing.size:
            raise ColdStoreError(
                f"positions not in cold storage: {missing[:5].tolist()}"
            )
        rows = np.searchsorted(self._positions, positions)
        out = {name: values[rows] for name, values in self._values.items()}
        nbytes = positions.size * _INT64_BYTES * (1 + len(out))
        self.usage.record_retrieval(nbytes)
        return out

    # -- economics ---------------------------------------------------------------

    def storage_cost(self, years: float) -> float:
        """Dollars to keep the current archive for ``years``."""
        return self.cost_model.cold_storage_cost(self.stored_bytes, years)

    def retrieval_cost_so_far(self) -> float:
        """Dollars spent on retrievals so far."""
        return self.cost_model.cold_retrieval_cost(self.usage.retrieved_bytes)

    def retrieval_latency_so_far(self) -> float:
        """Hours of retrieval latency incurred (one fetch = one trip)."""
        return self.usage.retrieval_ops * self.cost_model.cold_retrieval_latency_hours

    def __repr__(self) -> str:
        return (
            f"ColdStore(segments={self.segment_count}, tuples={self.tuple_count}, "
            f"bytes={self.stored_bytes})"
        )
