"""Amnesia maps: which portion of the database survives, per cohort.

Figures 1 and 2 of the paper visualise "the distribution of still active
tuples after a sequence of 10 update batches": for every insertion
cohort (x axis, the timeline) the fraction of its tuples still active
(brightness).  :class:`AmnesiaMap` accumulates those snapshots, one per
epoch, for the plotting layer's ASCII heat map and the benchmarks'
policy comparisons.
"""

from __future__ import annotations

import numpy as np

from .._util.errors import ConfigError

__all__ = ["AmnesiaMap"]


class AmnesiaMap:
    """Per-epoch snapshots of per-cohort active fractions.

    >>> m = AmnesiaMap()
    >>> m.add_snapshot(0, {0: 1.0})
    >>> m.add_snapshot(1, {0: 0.8, 1: 1.0})
    >>> m.final_row()
    {0: 0.8, 1: 1.0}
    """

    def __init__(self) -> None:
        self._snapshots: dict[int, dict[int, float]] = {}

    def add_snapshot(self, epoch: int, cohort_activity: dict[int, float]) -> None:
        """Record the activity map observed after ``epoch``."""
        epoch = int(epoch)
        if epoch in self._snapshots:
            raise ConfigError(f"snapshot for epoch {epoch} already recorded")
        if self._snapshots and epoch < max(self._snapshots):
            raise ConfigError("snapshots must be recorded in epoch order")
        for fraction in cohort_activity.values():
            if not 0.0 <= fraction <= 1.0:
                raise ConfigError(
                    f"activity fraction {fraction} outside [0, 1]"
                )
        self._snapshots[epoch] = {
            int(k): float(v) for k, v in cohort_activity.items()
        }

    def __len__(self) -> int:
        return len(self._snapshots)

    @property
    def epochs(self) -> list[int]:
        """Epochs with a recorded snapshot, ascending."""
        return sorted(self._snapshots)

    def snapshot(self, epoch: int) -> dict[int, float]:
        """The cohort-activity dict recorded for ``epoch``."""
        try:
            return dict(self._snapshots[epoch])
        except KeyError:
            raise ConfigError(f"no snapshot recorded for epoch {epoch}") from None

    def final_row(self) -> dict[int, float]:
        """The last snapshot: the paper's published map (after batch 10)."""
        if not self._snapshots:
            raise ConfigError("no snapshots recorded")
        return dict(self._snapshots[max(self._snapshots)])

    def final_fractions(self) -> np.ndarray:
        """Final-row fractions ordered by cohort epoch (dense array)."""
        row = self.final_row()
        return np.array([row[c] for c in sorted(row)], dtype=np.float64)
