"""Per-epoch simulation reports.

One :class:`EpochReport` is produced per simulated epoch: the query
batch's precision summary plus storage-level facts (active/total rows,
cohort activity, distribution drift).  A run's list of reports is the
raw material for every figure and table in the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["EpochReport", "RunReport"]


@dataclass(frozen=True)
class EpochReport:
    """Everything measured during one epoch.

    ``precision`` is None for epoch 0 (initial load: no queries ran
    yet) and for runs configured without queries.
    """

    epoch: int
    active_rows: int
    total_rows: int
    inserted: int
    forgotten: int
    precision: object | None  # BatchPrecisionSummary
    cohort_activity: dict[int, float] = field(default_factory=dict)
    divergence_js: float | None = None

    @property
    def forgotten_rows(self) -> int:
        """Rows no longer active at the end of the epoch."""
        return self.total_rows - self.active_rows

    @property
    def error_margin(self) -> float | None:
        """Shortcut to the batch's E metric (None when no queries ran)."""
        return None if self.precision is None else self.precision.error_margin


@dataclass(frozen=True)
class RunReport:
    """A full simulation run: configuration echo plus epoch reports."""

    policy_name: str
    distribution_name: str
    dbsize: int
    update_fraction: float
    epochs: list[EpochReport]

    def precision_series(self) -> list[float]:
        """Error margin E per query epoch (skips epochs without queries)."""
        return [
            r.precision.error_margin
            for r in self.epochs
            if r.precision is not None
        ]

    def aggregate_precision_series(self) -> list[float]:
        """Aggregate value precision per epoch (only aggregate batches)."""
        return [
            r.precision.aggregate_mean_precision
            for r in self.epochs
            if r.precision is not None
            and r.precision.aggregate_mean_precision is not None
        ]

    def final_epoch(self) -> EpochReport:
        """The last epoch report."""
        if not self.epochs:
            raise ValueError("run produced no epochs")
        return self.epochs[-1]
