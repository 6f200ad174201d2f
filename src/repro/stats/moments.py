"""Exact, mergeable moment accumulators over integer streams.

Aggregate-precision experiments, the sharded store's cross-shard
aggregates and the streaming plan engine all fold values into running
statistics that are (a) updated in batches and (b) merged.
:class:`ExactMoments` keeps count, min, max and the exact integer sums
``Σx`` and ``Σx²``, so every derived statistic is identical however the
stream was split or merged.
"""

from __future__ import annotations

import math

import numpy as np

from .._util.errors import ConfigError, QueryError

__all__ = ["ExactMoments"]

#: Σx and Σx² fit int64 while ``n · max(|x|)² < 2**63``.
_INT64_SUM_LIMIT = 2**63


class ExactMoments:
    """Batch-order-invariant moments over an integer stream.

    The amnesiac DBMS is judged against a never-forgetting oracle, so an
    aggregate must not depend on how the work was split: across shards,
    across streamed batches, or across union inputs folded as partials.
    ``ExactMoments`` therefore carries the *exact* sufficient statistics
    ``Σx`` and ``Σx²`` as Python ints (summed in int64 when the batch
    provably cannot overflow, in arbitrary precision otherwise) and
    derives ``mean`` and ``variance`` from them at read time: one batch,
    a thousand, or partials merged in any order all give bit-identical
    results.

    >>> import numpy as np
    >>> whole = ExactMoments.of(np.arange(1000))
    >>> split = ExactMoments.of(np.arange(137))
    >>> split.merge(ExactMoments.of(np.arange(137, 1000)))
    >>> (whole.mean, whole.variance) == (split.mean, split.variance)
    True
    >>> whole.count, whole.total, whole.min, whole.max
    (1000, 499500, 0, 999)
    """

    __slots__ = ("count", "min", "max", "total", "_sumsq")

    def __init__(self) -> None:
        self.count = 0
        self.min: int | float = math.inf
        self.max: int | float = -math.inf
        #: Exact integer sum of the stream.
        self.total = 0
        self._sumsq = 0

    @classmethod
    def of(cls, values: np.ndarray) -> "ExactMoments":
        """Accumulator over one integer value array."""
        moments = cls()
        moments.update(values)
        return moments

    def update(self, values: np.ndarray) -> None:
        """Add a batch of integer observations.

        Raises :class:`~repro._util.errors.QueryError` on a non-empty
        batch that is not of an integer dtype; an empty batch of any
        dtype is a no-op.
        """
        values = np.asarray(values)
        if values.size == 0:
            return
        if values.dtype.kind not in "iu":
            raise QueryError(
                f"exact moments need integer values, got dtype {values.dtype}"
            )
        lo, hi = int(values.min()), int(values.max())
        bound = max(abs(lo), abs(hi))
        if values.size * bound * bound < _INT64_SUM_LIMIT:
            values = values.astype(np.int64, copy=False)
            total = int(values.sum())
            sumsq = int(np.dot(values, values))
        else:
            wide = values.astype(object)
            total = int(wide.sum())
            sumsq = int(np.dot(wide, wide))
        self.count += int(values.size)
        self.total += total
        self._sumsq += sumsq
        self.min = min(self.min, lo)
        self.max = max(self.max, hi)

    def merge(self, other: "ExactMoments") -> None:
        """Fold another accumulator in (exact: sums and extrema add up)."""
        self.count += other.count
        self.total += other.total
        self._sumsq += other._sumsq
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        """Σx / n from the exact sum — identical under any batching."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    @property
    def variance(self) -> float:
        """Population variance from exact sums: (n·Σx² − (Σx)²) / n²."""
        n = self.count
        if n < 2:
            return 0.0
        return (n * self._sumsq - self.total * self.total) / (n * n)

    @property
    def std(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    def as_dict(self) -> dict:
        """Plain-dict snapshot (for reports and summaries)."""
        if self.count == 0:
            raise ConfigError("no observations accumulated")
        return {
            "count": self.count,
            "mean": self.mean,
            "variance": self.variance,
            "min": self.min,
            "max": self.max,
            "sum": self.total,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMoments):
            return NotImplemented
        return (
            self.count == other.count
            and self.total == other.total
            and self._sumsq == other._sumsq
            and self.min == other.min
            and self.max == other.max
        )

    def __repr__(self) -> str:
        return (
            f"ExactMoments(count={self.count}, sum={self.total}, "
            f"mean={self.mean:.6g})"
        )
