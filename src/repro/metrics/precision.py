"""Information precision metrics (paper §2.3).

For a batch of queries fired against the incomplete database the
simulator reports:

* ``RF(Q)`` — tuples in the result;
* ``MF(Q)`` — tuples missed;
* ``PF(Q) = RF/(RF+MF)`` — per-query precision;
* ``E = avg(RF)/avg(RF+MF)`` — the error margin over the whole batch
  (micro-averaged precision: large queries weigh more).

:class:`BatchPrecisionCollector` accumulates per-query results and emits
a :class:`BatchPrecisionSummary`.  Aggregate queries contribute value
precision (1 - relative error) alongside tuple-level counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._util.errors import ConfigError
from ..query.queries import AggregateResult, RangeResult

__all__ = ["BatchPrecisionSummary", "BatchPrecisionCollector"]


@dataclass(frozen=True)
class BatchPrecisionSummary:
    """Precision statistics for one query batch.

    ``macro_precision`` averages PF(Q) per query; ``error_margin`` is
    the paper's E (micro average).  Aggregate fields are None when the
    batch contained no aggregate queries.
    """

    n_range: int
    n_aggregate: int
    total_rf: int
    total_mf: int
    macro_precision: float
    error_margin: float
    aggregate_mean_relative_error: float | None
    aggregate_mean_precision: float | None

    @property
    def n_queries(self) -> int:
        """Total queries summarised."""
        return self.n_range + self.n_aggregate


class BatchPrecisionCollector:
    """Accumulates query results for one epoch's query batch.

    >>> import numpy as np
    >>> from repro.query.queries import RangeQuery, RangeResult
    >>> from repro.query.predicates import RangePredicate
    >>> coll = BatchPrecisionCollector()
    >>> q = RangeQuery(RangePredicate("a", 0, 10))
    >>> coll.add(RangeResult(q, np.arange(3), np.arange(1)))
    >>> coll.summary().error_margin
    0.75
    """

    def __init__(self) -> None:
        self._n_range = 0
        self._n_aggregate = 0
        self._total_rf = 0
        self._total_mf = 0
        self._precision_sum = 0.0
        self._agg_rel_error_sum = 0.0
        self._agg_precision_sum = 0.0

    def add(self, result) -> None:
        """Add one query result (range or aggregate)."""
        if isinstance(result, RangeResult):
            self._n_range += 1
            self._total_rf += result.rf
            self._total_mf += result.mf
            self._precision_sum += result.precision
        elif isinstance(result, AggregateResult):
            self._n_aggregate += 1
            # Tuple-level counts feed E so that aggregate queries also
            # witness missing tuples, exactly like the simulator's
            # mixed batches.
            self._total_rf += result.active_matches
            self._total_mf += result.missed_matches
            self._precision_sum += result.tuple_precision
            self._agg_rel_error_sum += result.relative_error
            self._agg_precision_sum += result.precision
        else:
            raise ConfigError(
                f"unsupported result type {type(result).__name__}"
            )

    def extend(self, results) -> None:
        """Add many results."""
        for result in results:
            self.add(result)

    @property
    def n_results(self) -> int:
        """How many results have been added."""
        return self._n_range + self._n_aggregate

    def summary(self) -> BatchPrecisionSummary:
        """Emit the batch summary (raises if no results were added)."""
        n = self.n_results
        if n == 0:
            raise ConfigError("no query results collected")
        oracle_total = self._total_rf + self._total_mf
        error_margin = 1.0 if oracle_total == 0 else self._total_rf / oracle_total
        return BatchPrecisionSummary(
            n_range=self._n_range,
            n_aggregate=self._n_aggregate,
            total_rf=self._total_rf,
            total_mf=self._total_mf,
            macro_precision=self._precision_sum / n,
            error_margin=error_margin,
            aggregate_mean_relative_error=(
                self._agg_rel_error_sum / self._n_aggregate
                if self._n_aggregate
                else None
            ),
            aggregate_mean_precision=(
                self._agg_precision_sum / self._n_aggregate
                if self._n_aggregate
                else None
            ),
        )
