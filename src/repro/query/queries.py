"""Query and result objects.

Two query groups, exactly the paper's workload (§2.2):

* :class:`RangeQuery` — "simple range queries over a database table,
  controlled by a selectivity factor S";
* :class:`AggregateQuery` — "simple aggregations over sub-ranges, e.g.
  the average (AVG)".

Results carry *both* the amnesiac answer and the oracle answer, because
the simulator "only marks tuples as either active or forgotten, which
gives us the opportunity to precisely calculate the query precision"
(§2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .._util.errors import QueryError
from .predicates import Predicate, TruePredicate

__all__ = [
    "AggregateFunction",
    "RangeQuery",
    "AggregateQuery",
    "RangeResult",
    "AggregateResult",
]


class AggregateFunction(str, Enum):
    """Aggregate operators supported by the executor."""

    AVG = "avg"
    SUM = "sum"
    COUNT = "count"
    MIN = "min"
    MAX = "max"
    VAR = "var"
    STD = "std"

    def from_moments(self, moments) -> float | None:
        """Finalize the operator from a moment accumulator.

        The one finalizer of every aggregate: single-table, sharded,
        streamed and summary-backed reads all fold their values into
        :class:`~repro.stats.ExactMoments` (exact integer sums) and
        finalize here once, so AVG/VAR/STD are identical however the
        values were split — across shards, batches or front ends.

        NULL rule: over no values COUNT answers 0 (an amnesiac database
        still *answers* a count, it just answers it wrong) and every
        other operator answers ``None``.
        """
        if moments.count == 0:
            return 0.0 if self is AggregateFunction.COUNT else None
        if self is AggregateFunction.AVG:
            return float(moments.mean)
        if self is AggregateFunction.SUM:
            return float(moments.total)
        if self is AggregateFunction.COUNT:
            return float(moments.count)
        if self is AggregateFunction.MIN:
            return float(moments.min)
        if self is AggregateFunction.MAX:
            return float(moments.max)
        if self is AggregateFunction.VAR:
            return float(moments.variance)
        if self is AggregateFunction.STD:
            return float(moments.std)
        raise QueryError(f"unhandled aggregate {self}")  # pragma: no cover


@dataclass(frozen=True)
class RangeQuery:
    """A selection returning the set of matching tuples."""

    predicate: Predicate

    @property
    def columns(self) -> tuple[str, ...]:
        """Columns the query reads."""
        return self.predicate.columns


@dataclass(frozen=True)
class AggregateQuery:
    """An aggregate over an optional range predicate.

    With ``predicate=None`` this is the paper's §4.3 query
    ``SELECT AVG(a) FROM t`` — maximum exposure to amnesia.  With a
    range predicate it reflects "daily life, where the focus of
    aggregation can be directed to a specific part of the database".
    """

    function: AggregateFunction
    column: str
    predicate: Predicate | None = None

    def effective_predicate(self) -> Predicate:
        """The predicate to evaluate (TruePredicate when None)."""
        return self.predicate if self.predicate is not None else TruePredicate()

    @property
    def columns(self) -> tuple[str, ...]:
        """Columns the query reads (aggregate column + predicate columns)."""
        cols = [self.column]
        if self.predicate is not None:
            for name in self.predicate.columns:
                if name not in cols:
                    cols.append(name)
        return tuple(cols)


@dataclass(frozen=True)
class RangeResult:
    """Outcome of a range query against the amnesiac + oracle views.

    Attributes mirror the paper's §2.3 metrics:

    * ``rf`` — R_F(Q), tuples returned (active matches);
    * ``mf`` — M_F(Q), tuples missed (forgotten matches);
    * ``precision`` — P_F(Q) = RF / (RF + MF), defined as 1.0 when the
      oracle result is empty (nothing could be missed).
    """

    query: RangeQuery
    active_positions: np.ndarray = field(repr=False)
    missed_positions: np.ndarray = field(repr=False)

    @property
    def rf(self) -> int:
        """Number of tuples in the (amnesiac) result."""
        return int(self.active_positions.size)

    @property
    def mf(self) -> int:
        """Number of tuples missed because they were forgotten."""
        return int(self.missed_positions.size)

    @property
    def oracle_count(self) -> int:
        """RF + MF: the complete-database result size."""
        return self.rf + self.mf

    @property
    def precision(self) -> float:
        """P_F(Q) = RF / (RF + MF); 1.0 for an empty oracle result."""
        denom = self.oracle_count
        return 1.0 if denom == 0 else self.rf / denom


@dataclass(frozen=True)
class AggregateResult:
    """Outcome of an aggregate query against both views.

    ``amnesiac_value`` is None when no active tuple matched (the DBMS
    would return SQL NULL); the oracle value is None only if nothing was
    ever inserted in the range.
    """

    query: AggregateQuery
    amnesiac_value: float | None
    oracle_value: float | None
    active_matches: int
    oracle_matches: int

    @property
    def missed_matches(self) -> int:
        """Matching tuples that were forgotten."""
        return self.oracle_matches - self.active_matches

    @property
    def relative_error(self) -> float:
        """|amnesiac - oracle| / max(|oracle|, 1).

        The denominator floor keeps the metric finite when the true
        aggregate is 0 (e.g. MIN of a serial column).  An unanswerable
        query (amnesiac NULL where the oracle has a value) counts as
        error 1.0 — complete information loss.
        """
        if self.oracle_value is None:
            return 0.0
        if self.amnesiac_value is None:
            return 1.0
        denom = max(abs(self.oracle_value), 1.0)
        return abs(self.amnesiac_value - self.oracle_value) / denom

    @property
    def precision(self) -> float:
        """1 - relative_error, clamped to [0, 1].

        The paper plots aggregate "precision" on the same axis as range
        precision (§4.3, "the graphs came out similar to Figure 3");
        this clamp makes the two directly comparable.
        """
        return max(0.0, 1.0 - self.relative_error)

    @property
    def tuple_precision(self) -> float:
        """P_F over the tuples feeding the aggregate (RF/(RF+MF))."""
        if self.oracle_matches == 0:
            return 1.0
        return self.active_matches / self.oracle_matches
