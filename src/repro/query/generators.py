"""Workload generators: the paper's query templates, parameterised.

Figure 3's generator is reproduced literally (§4.2):

    "The range query generator selects a candidate value v from all
    active tuples and constructs the range
    WHERE attr >= v - 0.01 * RANGE AND attr < v + 0.01 * RANGE
    where RANGE is in the range 0 to the maximum value seen up to the
    latest update batch."

``selectivity`` is the S factor of §2.2: the half-width of the window as
a fraction of RANGE (so S=0.01 reproduces the quoted query and S=1.0
covers the whole domain).  The *anchor* controls where candidate values
come from:

* ``"active"`` — v drawn from active tuples (the Figure 3 generator);
* ``"oracle"`` — v drawn from all tuples ever inserted ("the query
  workload addresses all tuples ever inserted", §4.2 — the upper bound
  on precision loss);
* ``"domain"`` — v uniform over ``[0, RANGE]``;
* ``"recent"`` — v drawn from the newest cohort (fresh-data focus).
"""

from __future__ import annotations

import numpy as np

from .._util.errors import ConfigError, QueryError
from .._util.rng import make_rng
from .._util.validation import check_fraction, check_in, check_positive_int
from ..storage.table import Table
from .predicates import RangePredicate
from .queries import AggregateFunction, AggregateQuery, RangeQuery

__all__ = [
    "ANCHORS",
    "RangeQueryGenerator",
    "AggregateQueryGenerator",
    "MixedWorkload",
]

ANCHORS = ("active", "oracle", "domain", "recent")


def _anchor_value(table: Table, column: str, anchor: str, rng: np.random.Generator) -> int:
    """Pick the candidate value v according to the anchor mode."""
    values = table.values(column)
    if values.size == 0:
        raise QueryError("cannot anchor a query on an empty table")
    if anchor == "active":
        positions = table.active_positions()
        if positions.size == 0:
            # Fully amnesiac table: fall back to the oracle view rather
            # than failing the whole batch.
            return int(values[rng.integers(0, values.size)])
        return int(values[positions[rng.integers(0, positions.size)]])
    if anchor == "oracle":
        return int(values[rng.integers(0, values.size)])
    if anchor == "domain":
        return int(rng.integers(0, int(values.max()) + 1))
    if anchor == "recent":
        cohort = table.cohorts[-1]
        positions = cohort.positions()
        return int(values[positions[rng.integers(0, positions.size)]])
    raise ConfigError(f"unknown anchor {anchor!r}; choose from {ANCHORS}")


def _window(table: Table, column: str, v: int, selectivity: float) -> RangePredicate:
    """Build the paper's ±S·RANGE window around v."""
    value_range = int(table.values(column).max())
    half_width = max(1, int(round(selectivity * value_range)))
    return RangePredicate(column, v - half_width, v + half_width)


class RangeQueryGenerator:
    """Generates the paper's range queries for one column.

    >>> import numpy as np
    >>> from repro.storage import Table
    >>> t = Table("obs", ["a"])
    >>> _ = t.insert_batch(0, {"a": np.arange(100)})
    >>> gen = RangeQueryGenerator("a", selectivity=0.05, rng=7)
    >>> q = gen.generate(t)
    >>> q.predicate.high - q.predicate.low   # window width = 2 * 0.05 * 99
    10
    """

    def __init__(
        self,
        column: str,
        selectivity: float = 0.01,
        anchor: str = "active",
        rng: int | np.random.Generator | None = None,
    ):
        self.column = column
        self.selectivity = check_fraction(selectivity, "selectivity")
        self.anchor = check_in(anchor, ANCHORS, "anchor")
        self._rng = make_rng(rng)

    def generate(self, table: Table) -> RangeQuery:
        """Generate one range query against ``table``."""
        v = _anchor_value(table, self.column, self.anchor, self._rng)
        return RangeQuery(_window(table, self.column, v, self.selectivity))

    def batch(self, table: Table, n: int) -> list[RangeQuery]:
        """Generate a batch of ``n`` queries."""
        n = check_positive_int(n, "batch size")
        return [self.generate(table) for _ in range(n)]


class AggregateQueryGenerator:
    """Generates aggregate queries, whole-table or over a range window.

    ``predicate_selectivity=None`` yields ``SELECT <fn>(col) FROM t``
    (the §4.3 experiment); a fraction yields the same windowed predicate
    as :class:`RangeQueryGenerator`.
    """

    def __init__(
        self,
        column: str,
        function: AggregateFunction = AggregateFunction.AVG,
        predicate_selectivity: float | None = None,
        anchor: str = "active",
        rng: int | np.random.Generator | None = None,
    ):
        self.column = column
        self.function = AggregateFunction(function)
        self.predicate_selectivity = (
            None
            if predicate_selectivity is None
            else check_fraction(predicate_selectivity, "predicate_selectivity")
        )
        self.anchor = check_in(anchor, ANCHORS, "anchor")
        self._rng = make_rng(rng)

    def generate(self, table: Table) -> AggregateQuery:
        """Generate one aggregate query against ``table``."""
        if self.predicate_selectivity is None:
            return AggregateQuery(self.function, self.column, predicate=None)
        v = _anchor_value(table, self.column, self.anchor, self._rng)
        predicate = _window(table, self.column, v, self.predicate_selectivity)
        return AggregateQuery(self.function, self.column, predicate=predicate)

    def batch(self, table: Table, n: int) -> list[AggregateQuery]:
        """Generate a batch of ``n`` queries."""
        n = check_positive_int(n, "batch size")
        return [self.generate(table) for _ in range(n)]


class MixedWorkload:
    """A weighted mix of query generators.

    The simulator fires "a batch of 1000 individual queries" per epoch
    (§2.3); a mixed workload lets that batch contain both range and
    aggregate queries, as §4.1 describes ("a long update run followed by
    range queries and aggregate calculations").

    >>> from repro.storage import Table
    >>> import numpy as np
    >>> t = Table("obs", ["a"])
    >>> _ = t.insert_batch(0, {"a": np.arange(100)})
    >>> mix = MixedWorkload(
    ...     [(3.0, RangeQueryGenerator("a", rng=1)),
    ...      (1.0, AggregateQueryGenerator("a", rng=2))],
    ...     rng=3,
    ... )
    >>> len(mix.batch(t, 8))
    8
    """

    def __init__(
        self,
        weighted_generators,
        rng: int | np.random.Generator | None = None,
    ):
        pairs = list(weighted_generators)
        if not pairs:
            raise ConfigError("MixedWorkload needs at least one generator")
        weights = np.array([w for w, _ in pairs], dtype=np.float64)
        if (weights <= 0).any():
            raise ConfigError("workload weights must be positive")
        self._generators = [g for _, g in pairs]
        self._probs = weights / weights.sum()
        self._rng = make_rng(rng)

    def generate(self, table: Table):
        """Generate one query, choosing a generator by weight."""
        idx = self._rng.choice(len(self._generators), p=self._probs)
        return self._generators[idx].generate(table)

    def batch(self, table: Table, n: int) -> list:
        """Generate a batch of ``n`` queries."""
        n = check_positive_int(n, "batch size")
        return [self.generate(table) for _ in range(n)]
