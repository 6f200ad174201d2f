"""The public facade: a database that forgets.

:class:`AmnesiaDatabase` is the library's "downstream user" API: a
single-table columnar store with a tuple budget and a pluggable amnesia
policy.  It is event-driven — every insert advances the timeline and
triggers forgetting as soon as the budget is exceeded, and queries can
be issued at any point — and the :class:`~repro.core.simulator.
AmnesiaSimulator` runs its scripted experiments on it.

>>> import numpy as np
>>> from repro.amnesia import FifoAmnesia
>>> db = AmnesiaDatabase(budget=100, policy=FifoAmnesia(), columns=("a",))
>>> _ = db.insert({"a": np.arange(150)})
>>> db.active_count
100
>>> db.range_query("a", 0, 50).rf   # the first 50 rows were forgotten
0
"""

from __future__ import annotations

import numpy as np

from .._util.errors import ConfigError
from .._util.rng import DEFAULT_SEED, spawn
from .._util.validation import check_in, checked_int64
from ..amnesia.base import AmnesiaPolicy
from ..indexes.base import Index
from ..indexes.brin import BlockRangeIndex
from ..indexes.sorted_index import SortedIndex
from ..query.executor import QueryExecutor
from ..query.planner import PLAN_MODES, table_planner
from ..query.predicates import RangePredicate
from ..query.queries import (
    AggregateFunction,
    AggregateQuery,
    AggregateResult,
    RangeQuery,
    RangeResult,
)
from ..storage.table import Table
from .config import COMPRESS_MODES, STATS_MODES

__all__ = ["AmnesiaDatabase"]

_INDEX_KINDS = {
    "sorted": SortedIndex,
    "brin": BlockRangeIndex,
}


class AmnesiaDatabase:
    """A self-pruning columnar store with a fixed tuple budget.

    Parameters
    ----------
    budget:
        Maximum number of active tuples (the paper's DBSIZE).
    policy:
        Amnesia strategy invoked whenever an insert pushes the active
        count above the budget.
    columns:
        Column names (all int64).
    seed:
        Seed for the policy's random stream.
    disposition:
        Optional forgotten-data disposition (see :mod:`repro.lifecycle`).
    plan:
        Query access-path mode (see :mod:`repro.query.planner`).  Any
        mode other than ``"scan"`` attaches a cohort zone map so range
        queries can prune cohorts (and, under ``"cost"``, feed the
        cardinality estimates); ``"index"`` plans additionally need
        an index created via :meth:`create_index`.  Default
        ``"auto"``; experiments pass their run config's ``plan`` (the
        CLI's ``--plan`` flag, via ``base``).
    value_bounds:
        Optional ``{column: (low, high)}`` invariants handed to the
        planner — a range shard declares its partition bounds here so
        out-of-range probes are answered from statistics alone.
    stats:
        Cardinality-statistics source (see
        :data:`repro.core.config.STATS_MODES`): ``"hist"`` attaches
        per-column :class:`~repro.stats.TableHistogramStats` so the
        planner's estimates track skewed value distributions;
        ``"uniform"`` keeps the zone map's per-cohort uniformity
        assumption (default).  Experiments pass their run config's
        ``stats`` (the CLI's ``--stats`` flag, via ``base``).
        Estimate-only: query results are identical under either
        source.
    compress:
        Compressed-execution mode (see
        :data:`repro.core.config.COMPRESS_MODES`): ``"on"`` attaches a
        :class:`~repro.storage.CompressedCohortStore` — after every
        insert's budget enforcement, cohorts old enough to be cold are
        demoted into best-codec compressed blocks, and the planner's
        pruned access paths evaluate range predicates directly on the
        encoded form.  Skipped in ``"scan"`` plan mode like the zone
        map: the trust-nothing baseline reads raw columns only.
        Default ``"off"``; experiments pass their run config's
        ``compress`` (the CLI's ``--compress`` flag, via ``base``).
        Execution-only: query results are bit-identical either way.
    """

    def __init__(
        self,
        budget: int,
        policy: AmnesiaPolicy,
        columns=("a",),
        seed: int = DEFAULT_SEED,
        disposition=None,
        table_name: str = "amnesia_db",
        plan: str = "auto",
        value_bounds: dict | None = None,
        stats: str = "uniform",
        compress: str = "off",
    ):
        if budget < 1:
            raise ConfigError(f"budget must be >= 1, got {budget}")
        self.budget = int(budget)
        self.policy = policy
        self.table = Table(table_name, columns)
        self.plan_mode = check_in(plan, PLAN_MODES, "plan")
        self.stats_mode = check_in(stats, STATS_MODES, "stats")
        self.compress_mode = check_in(compress, COMPRESS_MODES, "compress")
        self.planner = table_planner(
            self.table,
            self.plan_mode,
            stats=self.stats_mode,
            compress=self.compress_mode,
            value_bounds=value_bounds,
        )
        self.compressed = self.planner.compressed
        self.executor = QueryExecutor(
            self.table, record_access=True, planner=self.planner
        )
        self._policy_rng = spawn(seed, "facade-policy")
        self._epoch = 0
        self._disposition = disposition
        if disposition is not None:
            self.table.add_observer(disposition)

    # -- state ---------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Current timeline position (one tick per insert call)."""
        return self._epoch

    @property
    def active_count(self) -> int:
        """Tuples currently visible to queries."""
        return self.table.active_count

    @property
    def total_rows(self) -> int:
        """Tuples ever inserted."""
        return self.table.total_rows

    @property
    def disposition(self):
        """The forgotten-data disposition, if any."""
        return self._disposition

    # -- writes -----------------------------------------------------------

    def advance_epoch_to(self, epoch: int) -> None:
        """Fast-forward the timeline without inserting.

        Used when a shard's history is migrated into a fresh database
        (partition boundary splits/merges): the batches were replayed
        with their original epochs, so the clock must resume from the
        source shard's epoch, not from zero.
        """
        if epoch < self._epoch:
            raise ConfigError(
                f"cannot rewind epoch from {self._epoch} to {epoch}"
            )
        self._epoch = int(epoch)

    def insert(self, values_by_column: dict) -> np.ndarray:
        """Insert a batch; forget down to the budget if needed.

        Returns the positions of the inserted rows.  Each call advances
        the epoch by one, so policies measuring age-in-epochs see every
        insert batch as a new cohort.  Values are cast to ``int64``
        with a lossless-cast check: a float like ``2.7`` raises
        :class:`~repro._util.errors.QueryError` instead of silently
        truncating to ``2``.
        """
        values_by_column = {
            name: checked_int64(
                values, f"insert values for column {name!r}"
            )
            for name, values in values_by_column.items()
        }
        self._epoch += 1
        positions = self.table.insert_batch(self._epoch, values_by_column)
        self.policy.on_insert(self.table, positions, self._epoch)
        self.enforce_budget()
        if self.compressed is not None:
            # Age-based demotion keyed on the insert timeline alone, so
            # every configuration demotes the same cohorts at the same
            # epochs (results are plan/worker independent either way).
            self.compressed.demote_cold(self._epoch)
        return positions

    def enforce_budget(self) -> None:
        """Forget down to the budget now (used after budget changes)."""
        excess = max(self.table.active_count - self.budget, 0)
        if excess == 0 and not self.policy.allows_overshoot:
            return
        # Overshooting policies (privacy wrappers) must run every epoch
        # even when the budget holds: mandatory purges do not wait for
        # storage pressure.
        victims = self.policy.select_victims(
            self.table, excess, self._epoch, self._policy_rng
        )
        victims = self.policy.validate_victims(self.table, victims, excess)
        if victims.size:
            self.table.forget(victims, self._epoch)

    # -- reads ---------------------------------------------------------------

    def range_query(self, column: str, low: int, high: int) -> RangeResult:
        """``SELECT * WHERE low <= column < high`` with precision bookkeeping."""
        query = RangeQuery(RangePredicate(column, low, high))
        return self.executor.execute_range(query, self._epoch)

    @staticmethod
    def _aggregate_query(
        function: AggregateFunction | str,
        column: str,
        low: int | None,
        high: int | None,
    ) -> AggregateQuery:
        """Validate window bounds and build the query (shared by both
        the scalar and the moments aggregate paths)."""
        if (low is None) != (high is None):
            raise ConfigError("supply both low and high, or neither")
        predicate = None
        if low is not None and high is not None:
            predicate = RangePredicate(column, low, high)
        return AggregateQuery(AggregateFunction(function), column, predicate)

    def aggregate(
        self,
        function: AggregateFunction | str,
        column: str,
        low: int | None = None,
        high: int | None = None,
    ) -> AggregateResult:
        """Aggregate over the whole table or over a range window."""
        query = self._aggregate_query(function, column, low, high)
        return self.executor.execute_aggregate(query, self._epoch)

    def aggregate_moments(
        self,
        function: AggregateFunction | str,
        column: str,
        low: int | None = None,
        high: int | None = None,
    ):
        """Mergeable twin of :meth:`aggregate`: (active, missed) moments.

        Same validation and planner-routed execution as
        :meth:`aggregate`, but returns per-view
        :class:`~repro.stats.ExactMoments` for callers (the partitioned
        store) that must merge across databases before finalizing.
        """
        query = self._aggregate_query(function, column, low, high)
        return self.executor.execute_moments(query, self._epoch)

    # -- persistence ------------------------------------------------------

    def checkpoint(self, path):
        """Save this database to ``path`` (see :func:`repro.storage.save_store`).

        The checkpoint carries the table (values, activity, metadata,
        cohorts) plus the facade state a restore cannot rederive:
        budget, epoch, plan and stats modes, and the policy name.
        Restore with :func:`repro.storage.load_store`, supplying a
        ``policy_factory`` — policy objects themselves are not
        serialized (they rebuild their bookkeeping from the restored
        table, like indexes do).
        """
        from ..storage.io import save_store

        return save_store(self, path)

    # -- indexing ---------------------------------------------------------

    def create_index(self, column: str, kind: str = "sorted", **kwargs) -> Index:
        """Create an index on ``column`` and register it with the planner.

        ``kind`` is ``"sorted"`` (value-ordered; serves point and range
        probes and orders sort-merge joins) or ``"brin"`` (block ranges);
        any other kind raises :class:`ConfigError`.  Extra keyword
        arguments go to the index constructor.  The index is
        built from the table's current state (late creation is safe)
        and maintained through the observer protocol afterwards.
        """
        factory = _INDEX_KINDS.get(kind)
        if factory is None:
            raise ConfigError(
                f"unknown index kind {kind!r}; "
                f"choose from {tuple(_INDEX_KINDS)}"
            )
        return self.planner.register_index(factory(self.table, column, **kwargs))

    # -- introspection -----------------------------------------------------------

    def explain(self, column: str, low: int, high: int):
        """Preview the access path for a range query without running it."""
        return self.planner.explain(RangePredicate(column, low, high))

    def plan_report(self) -> str:
        """EXPLAIN-style report of the planner's activity so far."""
        return self.planner.plan_report()

    def stats(self) -> dict:
        """Operational snapshot for dashboards and examples."""
        return {
            "epoch": self._epoch,
            "budget": self.budget,
            "active_rows": self.table.active_count,
            "total_rows": self.table.total_rows,
            "forgotten_rows": self.table.forgotten_count,
            "policy": self.policy.name,
            "cohorts": len(self.table.cohorts),
            "plan": self.plan_mode,
            "stats": self.stats_mode,
            "compress": self.compress_mode,
            "compressed": (
                None if self.compressed is None else self.compressed.byte_report()
            ),
        }

    def __repr__(self) -> str:
        return (
            f"AmnesiaDatabase(budget={self.budget}, policy={self.policy.name!r}, "
            f"active={self.active_count}/{self.total_rows})"
        )
