"""A catalog: named tables behind one planning surface.

The paper's simulator has a fixed schema ("a collection of columns",
§2.1); a catalog is nevertheless useful for the examples and the CLI,
where several tables (e.g. per-sensor streams) coexist in one run.

Beyond the registry, the catalog is the multi-table face of the query
planner: registering a table builds its
:class:`~repro.query.planner.QueryPlanner` (zone-map-backed unless the
catalog's mode is ``"scan"``) and its access-recording
:class:`~repro.query.executor.QueryExecutor`, stored with the table
and its lock as one entry under the name, and the catalog exposes
``plan()``/``explain()``/``execute()`` per table plus one
:meth:`plan_report` spanning them all — multi-table runs share a
single plan story instead of each call site wiring its own access
paths.

Above the per-table planners sits the cross-table layer
(:mod:`repro.query.plans`): :meth:`Catalog.query` executes
union/join plan trees — over plain tables and registered sharded
stores (:meth:`Catalog.register_sharded`) — with leaf scans fanned out
on the catalog's worker pool under per-table locks, and
:meth:`Catalog.explain_query` renders the node tree with per-node cost
estimates.

Cache-invalidation contract (the serving layer builds on this):

* Every statistics structure a planner prices with carries a
  **monotonic generation counter** bumped on each observer event
  (:attr:`~repro.storage.cohorts.CohortZoneMap.generation`,
  :attr:`~repro.stats.TableHistogramStats.generation`), folded into
  :attr:`~repro.query.planner.QueryPlanner.generation`.  A cached plan
  keyed on ``(source, predicate shape, generation)`` is valid exactly
  as long as the generation it was planned under still stands.
* Cached *results* record the **cohort set** their matches touched;
  a forget event invalidates exactly the entries whose cohort sets it
  intersects (the :class:`~repro.storage.table.TableObserver` protocol
  delivers the newly forgotten positions), and an insert invalidates
  entries whose predicate bounds cannot provably exclude the new rows
  — so a cached answer is served iff it is bit-identical to a fresh
  execution.
* Dropping or re-creating a source is announced through the catalog's
  **lifecycle hooks** (:meth:`Catalog.add_lifecycle_hook`), so caches
  keyed by source name never serve an answer computed against a
  previous table of the same name.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from contextlib import nullcontext

from typing import TYPE_CHECKING

from .._util.errors import SchemaError
from .._util.validation import check_in, check_positive_int
from .table import Table

if TYPE_CHECKING:  # pragma: no cover
    from ..query.executor import QueryExecutor
    from ..query.planner import QueryPlanner

__all__ = ["Catalog"]


class Catalog:
    """Registry of tables by name, each queried through a shared planner.

    Parameters
    ----------
    plan:
        Access-path mode for every table's planner (one of
        :data:`~repro.query.planner.PLAN_MODES`); default ``"auto"``.
        Catalog-backed experiments pass their run config's ``plan``
        (the CLI's ``--plan`` flag, via ``base``).
    workers:
        Fan-out width for cross-table plans (:meth:`query`): how many
        leaf scans may run concurrently (leaves are grouped by source,
        so access accounting is bit-identical at any width).
        Default 1.
    stats:
        Cardinality-statistics source for every table's planner (one
        of :data:`repro.core.config.STATS_MODES`): ``"hist"`` attaches
        per-table :class:`~repro.stats.TableHistogramStats` so cost
        estimates — including cross-table join cardinalities — track
        skewed streams.  Default ``"uniform"``.

    >>> cat = Catalog()
    >>> t = cat.create_table("obs", ["a"])
    >>> cat.get("obs") is t
    True
    """

    def __init__(
        self, plan: str = "auto", workers: int = 1, stats: str = "uniform"
    ) -> None:
        # Imported lazily: the query package imports storage, so
        # module-level imports of these higher layers would be circular.
        from .._util.parallel import FanOutPool
        from ..core.config import STATS_MODES
        from ..query.planner import PLAN_MODES

        #: The access-path mode and statistics source every table's
        #: planner is built with.
        self.plan_mode = check_in(plan, PLAN_MODES, "plan")
        self.stats_mode = check_in(stats, STATS_MODES, "stats")
        self.workers = workers
        self._fanout = FanOutPool()
        # name -> (table, planner, executor, lock), built together at
        # registration.  The lock serializes the table's planner+
        # executor pipeline (the catalog twin of the sharded store's
        # per-shard locks): concurrent executions or cross-table queries
        # touching one table cannot race its access accounting or
        # planner counters.
        self._tables: dict[
            str, tuple[Table, "QueryPlanner", "QueryExecutor", threading.Lock]
        ] = {}
        self._sharded: dict[str, object] = {}
        # Serializes registry mutations (name check, build and insert
        # in one step) and the cross-table query summary.
        self._lock = threading.Lock()
        # Lifecycle subscribers: ``hook(event, name)`` with ``event``
        # in {"create", "drop"} — fired after registry mutations,
        # outside the catalog's locks (hooks may re-enter the catalog).
        # The serving caches subscribe here so a drop→recreate under a
        # reused name can never serve state of the previous table.
        self._lifecycle_hooks: list = []
        self._cross_queries = 0
        #: (node, result summary) of the newest cross-table query —
        #: rendered lazily by :meth:`plan_report`, so the hot path
        #: never pays for per-node cost estimation it was not asked
        #: for, and the summary keeps only per-node counts, never the
        #: materialized row matrices.
        self._last_cross: tuple | None = None

    @property
    def workers(self) -> int:
        """The fan-out width cross-table execution uses.

        Mutable (like the sharded store's ``workers``) — benchmarks
        flip it between runs; results are bit-identical at any width.
        """
        return self._workers

    @workers.setter
    def workers(self, value: int) -> None:
        self._workers = check_positive_int(value, "workers")

    def create_table(self, name: str, column_names) -> Table:
        """Create and register a new table."""
        table = Table(name, column_names)
        self.register(table)
        return table

    def register(self, table: Table) -> None:
        """Register a table, building its planner and executor.

        The planner comes from :func:`~repro.query.planner.table_planner`
        with the catalog's plan and statistics modes; its structures
        backfill over any existing history and observe the table from
        here on.  The name check, the build and the insertion happen
        under one lock, so of two racing registrations of one name
        exactly one wins, and the loser attaches nothing to its table.
        """
        from ..query.executor import QueryExecutor
        from ..query.planner import table_planner

        name = table.name
        with self._lock:
            if name in self._tables:
                raise SchemaError(f"table {name!r} already exists")
            if name in self._sharded:
                raise SchemaError(f"{name!r} already names a sharded store")
            planner = table_planner(table, self.plan_mode, stats=self.stats_mode)
            executor = QueryExecutor(table, planner=planner)
            self._tables[name] = (table, planner, executor, threading.Lock())
        self._notify("create", name)

    def register_sharded(self, name: str, store) -> None:
        """Register a :class:`~repro.partitioning.
        PartitionedAmnesiaDatabase` as a named cross-table query source.

        Sharded stores keep their own per-shard planners and fan-out
        pool; registration only makes them addressable from plan trees
        (:class:`~repro.query.plans.ShardedScanNode`) and query specs.
        """
        # The full contract the query/explain/report paths rely on —
        # rejected here, next to the registration call, instead of as
        # an AttributeError deep inside a later explain or report.
        required = ("scan_chunks", "estimate_scan", "partition_count", "plan_mode")
        missing = [attr for attr in required if not hasattr(store, attr)]
        if missing:
            raise SchemaError(
                f"sharded source {name!r} must expose {required}; "
                f"{type(store).__name__} lacks {missing}"
            )
        with self._lock:
            if name in self._tables or name in self._sharded:
                raise SchemaError(f"{name!r} already names a catalog source")
            self._sharded[name] = store
        self._notify("create", name)

    def sharded(self, name: str):
        """Look a registered sharded store up by name."""
        try:
            return self._sharded[name]
        except KeyError:
            raise SchemaError(f"no sharded store named {name!r}") from None

    def has_sharded(self, name: str) -> bool:
        """True when ``name`` is a registered sharded store."""
        return name in self._sharded

    def sharded_names(self) -> list[str]:
        """All registered sharded store names."""
        return list(self._sharded)

    def _entry(self, name: str):
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(f"no table named {name!r}") from None

    def get(self, name: str) -> Table:
        """Look a table up by name."""
        return self._entry(name)[0]

    def drop(self, name: str) -> None:
        """Remove a table or sharded store (its data is unreferenced)."""
        with self._lock:
            if name in self._sharded:
                del self._sharded[name]
            elif self._tables.pop(name, None) is None:
                raise SchemaError(f"no table named {name!r}")
        self._notify("drop", name)

    # -- lifecycle hooks -----------------------------------------------------

    def add_lifecycle_hook(self, hook) -> None:
        """Subscribe ``hook(event, name)`` to registry mutations.

        ``event`` is ``"create"`` or ``"drop"``; hooks fire after the
        mutation, outside the catalog's locks (they may re-enter the
        catalog).  Caches keyed by source name subscribe here to shed
        state across a drop→recreate of the same name.
        """
        if hook not in self._lifecycle_hooks:
            self._lifecycle_hooks.append(hook)

    def remove_lifecycle_hook(self, hook) -> None:
        """Unsubscribe a hook registered via :meth:`add_lifecycle_hook`."""
        if hook in self._lifecycle_hooks:
            self._lifecycle_hooks.remove(hook)

    def _notify(self, event: str, name: str) -> None:
        for hook in list(self._lifecycle_hooks):
            hook(event, name)

    # -- planning surface ----------------------------------------------------

    def planner(self, name: str) -> "QueryPlanner":
        """The table's planner, built when the table was registered."""
        return self._entry(name)[1]

    def executor(self, name: str) -> "QueryExecutor":
        """The table's access-recording executor, bound to its planner.

        A read-only pass builds its own ``QueryExecutor(table,
        record_access=False, planner=catalog.planner(name))``.
        """
        return self._entry(name)[2]

    def create_index(self, name: str, column: str, index_factory, **kwargs):
        """Build ``index_factory(table, column, **kwargs)`` and register it."""
        index = index_factory(self.get(name), column, **kwargs)
        return self.planner(name).register_index(index)

    def plan(self, name: str, query_or_predicate):
        """Preview the access path one table's planner would take."""
        return self.planner(name).explain(query_or_predicate)

    def explain(self, name: str, query_or_predicate):
        """Alias of :meth:`plan` (EXPLAIN-style naming)."""
        return self.plan(name, query_or_predicate)

    def source_lock(self, name: str):
        """Serialization guard for one source's query pipeline.

        Tables return their catalog lock; sharded stores return a null
        context because they already synchronize internally — their
        write-preferring :class:`~repro._util.parallel.EpochGate`
        serializes ingest publication against readers, and per-shard
        locks cover each shard's planner+executor pipeline.  Every
        catalog-routed execution path (``execute`` and the cross-table
        plan leaves) acquires this around the planner+executor
        pipeline, so concurrent callers — two threads executing, or
        one racing a :meth:`query` — can never race a table's access
        accounting or planner counters.

        Raises :class:`~repro._util.errors.SchemaError` for unknown
        names.
        """
        if name in self._sharded:
            return nullcontext()
        return self._entry(name)[3]

    def execute(self, name: str, query, epoch: int):
        """Run a query against one table through its catalog executor."""
        _, _, executor, lock = self._entry(name)
        with lock:
            return executor.execute(query, epoch)

    # -- cross-table queries -------------------------------------------------

    def query(
        self,
        plan,
        epoch: int,
        *,
        record_access: bool = True,
        batch_size: int = 4096,
    ):
        """Execute a cross-table plan tree (or compact spec string).

        ``plan`` is a :class:`~repro.query.plans.PlanNode` — built
        directly from :class:`~repro.query.plans.TableScanNode` /
        :class:`~repro.query.plans.UnionNode` /
        :class:`~repro.query.plans.JoinNode` — or a spec string such as
        ``"join:s1,s2:on=value"`` bound via
        :func:`~repro.query.plans.build_plan`.  Leaf scans fan out on
        the catalog's pool (``workers``), grouped by source so access
        accounting stays race-free; results are bit-identical at any
        width.  Returns a :class:`~repro.query.plans.NodeResult` — or,
        for an aggregate plan (an :class:`~repro.query.plans.
        AggregateNode` root, or a spec with ``agg=``), a
        :class:`~repro.query.plans.StreamedAggregate` computed by the
        streaming engine without materializing intermediate rows;
        ``batch_size`` bounds that engine's working set (default 4096
        rows; experiments pass their run config's ``exec_batch``, the
        CLI's ``--batch-size``).
        """
        from ..query.plans import build_plan, execute_plan, summarize_result

        node = build_plan(self, plan) if isinstance(plan, str) else plan
        result = execute_plan(
            node,
            self,
            epoch,
            pool=self._fanout,
            workers=self.workers,
            record_access=record_access,
            batch_size=batch_size,
        )
        summary = summarize_result(result)
        with self._lock:
            self._cross_queries += 1
            self._last_cross = (node, summary, batch_size)
        return result

    def explain_query(self, plan, *, batch_size: int = 4096) -> str:
        """EXPLAIN a cross-table plan: the node tree with cost estimates.

        ``batch_size`` is the one :meth:`query` would run with; an
        aggregate plan names it in its streaming strategy.
        """
        from ..query.plans import build_plan, explain_plan

        node = build_plan(self, plan) if isinstance(plan, str) else plan
        return explain_plan(node, self, batch_size)

    def checkpoint(self, path):
        """Save every table and sharded store (see :func:`repro.storage.save_store`).

        Sharded members flush (publishing queued batches) before they
        are snapshotted.  Restore with :func:`repro.storage.load_store`
        — pass ``policy_factory`` when the catalog holds sharded
        stores, since their policies rebuild instead of serializing.
        """
        from .io import save_store

        return save_store(self, path)

    def close(self) -> None:
        """Release the fan-out thread pool (catalog stays usable)."""
        self._fanout.close()

    def __enter__(self) -> "Catalog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def plan_report(self) -> str:
        """One EXPLAIN-style report covering every registered source."""
        lines = [
            f"Catalog(plan={self.plan_mode!r}, stats={self.stats_mode!r}) — "
            f"{len(self._tables)} table(s), workers {self.workers}"
        ]
        for name, (_, planner, _, _) in self._tables.items():
            lines.append(f"table {name!r}:")
            lines.extend("  " + line for line in planner.plan_report().splitlines())
        for name, store in self._sharded.items():
            lines.append(
                f"sharded {name!r}: {store.partition_count} shard(s), "
                f"plan={store.plan_mode!r}"
            )
        if self._cross_queries:
            from ..query.plans import render_summary

            lines.append(
                f"cross-table queries executed: {self._cross_queries}; "
                "last plan:"
            )
            node, summary, batch_size = self._last_cross
            rendered = render_summary(node, summary, self, batch_size)
            lines.extend("  " + line for line in rendered.splitlines())
        return "\n".join(lines)

    # -- registry protocol ---------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[Table]:
        return (entry[0] for entry in self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    def names(self) -> list[str]:
        """All registered table names."""
        return list(self._tables)
