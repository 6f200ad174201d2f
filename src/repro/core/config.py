"""Simulation configuration.

One frozen dataclass captures every knob of the paper's experimental
setup (§2): the storage budget DBSIZE, the update volatility
(upd-perc), run length, query batch size and the root seed from which
all component generators are derived — plus the engine's execution
modes.  It is the single run context: the CLI builds one ``base``
config from its flags and hands it to the experiment runner, which
derives every config it needs from that ``base``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .._util.rng import DEFAULT_SEED
from .._util.validation import (
    check_fraction,
    check_in,
    check_non_negative_int,
    check_positive_int,
)
from ..query.planner import PLAN_MODES
from ..query.plans import parse_query_spec

__all__ = [
    "COMPRESS_MODES",
    "REBALANCE_POLICIES",
    "STATS_MODES",
    "SimulationConfig",
]

#: Shard-rebalancing traffic signals (see
#: :meth:`repro.partitioning.PartitionedAmnesiaDatabase.rebalance`):
#: ``hits`` splits budget by query-hit counts, ``rows`` by the
#: coverage-based rows-matched counters, ``adaptive`` additionally
#: splits hot shard boundaries and merges cold adjacent ones.  Defined
#: here (not in ``repro.partitioning``) so the config layer never
#: imports the partitioned store it configures.
REBALANCE_POLICIES = ("hits", "rows", "adaptive")

#: Statistics sources for the planner's cardinality estimates (and the
#: adaptive partitioner's split cuts): ``uniform`` keeps the zone map's
#: per-cohort uniformity assumption and midpoint splits, ``hist``
#: attaches per-column :class:`~repro.stats.TableHistogramStats` (value
#: histograms maintained through the observer protocol) so estimates
#: track skewed streams and hot shards split at the traffic-weighted
#: median.  Estimate-only for queries: results are bit-identical under
#: either mode.
STATS_MODES = ("uniform", "hist")

#: Compressed-execution modes: ``off`` keeps every cohort raw, ``on``
#: demotes cold cohorts into best-codec compressed blocks
#: (:class:`~repro.storage.CompressedCohortStore`) that pruned access
#: paths evaluate directly.  Execution-only: results are bit-identical
#: under either mode; only bytes held and work per probed row change.
COMPRESS_MODES = ("off", "on")


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one simulator run.

    Defaults reproduce the paper's headline setting:
    ``dbsize=1000, upd-perc=0.20``, 10 update batches, 1000 queries per
    batch (§2.3, §4.1).  The execution fields (``plan`` through
    ``checkpoint``) default to the same literal values the library
    constructors use; the CLI's ``run`` flags override them in the
    ``base`` config it passes to the experiment runner.

    Attributes
    ----------
    dbsize:
        The constant storage budget in tuples (paper's DBSIZE).
    update_fraction:
        Fraction of DBSIZE inserted (and therefore forgotten) per epoch
        — the paper's ``upd-perc`` / volatility knob.
    epochs:
        Number of update batches after the initial load.
    queries_per_epoch:
        Size of the query batch fired before each update batch.  0
        disables querying (map-only runs such as Figure 1).
    column:
        Name of the value column under study.
    seed:
        Root seed; data, query and policy streams are derived from it
        by name so they are mutually independent.
    histogram_bins:
        Bin count for the divergence diagnostics (0 disables them).
    plan:
        Query access-path mode (see :mod:`repro.query.planner`):
        ``"auto"`` (default) prunes through cohort zone maps or
        indexes when possible, ``"scan"`` forces the historical
        full-oracle scan, ``"zonemap"``/``"index"`` force one path
        (falling back gracefully when its structure is missing), and
        ``"cost"`` prices every applicable path from the zone map's
        cardinality estimates and picks the cheapest.  Every mode
        returns bit-identical results; only the work done per query
        differs.
    stats:
        Cardinality-statistics source (one of :data:`STATS_MODES`):
        ``"uniform"`` (default) keeps the zone map's per-cohort
        uniformity assumption, ``"hist"`` maintains per-column value
        histograms (:class:`~repro.stats.TableHistogramStats`) through
        the observer protocol and feeds them to every cost estimate —
        sharp on skewed (Zipf) streams.  Query results are identical
        under either source; only estimates (and the adaptive
        partitioner's split cuts) change.
    workers:
        Thread-pool width for sharded (partitioned) execution: how many
        per-shard planner+executor pipelines may run concurrently.  1
        (default) executes shards sequentially; results are
        bit-identical at any width.  Consumed by runners that build
        partitioned stores from their config (X2 does); the
        single-table :class:`~repro.core.simulator.AmnesiaSimulator`
        validates and records it but has no shards to fan out over.
    rebalance:
        Traffic signal for :meth:`repro.partitioning.
        PartitionedAmnesiaDatabase.rebalance` — one of
        :data:`REBALANCE_POLICIES` (``hits``, ``rows``, ``adaptive``).
        Consumed the same way as ``workers``.
    cross_query:
        Cross-table query spec (``union:...`` / ``join:...`` — see
        :func:`repro.query.plans.parse_query_spec`) that catalog-backed
        runners execute each epoch (default
        ``"join:s1,s2:on=value"``; the CLI's ``--query`` flag sets it
        in ``base``).  Stored in canonical rendered form.  Consumed by
        the cross-table experiment (X5); single-table runners validate
        and record it but have only one table to scan.
    exec_batch:
        Batch size (rows) for the streaming vectorized execution layer
        (:meth:`repro.query.plans.PlanNode.batches` and streamed
        aggregates); default 4096, and the CLI's ``--batch-size`` flag
        sets it in ``base``.  Distinct from the derived :attr:`batch_size`
        property, which is the paper's *update* batch (tuples inserted
        per epoch).  Execution-only: results are bit-identical at any
        value; only the peak working set changes.
    compress:
        Compressed-execution mode (one of :data:`COMPRESS_MODES`):
        ``"on"`` attaches a
        :class:`~repro.storage.CompressedCohortStore` that demotes
        cold cohorts into best-codec compressed blocks and lets pruned
        access paths evaluate range predicates directly on the encoded
        form; ``"off"`` (default) keeps every cohort raw.  The CLI's
        ``--compress`` flag sets it in ``base``.  Execution-only:
        query results are bit-identical under either mode; only the
        bytes held per retained tuple and the work per probed row
        change.
    checkpoint:
        Path the simulator checkpoints its table to — atomically, with
        ``.prev`` rotation — after the initial load and after every
        epoch (see :func:`repro.storage.save_table` and
        :func:`repro.storage.recover_store`).  The CLI's
        ``--checkpoint`` flag sets it in ``base``; the empty string
        (default) disables checkpointing.  Durability-only:
        the run's results are identical with or without it.
    """

    dbsize: int = 1000
    update_fraction: float = 0.20
    epochs: int = 10
    queries_per_epoch: int = 1000
    column: str = "a"
    seed: int = DEFAULT_SEED
    histogram_bins: int = 64
    plan: str = "auto"
    stats: str = "uniform"
    workers: int = 1
    rebalance: str = "hits"
    cross_query: str = "join:s1,s2:on=value"
    exec_batch: int = 4096
    compress: str = "off"
    checkpoint: str = ""

    def __post_init__(self) -> None:
        check_positive_int(self.dbsize, "dbsize")
        check_fraction(self.update_fraction, "update_fraction")
        check_positive_int(self.epochs, "epochs")
        check_non_negative_int(self.queries_per_epoch, "queries_per_epoch")
        check_non_negative_int(self.histogram_bins, "histogram_bins")
        check_in(self.plan, PLAN_MODES, "plan")
        check_in(self.stats, STATS_MODES, "stats")
        check_positive_int(self.workers, "workers")
        check_in(self.rebalance, REBALANCE_POLICIES, "rebalance")
        check_positive_int(self.exec_batch, "exec_batch")
        check_in(self.compress, COMPRESS_MODES, "compress")
        # Grammar check (binding is lazy) and canonical form, set
        # through object.__setattr__ because the dataclass is frozen.
        spec = parse_query_spec(self.cross_query).render()
        object.__setattr__(self, "cross_query", spec)
        object.__setattr__(self, "checkpoint", str(self.checkpoint).strip())
        if not self.column:
            raise ValueError("column name must be non-empty")
        if self.batch_size < 1:
            raise ValueError(
                f"dbsize * update_fraction must round to >= 1 tuple per "
                f"batch, got {self.dbsize} * {self.update_fraction}"
            )

    @property
    def batch_size(self) -> int:
        """Tuples inserted (and forgotten) per epoch: F = dbsize · upd-perc."""
        return int(round(self.dbsize * self.update_fraction))

    def with_(self, **changes) -> "SimulationConfig":
        """Return a copy with the given fields replaced.

        >>> SimulationConfig().with_(update_fraction=0.8).batch_size
        800
        """
        return replace(self, **changes)
