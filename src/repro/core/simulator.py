"""The Data Amnesia Simulator (paper §2).

Drives the full experimental loop in a "query dominant environment,
where a batch of queries is followed by a batch of updates, immediately
followed by applying an amnesia algorithm to guarantee that the
database is always of DBSIZE" (§2.3):

.. code-block:: text

    epoch 0:   load DBSIZE tuples
    epoch e:   run Q queries      -> precision metrics, access counts
               insert F tuples    -> cohort e
               forget >= F tuples -> storage budget restored
               snapshot           -> amnesia map row, epoch report

The loop drives one :class:`~repro.core.database.AmnesiaDatabase`: its
executor answers the query batch, and its :meth:`~repro.core.database.
AmnesiaDatabase.insert` is the update-then-forget step, so the
simulator and the facade share one planner set-up and one forgetting
step.

The simulator owns three independent random streams (data, queries,
policy), all derived from ``config.seed`` by name, so any component can
be swapped without perturbing the others' randomness.
"""

from __future__ import annotations

import numpy as np

from .._util.errors import ConfigError
from .._util.rng import spawn
from ..amnesia.base import AmnesiaPolicy
from ..datagen.distributions import ValueDistribution
from ..metrics.maps import AmnesiaMap
from ..metrics.precision import BatchPrecisionCollector
from ..metrics.reports import EpochReport, RunReport
from ..query.generators import RangeQueryGenerator
from ..stats.divergence import js_divergence
from ..stats.histograms import EquiWidthHistogram
from .config import SimulationConfig
from .database import AmnesiaDatabase

__all__ = ["AmnesiaSimulator"]


class AmnesiaSimulator:
    """Orchestrates one amnesia experiment.

    Parameters
    ----------
    config:
        Run parameters (budget, volatility, epochs, query batch size).
    distribution:
        Value distribution feeding the update stream.
    policy:
        The amnesia strategy under study.
    workload:
        Optional query generator (anything with a
        ``batch(table, n) -> list`` method).  Defaults to the paper's
        Figure 3 range-query generator at S = 0.01 anchored on active
        tuples.
    disposition:
        Optional forgotten-data disposition (see :mod:`repro.lifecycle`)
        registered as a table observer for the whole run.

    >>> from repro.amnesia import FifoAmnesia
    >>> from repro.datagen import UniformDistribution
    >>> sim = AmnesiaSimulator(
    ...     SimulationConfig(dbsize=100, epochs=2, queries_per_epoch=10),
    ...     UniformDistribution(1000),
    ...     FifoAmnesia(),
    ... )
    >>> report = sim.run()
    >>> [r.active_rows for r in report.epochs]
    [100, 100, 100]
    """

    def __init__(
        self,
        config: SimulationConfig,
        distribution: ValueDistribution,
        policy: AmnesiaPolicy,
        workload=None,
        disposition=None,
    ):
        self.config = config
        self.distribution = distribution
        self.policy = policy
        self._data_rng = spawn(config.seed, "data")
        if workload is None and config.queries_per_epoch > 0:
            workload = RangeQueryGenerator(
                config.column,
                selectivity=0.01,
                anchor="active",
                rng=spawn(config.seed, "queries"),
            )
        self.workload = workload
        self.db = AmnesiaDatabase(
            config.dbsize,
            policy,
            columns=(config.column,),
            disposition=disposition,
            table_name="amnesia_sim",
            plan=config.plan,
            stats=config.stats,
            compress=config.compress,
        )
        # The victim stream is the simulator's, derived by name like
        # the data and query streams.
        self.db._policy_rng = spawn(config.seed, "policy")
        if config.plan == "index":
            # Forced index mode would otherwise degrade to zone maps on
            # a bare table; give it the index it was asked to use.
            self.db.create_index(config.column, "sorted")
        self.table = self.db.table
        self.map = AmnesiaMap()
        self._epoch = -1
        self._reports: list[EpochReport] = []

    # -- lifecycle -------------------------------------------------------

    @property
    def current_epoch(self) -> int:
        """Last completed epoch (-1 before the initial load)."""
        return self._epoch

    @property
    def reports(self) -> list[EpochReport]:
        """Epoch reports accumulated so far."""
        return list(self._reports)

    def plan_report(self) -> str:
        """EXPLAIN-style report of the planner's activity so far."""
        return self.db.plan_report()

    def checkpoint(self, path, rotate: bool = False):
        """Save the simulator's table state to ``path``.

        Persists everything the table owns — values, activity bitmap,
        amnesia metadata, cohort log — via
        :func:`repro.storage.save_table`.  Restore with
        :func:`repro.storage.load_table`; config, policy and RNG
        streams rebuild from code (they are inputs, not state), so a
        resumed study re-declares them and adopts the restored table.
        With ``rotate=True`` the previous checkpoint survives as
        ``path.prev`` for :func:`repro.storage.recover_store`.
        """
        from ..storage.io import save_table

        return save_table(self.table, path, rotate=rotate)

    def _auto_checkpoint(self) -> None:
        """Per-epoch durability: checkpoint when the config asks for it.

        Rotation keeps the previous epoch's snapshot as ``.prev``, so
        a crash *during* this save (or anywhere between two saves)
        always leaves a fully-valid checkpoint for ``repro recover``.
        """
        if self.config.checkpoint:
            self.checkpoint(self.config.checkpoint, rotate=True)

    def load_initial(self) -> EpochReport:
        """Epoch 0: fill the table up to DBSIZE."""
        if self._epoch >= 0:
            raise ConfigError("initial load already performed")
        values = self.distribution.sample(self.config.dbsize, self._data_rng)
        # No amnesia step at load: an overshooting policy must not
        # purge the initial cohort before its first epoch.
        positions = self.table.insert_batch(0, {self.config.column: values})
        self.policy.on_insert(self.table, positions, 0)
        self._epoch = 0
        report = self._snapshot(inserted=self.config.dbsize, forgotten=0, precision=None)
        self._auto_checkpoint()
        return report

    def step(self) -> EpochReport:
        """Advance one epoch: queries, then inserts, then amnesia."""
        if self._epoch < 0:
            raise ConfigError("call load_initial() before step()")
        epoch = self._epoch + 1

        precision = self._run_query_batch(epoch)
        inserted = self.config.batch_size
        values = self.distribution.sample(inserted, self._data_rng)
        forgotten_before = self.table.forgotten_count
        # Insert at ``epoch``, then forget down to DBSIZE and demote
        # cold cohorts: the database's one update-then-forget step.
        self.db.insert({self.config.column: values})
        forgotten = self.table.forgotten_count - forgotten_before

        self._epoch = epoch
        report = self._snapshot(
            inserted=inserted, forgotten=forgotten, precision=precision
        )
        self._auto_checkpoint()
        return report

    def run(self) -> RunReport:
        """Execute the configured number of epochs and return the report."""
        if self._epoch < 0:
            self.load_initial()
        while self._epoch < self.config.epochs:
            self.step()
        return RunReport(
            policy_name=self.policy.name,
            distribution_name=self.distribution.name,
            dbsize=self.config.dbsize,
            update_fraction=self.config.update_fraction,
            epochs=list(self._reports),
        )

    # -- phases ------------------------------------------------------------

    def _run_query_batch(self, epoch: int):
        if self.workload is None or self.config.queries_per_epoch == 0:
            return None
        collector = BatchPrecisionCollector()
        queries = self.workload.batch(self.table, self.config.queries_per_epoch)
        for query in queries:
            collector.add(self.db.executor.execute(query, epoch))
        return collector.summary()

    # -- reporting --------------------------------------------------------------

    def _divergence(self) -> float | None:
        bins = self.config.histogram_bins
        if bins == 0:
            return None
        all_values = self.table.values(self.config.column)
        if all_values.size == 0:
            return None
        lo, hi = int(all_values.min()), int(all_values.max())
        oracle = EquiWidthHistogram.from_values(all_values, lo, hi, bins=bins)
        active = EquiWidthHistogram.from_values(
            self.table.active_values(self.config.column), lo, hi, bins=bins
        )
        return js_divergence(active.counts, oracle.counts)

    def _snapshot(self, inserted: int, forgotten: int, precision) -> EpochReport:
        activity = self.table.cohort_activity()
        self.map.add_snapshot(self._epoch, activity)
        report = EpochReport(
            epoch=self._epoch,
            active_rows=self.table.active_count,
            total_rows=self.table.total_rows,
            inserted=inserted,
            forgotten=forgotten,
            precision=precision,
            cohort_activity=activity,
            divergence_js=self._divergence(),
        )
        self._reports.append(report)
        return report
