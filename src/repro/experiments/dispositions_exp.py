"""Experiment I1 — §1's disposition mechanics.

Two mechanisms the paper proposes instead of outright deletion are
exercised end to end:

* **stop-indexing** — "a complete scan will fetch all data, but a fast
  index-based query evaluation will skip the forgotten data": the same
  range query is answered by a full scan (recall 1.0, every tuple
  touched) and by sorted/BRIN index plans (amnesiac recall, a fraction
  of the tuples touched);
* **summaries** — whole-table aggregates answered from live tuples plus
  the min/max/avg/count summaries of everything forgotten are *exact*,
  while the mark-only database drifts.
"""

from __future__ import annotations

import numpy as np

from .._util.rng import spawn
from ..core.config import SimulationConfig
from ..indexes.brin import BlockRangeIndex
from ..indexes.sorted_index import SortedIndex
from ..lifecycle.dispositions import (
    MarkOnlyDisposition,
    StopIndexingDisposition,
    SummaryDisposition,
)
from ..lifecycle.executor import DispositionExecutor
from ..plotting.tables import render_table
from ..query.queries import AggregateFunction
from ..stats.moments import ExactMoments
from .runner import ExperimentResult, default_config, run_once

__all__ = ["run_dispositions"]


def run_dispositions(
    dbsize: int = 2000,
    update_fraction: float = 0.50,
    epochs: int = 8,
    seed: int | None = None,
    base: SimulationConfig | None = None,
    n_probe_queries: int = 50,
) -> ExperimentResult:
    """Measure plan recall/cost under stop-indexing, and summary AVG."""
    overrides = {
        "dbsize": dbsize,
        "update_fraction": update_fraction,
        "epochs": epochs,
        "queries_per_epoch": 0,
        "seed": seed,
    }
    config = default_config(base, **overrides)

    # -- stop-indexing: scan vs index plans ---------------------------------
    disposition = StopIndexingDisposition()
    simulator, _ = run_once(
        config, "uniform", "uniform", disposition=disposition
    )
    table = simulator.table
    sorted_index = SortedIndex(table, config.column)
    brin_index = BlockRangeIndex(table, config.column, block_size=128)

    rng = spawn(config.seed, "i1-probes")
    max_value = int(table.values(config.column).max())
    half_width = max(1, int(0.01 * max_value))

    plans = {
        "scan (stop-indexing)": DispositionExecutor(table, disposition),
        "sorted index": DispositionExecutor(table, disposition, index=sorted_index),
        "BRIN index": DispositionExecutor(table, disposition, index=brin_index),
    }
    totals = {name: {"recall": 0.0, "touched": 0} for name in plans}
    for _ in range(n_probe_queries):
        v = int(rng.integers(0, max_value + 1))
        low, high = v - half_width, v + half_width
        for name, executor in plans.items():
            if executor.index is None:
                outcome = executor.range_scan(config.column, low, high)
            else:
                outcome = executor.range_via_index(config.column, low, high)
            totals[name]["recall"] += outcome.recall
            totals[name]["touched"] += outcome.tuples_touched

    plan_rows = []
    plan_data = {}
    for name, acc in totals.items():
        recall = acc["recall"] / n_probe_queries
        touched = acc["touched"] / n_probe_queries
        plan_rows.append(
            [name, round(recall, 4), round(touched, 1), table.total_rows]
        )
        plan_data[name] = {"recall": recall, "tuples_touched": touched}

    # BRIN shines on clustered (serial) data, where value order follows
    # storage order and zone maps prune almost every block — add that
    # row so the index comparison shows both regimes.
    sim_serial, _ = run_once(config, "serial", "uniform",
                             disposition=StopIndexingDisposition())
    serial_table = sim_serial.table
    serial_brin = BlockRangeIndex(serial_table, config.column, block_size=128)
    serial_executor = DispositionExecutor(
        serial_table, StopIndexingDisposition(), index=serial_brin
    )
    serial_max = int(serial_table.values(config.column).max())
    serial_half = max(1, int(0.01 * serial_max))
    acc_recall, acc_touched = 0.0, 0
    for _ in range(n_probe_queries):
        v = int(rng.integers(0, serial_max + 1))
        outcome = serial_executor.range_via_index(
            config.column, v - serial_half, v + serial_half
        )
        acc_recall += outcome.recall
        acc_touched += outcome.tuples_touched
    plan_rows.append(
        [
            "BRIN index (clustered data)",
            round(acc_recall / n_probe_queries, 4),
            round(acc_touched / n_probe_queries, 1),
            serial_table.total_rows,
        ]
    )
    plan_data["BRIN index (clustered data)"] = {
        "recall": acc_recall / n_probe_queries,
        "tuples_touched": acc_touched / n_probe_queries,
    }

    # -- summaries: exact aggregates over forgotten data ------------------------
    summary_disposition = SummaryDisposition()
    sim2, _ = run_once(
        config, "uniform", "uniform", disposition=summary_disposition
    )
    executor = DispositionExecutor(sim2.table, summary_disposition)
    agg_rows = []
    agg_data = {}
    for function in (AggregateFunction.AVG, AggregateFunction.SUM,
                     AggregateFunction.COUNT, AggregateFunction.MIN,
                     AggregateFunction.MAX):
        with_summary, oracle = executor.aggregate_with_summaries(
            function, config.column
        )
        amnesiac = function.from_moments(
            ExactMoments.of(sim2.table.active_values(config.column))
        )
        denom = max(abs(oracle), 1.0)
        err_summary = abs(with_summary - oracle) / denom
        err_amnesiac = (
            abs(amnesiac - oracle) / denom if amnesiac is not None else 1.0
        )
        agg_rows.append(
            [function.value, round(err_amnesiac, 6), round(err_summary, 6)]
        )
        agg_data[function.value] = {
            "mark_only_error": err_amnesiac,
            "with_summaries_error": err_summary,
        }

    tables = [
        render_table(
            ["plan", "recall vs oracle", "tuples touched / query", "table rows"],
            plan_rows,
            title=(
                "I1a: stop-indexing visibility asymmetry "
                f"({table.total_rows} rows, {table.forgotten_count} forgotten)"
            ),
        ),
        render_table(
            ["aggregate", "rel. error (mark-only)", "rel. error (with summaries)"],
            agg_rows,
            title="I1b: whole-table aggregates answered with forgotten-data summaries",
        ),
    ]
    return ExperimentResult(
        experiment_id="I1",
        title="Forgotten-data disposition mechanics",
        data={"plans": plan_data, "aggregates": agg_data},
        tables=tables,
    )
