"""Experiment T2 — §4.3: aggregate query precision.

"To study this, we increased the experimental run length and study the
query SELECT AVG(a) FROM t.  To our surprise the differences were
marginal and the graphs came out similar to Figure 3."

Two readings of "precision" are reported, because the paper's claim
covers both:

* *tuple precision* — the fraction of the tuples feeding the aggregate
  that survived (RF/(RF+MF)); this literally reproduces Figure 3's
  decay, confirming "similar to Figure 3";
* *value precision* — 1 − relative error of the AVG itself; this stays
  near 1.0 under value-blind policies, the paper's own §2.2 intuition
  that "the error introduced vanishes behind the noise".

A windowed variant (AVG over a ±5 % range, "the focus of aggregation
can be directed to a specific part of the database") runs alongside.
"""

from __future__ import annotations

import numpy as np

from .._util.rng import spawn
from ..amnesia.registry import FIGURE3_POLICIES
from ..core.config import SimulationConfig
from ..plotting.linechart import render_linechart
from ..plotting.tables import render_table
from ..query.generators import AggregateQueryGenerator
from .runner import ExperimentResult, default_config, run_once

__all__ = ["run_aggregate_precision"]


def _avg_workload(column: str, seed: int, predicate_selectivity: float | None):
    return AggregateQueryGenerator(
        column,
        predicate_selectivity=predicate_selectivity,
        anchor="active",
        rng=spawn(seed, "t2-agg"),
    )


def run_aggregate_precision(
    dbsize: int = 1000,
    update_fraction: float = 0.80,
    epochs: int = 30,
    queries_per_epoch: int = 50,
    seed: int | None = None,
    base: SimulationConfig | None = None,
    distributions=("uniform", "zipfian"),
    policies=FIGURE3_POLICIES,
    predicate_selectivity: float | None = None,
) -> ExperimentResult:
    """Reproduce the §4.3 aggregate study over a longer run."""
    overrides = {
        "dbsize": dbsize,
        "update_fraction": update_fraction,
        "epochs": epochs + 1,
        "queries_per_epoch": queries_per_epoch,
        "seed": seed,
    }
    config = default_config(base, **overrides)

    tuple_panels: dict[str, dict[str, list[float]]] = {}
    value_panels: dict[str, dict[str, list[float]]] = {}
    charts: list[str] = []
    tables: list[str] = []

    for dist_name in distributions:
        tuple_series: dict[str, list[float]] = {}
        value_series: dict[str, list[float]] = {}
        for policy_name in policies:
            workload = _avg_workload(
                config.column, config.seed, predicate_selectivity
            )
            policy_kwargs = {"column": config.column} if policy_name in ("pair", "dist", "stratified") else None
            _, report = run_once(
                config,
                dist_name,
                policy_name,
                workload=workload,
                policy_kwargs=policy_kwargs,
            )
            tuple_series[policy_name] = report.precision_series()[1:]
            value_series[policy_name] = report.aggregate_precision_series()[1:]
        tuple_panels[dist_name] = tuple_series
        value_panels[dist_name] = value_series

        charts.append(
            render_linechart(
                {k: np.asarray(v) for k, v in tuple_series.items()},
                title=(
                    f"§4.3 aggregate tuple precision — {dist_name} data "
                    f"(AVG, dbsize={dbsize}, upd-perc={update_fraction})"
                ),
                x_label="update batches survived",
            )
        )
        rows = []
        for name in policies:
            rows.append(
                [
                    name,
                    round(tuple_series[name][-1], 4),
                    round(value_series[name][-1], 4),
                    round(float(np.mean(value_series[name])), 4),
                ]
            )
        tables.append(
            render_table(
                ["policy", "tuple E (final)", "AVG precision (final)", "AVG precision (mean)"],
                rows,
                title=f"Aggregate precision after {epochs} batches — {dist_name} data",
            )
        )

    # The paper's headline: the spread between policies is marginal.
    spreads = {
        dist: max(v[-1] for v in panel.values()) - min(v[-1] for v in panel.values())
        for dist, panel in value_panels.items()
    }
    tables.append(
        render_table(
            ["distribution", "final AVG-precision spread across policies"],
            [[d, round(s, 4)] for d, s in spreads.items()],
            title="Policy spread (marginal differences, §4.3)",
        )
    )

    return ExperimentResult(
        experiment_id="T2",
        title="Aggregate query precision (SELECT AVG(a) FROM t)",
        data={
            "tuple_precision": tuple_panels,
            "value_precision": value_panels,
            "spreads": spreads,
        },
        tables=tables,
        charts=charts,
    )
