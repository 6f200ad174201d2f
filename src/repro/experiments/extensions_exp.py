"""Experiments A3/A4 — the §4.4 semantics-aware extensions.

* A3: pair-preserving amnesia "would retain the [average] precision as
  long as possible" — compared against uniform amnesia on whole-table
  AVG error over a long run.
* A4: distribution-aligned amnesia keeps the active histogram close to
  the oracle's; measured as Jensen–Shannon divergence over time against
  uniform and fifo baselines.
"""

from __future__ import annotations

import numpy as np

from .._util.rng import spawn
from ..core.config import SimulationConfig
from ..plotting.tables import render_table
from ..query.generators import AggregateQueryGenerator
from .runner import ExperimentResult, default_config, run_once

__all__ = ["run_pair_preservation", "run_distribution_alignment"]


def run_pair_preservation(
    dbsize: int = 1000,
    update_fraction: float = 0.50,
    epochs: int = 20,
    queries_per_epoch: int = 20,
    seed: int | None = None,
    base: SimulationConfig | None = None,
    distributions=("uniform", "normal", "zipfian"),
    policies=("pair", "uniform", "fifo"),
) -> ExperimentResult:
    """A3: AVG drift under pair-preserving vs baseline amnesia."""
    overrides = {
        "dbsize": dbsize,
        "update_fraction": update_fraction,
        "epochs": epochs,
        "queries_per_epoch": queries_per_epoch,
        "seed": seed,
    }
    config = default_config(base, **overrides)

    rows = []
    data: dict[str, dict[str, float]] = {}
    for dist_name in distributions:
        data[dist_name] = {}
        for policy_name in policies:
            workload = AggregateQueryGenerator(
                config.column,
                predicate_selectivity=None,
                rng=spawn(config.seed, f"a3-{dist_name}-{policy_name}"),
            )
            policy_kwargs = (
                {"column": config.column} if policy_name == "pair" else None
            )
            _, report = run_once(
                config,
                dist_name,
                policy_name,
                workload=workload,
                policy_kwargs=policy_kwargs,
            )
            errors = [
                1.0 - p for p in report.aggregate_precision_series()
            ]
            mean_error = float(np.mean(errors))
            final_error = errors[-1]
            data[dist_name][policy_name] = mean_error
            rows.append(
                [dist_name, policy_name, round(mean_error, 6), round(final_error, 6)]
            )
    table = render_table(
        ["distribution", "policy", "mean AVG rel. error", "final AVG rel. error"],
        rows,
        title=f"A3: pair-preserving amnesia vs baselines ({epochs} batches)",
    )
    return ExperimentResult(
        experiment_id="A3",
        title="Pair-preserving amnesia retains AVG precision",
        data={"mean_error": data},
        tables=[table],
    )


def run_distribution_alignment(
    dbsize: int = 1000,
    update_fraction: float = 0.50,
    epochs: int = 20,
    seed: int | None = None,
    base: SimulationConfig | None = None,
    distributions=("zipfian", "normal"),
    policies=("dist", "stratified", "uniform", "fifo"),
) -> ExperimentResult:
    """A4: histogram divergence under distribution-aware amnesia."""
    overrides = {
        "dbsize": dbsize,
        "update_fraction": update_fraction,
        "epochs": epochs,
        "queries_per_epoch": 0,
        "seed": seed,
    }
    config = default_config(base, **overrides)

    rows = []
    data: dict[str, dict[str, float]] = {}
    for dist_name in distributions:
        data[dist_name] = {}
        for policy_name in policies:
            policy_kwargs = (
                {"column": config.column}
                if policy_name in ("dist", "stratified")
                else None
            )
            _, report = run_once(
                config, dist_name, policy_name, policy_kwargs=policy_kwargs
            )
            divergences = [
                r.divergence_js for r in report.epochs if r.divergence_js is not None
            ]
            mean_js = float(np.mean(divergences))
            final_js = divergences[-1]
            data[dist_name][policy_name] = final_js
            rows.append(
                [dist_name, policy_name, round(mean_js, 6), round(final_js, 6)]
            )
    table = render_table(
        ["distribution", "policy", "mean JS divergence", "final JS divergence"],
        rows,
        title=f"A4: active-vs-oracle distribution drift ({epochs} batches)",
    )
    return ExperimentResult(
        experiment_id="A4",
        title="Distribution-aligned amnesia minimises histogram drift",
        data={"final_js": data},
        tables=[table],
    )
