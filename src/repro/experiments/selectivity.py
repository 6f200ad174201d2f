"""Experiment T3 — §4.2's selectivity claim.

"Increasing the selectivity factor does not improve the precision,
because it affects the complete database, active and forgotten."

A wider query window catches proportionally more active *and* more
forgotten tuples, so E stays pinned to the active fraction.  The sweep
verifies that E varies only marginally across two decades of S.
"""

from __future__ import annotations

from .._util.rng import spawn
from ..core.config import SimulationConfig
from ..plotting.tables import render_table
from ..query.generators import RangeQueryGenerator
from .runner import ExperimentResult, default_config, run_once

__all__ = ["run_selectivity"]


def run_selectivity(
    dbsize: int = 1000,
    update_fraction: float = 0.80,
    epochs: int = 10,
    queries_per_epoch: int = 500,
    seed: int | None = None,
    base: SimulationConfig | None = None,
    selectivities=(0.005, 0.01, 0.05, 0.1, 0.25),
    distribution: str = "uniform",
    policies=("uniform", "area", "rot"),
) -> ExperimentResult:
    """Sweep the selectivity factor S and record final precision."""
    overrides = {
        "dbsize": dbsize,
        "update_fraction": update_fraction,
        "epochs": epochs + 1,
        "queries_per_epoch": queries_per_epoch,
        "seed": seed,
    }
    config = default_config(base, **overrides)

    results: dict[str, dict[float, float]] = {p: {} for p in policies}
    for policy_name in policies:
        for s in selectivities:
            workload = RangeQueryGenerator(
                config.column,
                selectivity=s,
                anchor="active",
                rng=spawn(config.seed, f"t3-{s}"),
            )
            _, report = run_once(
                config, distribution, policy_name, workload=workload
            )
            results[policy_name][s] = report.precision_series()[-1]

    rows = [
        [policy] + [round(results[policy][s], 4) for s in selectivities]
        for policy in policies
    ]
    table = render_table(
        ["policy"] + [f"S={s}" for s in selectivities],
        rows,
        title=(
            f"T3: final error margin E vs selectivity factor "
            f"({distribution} data, upd-perc={update_fraction}, {epochs} batches)"
        ),
    )
    return ExperimentResult(
        experiment_id="T3",
        title="Selectivity factor does not improve precision",
        data={"final_precision": {p: dict(v) for p, v in results.items()}},
        tables=[table],
    )
