"""Experiment T1 — §4.2's volatility claim.

"The volatility captures the amount of data being forgotten at each
intermediate stage.  We experimented with both low (10%) and high
update volatility (80%)."

The benchmark asserts the obvious but load-bearing shape: at every
timeline point, high volatility yields strictly lower precision than
low volatility, for every policy, because the active fraction decays as
``1 / (1 + upd·t)``.
"""

from __future__ import annotations

from ..amnesia.registry import FIGURE3_POLICIES
from ..core.config import SimulationConfig
from ..plotting.tables import render_table
from .runner import ExperimentResult, default_config, sweep_policies

__all__ = ["run_volatility"]


def run_volatility(
    dbsize: int = 1000,
    epochs: int = 10,
    queries_per_epoch: int = 500,
    seed: int | None = None,
    base: SimulationConfig | None = None,
    fractions=(0.10, 0.80),
    distribution: str = "uniform",
    policies=FIGURE3_POLICIES,
) -> ExperimentResult:
    """Compare precision decay at low vs high update volatility."""
    panels: dict[float, dict[str, list[float]]] = {}
    for fraction in fractions:
        overrides = {
            "dbsize": dbsize,
            "update_fraction": fraction,
            "epochs": epochs + 1,
            "queries_per_epoch": queries_per_epoch,
            "seed": seed,
        }
        config = default_config(base, **overrides)
        runs = sweep_policies(config, distribution, policies)
        panels[fraction] = {
            name: report.precision_series()[1:]
            for name, (_, report) in runs.items()
        }

    rows = []
    for policy in policies:
        row = [policy]
        for fraction in fractions:
            series = panels[fraction][policy]
            row.extend([round(series[-1], 4), round(sum(series) / len(series), 4)])
        rows.append(row)
    headers = ["policy"]
    for fraction in fractions:
        headers.extend(
            [f"E final (upd={fraction})", f"E mean (upd={fraction})"]
        )
    table = render_table(
        headers,
        rows,
        title=(
            f"T1: precision vs update volatility "
            f"(dbsize={dbsize}, {distribution} data, {epochs} batches)"
        ),
    )
    return ExperimentResult(
        experiment_id="T1",
        title="Low (10%) vs high (80%) update volatility",
        data={"precision": {str(f): p for f, p in panels.items()}},
        tables=[table],
    )
