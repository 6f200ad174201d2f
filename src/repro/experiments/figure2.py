"""Experiment F2 — Figure 2: the database *rot* map.

"The rot amnesia strategy depends on how fresh are the data.
Freshness is measured by the frequency of appearing in a result.
Since all range and aggregate queries are the same in our experiments,
the data distribution is the differential factor for rotting" (§4.1).

Same budget/volatility as Figure 1, but the policy is rot and the run
executes a mixed range + aggregate query batch every epoch so access
frequencies actually accumulate.  One map row per data distribution;
the benchmark asserts that distributions produce *different* retention
maps and that the skewed (zipfian) dataset keeps old hot tuples alive
longest.
"""

from __future__ import annotations

import numpy as np

from .._util.rng import spawn
from ..core.config import SimulationConfig
from ..datagen.distributions import DISTRIBUTION_NAMES
from ..plotting.heatmap import render_heatmap
from ..plotting.tables import render_table
from ..query.generators import (
    AggregateQueryGenerator,
    MixedWorkload,
    RangeQueryGenerator,
)
from .runner import ExperimentResult, default_config, run_once

__all__ = ["run_figure2"]


def _mixed_workload(column: str, seed: int) -> MixedWorkload:
    """The §4.1 workload: range queries plus aggregate calculations."""
    return MixedWorkload(
        [
            (
                0.7,
                RangeQueryGenerator(
                    column, selectivity=0.01, anchor="active",
                    rng=spawn(seed, "f2-range"),
                ),
            ),
            (
                0.3,
                AggregateQueryGenerator(
                    column, predicate_selectivity=0.05, anchor="active",
                    rng=spawn(seed, "f2-agg"),
                ),
            ),
        ],
        rng=spawn(seed, "f2-mix"),
    )


def run_figure2(
    dbsize: int = 1000,
    update_fraction: float = 0.20,
    epochs: int = 10,
    queries_per_epoch: int = 1000,
    seed: int | None = None,
    base: SimulationConfig | None = None,
    distributions=DISTRIBUTION_NAMES,
    high_water_mark: int = 1,
    frequency_exponent: float = 2.0,
) -> ExperimentResult:
    """Reproduce Figure 2; returns per-distribution rot maps."""
    overrides = {
        "dbsize": dbsize,
        "update_fraction": update_fraction,
        "epochs": epochs,
        "queries_per_epoch": queries_per_epoch,
        "seed": seed,
    }
    config = default_config(base, **overrides)

    rows: dict[str, np.ndarray] = {}
    for dist_name in distributions:
        simulator, _ = run_once(
            config,
            dist_name,
            "rot",
            workload=_mixed_workload(config.column, config.seed),
            policy_kwargs={
                "high_water_mark": high_water_mark,
                "frequency_exponent": frequency_exponent,
            },
        )
        rows[dist_name] = simulator.map.final_fractions()

    chart = render_heatmap(
        rows,
        title=(
            f"Figure 2: database rot map after {epochs} update batches "
            f"(dbsize={dbsize}, upd-perc={update_fraction})"
        ),
    )
    table = render_table(
        ["distribution"] + [f"t{t}" for t in range(epochs + 1)],
        [
            [name] + [round(float(f), 3) for f in fractions]
            for name, fractions in rows.items()
        ],
        title="Active percentage per insertion cohort under rot amnesia",
    )
    return ExperimentResult(
        experiment_id="F2",
        title="Database rot map after 10 batches of updates",
        data={"cohort_activity": {k: v.tolist() for k, v in rows.items()}},
        tables=[table],
        charts=[chart],
    )
