"""Experiment F3 — Figure 3: range query precision over the timeline.

"Figure 3 illustrates the results from range queries ... The range
query generator selects a candidate value v from all active tuples and
constructs the range WHERE attr >= v - 0.01*RANGE AND attr < v +
0.01*RANGE" (§4.2), at high update volatility (``upd-perc = 0.80``),
with a batch of 1000 queries per epoch.

The paper publishes two panels (uniform and zipfian data); the §4.2
text also discusses normal, so all three are produced.  The x axis
point *t* reports the error margin E of the query batch that has
witnessed exactly *t* update/amnesia rounds, matching the paper's axis
(which starts below 1.0 at t=1).

Shape expectations encoded in the benchmark: precision decays
monotonically toward the active-fraction floor 1/(1+0.8t);
distributions converge to similar values in the long run; rot retains
markedly more precision on zipfian data (the frequency shield only has
something to learn when some values are hot).
"""

from __future__ import annotations

import numpy as np

from ..amnesia.registry import FIGURE3_POLICIES
from ..core.config import SimulationConfig
from ..plotting.linechart import render_linechart
from ..plotting.tables import render_table
from .runner import ExperimentResult, default_config, sweep_policies

__all__ = ["run_figure3", "FIGURE3_DISTRIBUTIONS"]

#: Paper panels (uniform, zipfian) plus the §4.2-discussed normal.
FIGURE3_DISTRIBUTIONS = ("uniform", "zipfian", "normal")


def run_figure3(
    dbsize: int = 1000,
    update_fraction: float = 0.80,
    epochs: int = 10,
    queries_per_epoch: int = 1000,
    selectivity: float = 0.01,
    seed: int | None = None,
    base: SimulationConfig | None = None,
    distributions=FIGURE3_DISTRIBUTIONS,
    policies=FIGURE3_POLICIES,
) -> ExperimentResult:
    """Reproduce Figure 3's precision-vs-timeline panels."""
    overrides = {
        "dbsize": dbsize,
        "update_fraction": update_fraction,
        # One extra epoch: the query batch of epoch t+1 is the batch
        # that has seen t amnesia rounds; x=1..epochs then spans
        # "after one round" .. "after `epochs` rounds".
        "epochs": epochs + 1,
        "queries_per_epoch": queries_per_epoch,
        "seed": seed,
    }
    config = default_config(base, **overrides)

    panels: dict[str, dict[str, list[float]]] = {}
    charts: list[str] = []
    tables: list[str] = []
    for dist_name in distributions:
        runs = sweep_policies(config, dist_name, policies)
        series: dict[str, list[float]] = {}
        for policy_name, (_, report) in runs.items():
            full = report.precision_series()
            series[policy_name] = full[1:]  # drop the pristine batch
        panels[dist_name] = series

        charts.append(
            render_linechart(
                {k: np.asarray(v) for k, v in series.items()},
                title=(
                    f"Figure 3 ({dist_name} range experiment, "
                    f"dbsize={dbsize}, upd-perc={update_fraction})"
                ),
                x_label="update batches survived",
            )
        )
        tables.append(
            render_table(
                ["policy"] + [f"t{t}" for t in range(1, epochs + 1)],
                [
                    [name] + [round(v, 4) for v in values]
                    for name, values in series.items()
                ],
                title=f"Error margin E per epoch — {dist_name} data",
            )
        )

    return ExperimentResult(
        experiment_id="F3",
        title="Range query precision (v ∈ 0 .. max)",
        data={"precision": panels},
        tables=tables,
        charts=charts,
    )
