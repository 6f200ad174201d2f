"""Experiment F1 — Figure 1: the database amnesia map.

"Figure 1 illustrates the distribution of still active tuples after a
sequence of 10 update batches under all amnesia algorithms except the
rot amnesia" (§4.1), at ``dbsize=1000, upd-perc=0.20``.

For these four strategies "the data distribution plays no role, only
the relative position of each tuple in the database storage space", so
the run uses serial data and no queries.  Expected shapes (verified by
the benchmark):

* fifo — hard cutoff: old cohorts 0 %, the window's cohorts 100 %;
* uniform — monotone brightening toward the newest cohort;
* ante — bright cohort 0, black hole over the oldest updates,
  partially bright tail;
* area — uniform-fifo hybrid speckle.
"""

from __future__ import annotations

import numpy as np

from ..amnesia.registry import FIGURE1_POLICIES
from ..core.config import SimulationConfig
from ..plotting.heatmap import render_heatmap
from ..plotting.tables import render_table
from .runner import ExperimentResult, default_config, sweep_policies

__all__ = ["run_figure1"]


def run_figure1(
    dbsize: int = 1000,
    update_fraction: float = 0.20,
    epochs: int = 10,
    seed: int | None = None,
    base: SimulationConfig | None = None,
    policies=FIGURE1_POLICIES,
) -> ExperimentResult:
    """Reproduce Figure 1; returns per-policy cohort activity maps."""
    overrides = {
        "dbsize": dbsize,
        "update_fraction": update_fraction,
        "epochs": epochs,
        "queries_per_epoch": 0,
        "seed": seed,
    }
    config = default_config(base, **overrides)

    runs = sweep_policies(config, "serial", policies)
    rows: dict[str, np.ndarray] = {}
    for name, (simulator, _) in runs.items():
        rows[name] = simulator.map.final_fractions()

    chart = render_heatmap(
        rows,
        title=(
            f"Figure 1: database amnesia map after {epochs} update batches "
            f"(dbsize={dbsize}, upd-perc={update_fraction})"
        ),
    )
    table = render_table(
        ["policy"] + [f"t{t}" for t in range(epochs + 1)],
        [
            [name] + [round(float(f), 3) for f in fractions]
            for name, fractions in rows.items()
        ],
        title="Active percentage per insertion cohort (final snapshot)",
    )
    return ExperimentResult(
        experiment_id="F1",
        title="Database amnesia map after 10 batches of updates",
        data={"cohort_activity": {k: v.tolist() for k, v in rows.items()}},
        tables=[table],
        charts=[chart],
    )
