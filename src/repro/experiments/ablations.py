"""Experiments A1/A2 — ablations over the under-specified knobs.

The paper leaves two policy parameters open; the policies' constructor
defaults commit to values and these sweeps justify them:

* A1 — the area policy's hole count K ("say K"): K=1 grows one giant
  hole (FIFO-like contiguity), large K approaches uniform speckle.
* A2 — rot's high-water mark ("been part of the database long enough")
  and frequency exponent: hwm=0 lets rot eat fresh unqueried tuples
  (anterograde drift); exponent 0 removes the frequency shield
  entirely (degrades to uniform).
"""

from __future__ import annotations

import numpy as np

from ..core.config import SimulationConfig
from ..plotting.tables import render_table
from .runner import ExperimentResult, default_config, run_once

__all__ = ["run_area_ablation", "run_rot_ablation", "run_ante_bias_ablation"]


def _transition_count(active_mask: np.ndarray) -> int:
    """Active/forgotten boundaries along the storage space.

    One giant hole has 2 boundaries; speckle has many.  This is the
    direct measure of how contiguous the mold areas grew.
    """
    if active_mask.size < 2:
        return 0
    return int(np.count_nonzero(np.diff(active_mask.astype(np.int8)) != 0))


def run_area_ablation(
    dbsize: int = 1000,
    update_fraction: float = 0.20,
    epochs: int = 10,
    queries_per_epoch: int = 200,
    seed: int | None = None,
    base: SimulationConfig | None = None,
    ks=(1, 4, 16, 64),
) -> ExperimentResult:
    """A1: sweep the number of concurrent mold areas."""
    overrides = {
        "dbsize": dbsize,
        "update_fraction": update_fraction,
        "epochs": epochs,
        "queries_per_epoch": queries_per_epoch,
        "seed": seed,
    }
    config = default_config(base, **overrides)

    rows = []
    data = {}
    for k in ks:
        simulator, report = run_once(
            config, "uniform", "area", policy_kwargs={"max_areas": k}
        )
        transitions = _transition_count(simulator.table.active_mask())
        final_e = report.precision_series()[-1]
        rows.append(
            [k, round(final_e, 4), transitions, len(simulator.policy.areas)]
        )
        data[k] = {
            "final_E": final_e,
            "transitions": transitions,
            "cohorts": simulator.map.final_fractions().tolist(),
        }
    table = render_table(
        ["K (max areas)", "E final", "hole boundaries", "areas grown"],
        rows,
        title="A1: area amnesia hole-count sweep",
    )
    return ExperimentResult(
        experiment_id="A1",
        title="Area policy: number of mold areas",
        data={"by_k": data},
        tables=[table],
    )


def run_ante_bias_ablation(
    dbsize: int = 1000,
    update_fraction: float = 0.20,
    epochs: int = 10,
    seed: int | None = None,
    base: SimulationConfig | None = None,
    biases=(2.0, 4.0, 6.0, 8.0, 12.0),
) -> ExperimentResult:
    """A2b: sweep the anterograde recency-bias exponent.

    The paper specifies anterograde amnesia only as "choosing randomly
    mostly recently added tuples to be forgotten"; the bias exponent is
    our concretisation.  The sweep shows the Figure 1 trade: a larger
    bias retains more of the initial cohort ("retains most of the data
    at point 0") while deepening the black hole over the oldest
    updates — ``AnterogradeAmnesia``'s default of 6 sits where cohort 0
    keeps a clear majority.
    """
    overrides = {
        "dbsize": dbsize,
        "update_fraction": update_fraction,
        "epochs": epochs,
        "queries_per_epoch": 0,
        "seed": seed,
    }
    config = default_config(base, **overrides)

    rows = []
    data = {}
    for bias in biases:
        simulator, _ = run_once(
            config, "serial", "ante", policy_kwargs={"bias": bias}
        )
        fractions = simulator.map.final_fractions()
        initial = float(fractions[0])
        hole = float(fractions[1:5].mean())
        tail = float(fractions[-1])
        rows.append(
            [bias, round(initial, 4), round(hole, 4), round(tail, 4)]
        )
        data[bias] = {
            "initial_cohort": initial,
            "black_hole": hole,
            "newest_cohort": tail,
        }
    table = render_table(
        ["bias", "initial cohort active", "oldest updates active", "newest cohort active"],
        rows,
        title="A2b: anterograde recency-bias sweep (serial data)",
    )
    return ExperimentResult(
        experiment_id="A2b",
        title="Anterograde policy: recency bias",
        data={"by_bias": data},
        tables=[table],
    )


def run_rot_ablation(
    dbsize: int = 1000,
    update_fraction: float = 0.20,
    epochs: int = 10,
    queries_per_epoch: int = 500,
    seed: int | None = None,
    base: SimulationConfig | None = None,
    high_water_marks=(0, 1, 2, 4),
    frequency_exponents=(0.0, 1.0, 2.0),
    distribution: str = "zipfian",
) -> ExperimentResult:
    """A2: sweep rot's high-water mark and frequency shield."""
    overrides = {
        "dbsize": dbsize,
        "update_fraction": update_fraction,
        "epochs": epochs,
        "queries_per_epoch": queries_per_epoch,
        "seed": seed,
    }
    config = default_config(base, **overrides)

    rows = []
    data = {}
    for hwm in high_water_marks:
        for exponent in frequency_exponents:
            _, report = run_once(
                config,
                distribution,
                "rot",
                policy_kwargs={
                    "high_water_mark": hwm,
                    "frequency_exponent": exponent,
                },
            )
            series = report.precision_series()
            final_e = series[-1]
            newest_fraction = report.final_epoch().cohort_activity.get(
                epochs, 0.0
            )
            rows.append(
                [hwm, exponent, round(final_e, 4), round(newest_fraction, 4)]
            )
            data[(hwm, exponent)] = {
                "final_E": final_e,
                "newest_cohort_active": newest_fraction,
            }
    table = render_table(
        ["high-water mark", "freq exponent", "E final", "newest cohort active"],
        rows,
        title=f"A2: rot amnesia knob sweep ({distribution} data)",
    )
    return ExperimentResult(
        experiment_id="A2",
        title="Rot policy: high-water mark and frequency shield",
        data={"by_knobs": {f"hwm={k[0]},exp={k[1]}": v for k, v in data.items()}},
        tables=[table],
    )
