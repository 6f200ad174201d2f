"""Experiments X1–X4 — the beyond-the-paper extensions, measured.

These quantify the features the paper only sketches (§4.4 adaptive
partitioning, §5 human-forgetting heuristics / referential integrity /
micro-model summaries) so DESIGN.md's extension rows have the same
evidence trail as the published figures.
"""

from __future__ import annotations

import numpy as np

from ..amnesia.decay import EbbinghausAmnesia
from ..amnesia.registry import make_policy
from ..core.config import SimulationConfig
from ..core.simulator import AmnesiaSimulator
from ..datagen.distributions import ZipfianDistribution
from ..integrity.constraints import ForeignKey, ReferentialAmnesiaWrapper
from ..partitioning.partitioned import PartitionedAmnesiaDatabase
from ..plotting.tables import render_table
from ..storage.table import Table
from ..summaries.histogram_summary import HistogramSummaryStore
from .runner import ExperimentResult, default_config

__all__ = [
    "run_decay_comparison",
    "run_adaptive_partitioning",
    "run_referential_integrity",
    "run_histogram_summaries",
]


def run_decay_comparison(
    dbsize: int = 500,
    update_fraction: float = 0.50,
    epochs: int = 8,
    queries_per_epoch: int = 300,
    seed: int | None = None,
    base: SimulationConfig | None = None,
) -> ExperimentResult:
    """X1: Ebbinghaus decay vs rot vs uniform on skewed, queried data."""
    config = default_config(
        base,
        dbsize=dbsize,
        update_fraction=update_fraction,
        epochs=epochs,
        queries_per_epoch=queries_per_epoch,
        seed=seed,
    )
    contenders = {
        "uniform": make_policy("uniform"),
        "rot": make_policy("rot", frequency_exponent=2.0),
        "ebbinghaus": EbbinghausAmnesia(base_strength=1.0, reinforcement=2.0),
    }
    rows = []
    data = {}
    for name, policy in contenders.items():
        simulator = AmnesiaSimulator(config, ZipfianDistribution(), policy)
        series = simulator.run().precision_series()
        rows.append([name, round(series[0], 4), round(series[-1], 4)])
        data[name] = {"first_E": series[0], "final_E": series[-1]}
    table = render_table(
        ["policy", "E first", "E final"],
        rows,
        title=f"X1: decay policies on zipfian data ({epochs} batches)",
    )
    return ExperimentResult(
        experiment_id="X1",
        title="Human-forgetting-curve amnesia",
        data={"by_policy": data},
        tables=[table],
    )


def run_adaptive_partitioning(
    total_budget: int = 400,
    batches: int = 10,
    batch_size: int = 400,
    seed: int | None = None,
    base: SimulationConfig | None = None,
) -> ExperimentResult:
    """X2: does traffic-driven budget rebalancing buy hot precision?"""
    # The run's base config carries the execution knobs (the CLI's
    # --plan / --stats / --workers / --rebalance / --compress flags),
    # and the store is built from it.
    config = default_config(base, seed=seed)
    seed = config.seed

    def run(adaptive: bool):
        store = PartitionedAmnesiaDatabase(
            "a", (0, 500, 1000), total_budget,
            policy_factory=make_policy_factory(), seed=seed,
            plan=config.plan, workers=config.workers,
            rebalance=config.rebalance, stats=config.stats,
            compress=config.compress,
        )
        rng = np.random.default_rng(seed)
        hot = None
        for _ in range(batches):
            store.insert({"a": rng.integers(0, 1000, batch_size)})
            for _ in range(25):
                hot = store.range_query(0, 300)
            if adaptive:
                store.rebalance(floor=total_budget // 10)
        stats = store.stats()
        return hot.precision, stats["budgets"], stats["boundaries"]

    def make_policy_factory():
        return lambda: make_policy("uniform")

    static_precision, static_budgets, _ = run(False)
    adaptive_precision, adaptive_budgets, adaptive_bounds = run(True)
    table = render_table(
        ["mode", "hot-range E final", "budgets", "boundaries"],
        [
            ["static", round(static_precision, 4), static_budgets, "-"],
            [
                "adaptive",
                round(adaptive_precision, 4),
                adaptive_budgets,
                adaptive_bounds,
            ],
        ],
        title="X2: adaptive partition budgets",
    )
    return ExperimentResult(
        experiment_id="X2",
        title="Adaptive partitioning",
        data={
            "static": static_precision,
            "adaptive": adaptive_precision,
        },
        tables=[table],
    )


def run_referential_integrity(
    n_parents: int = 500,
    n_children: int = 600,
    epochs: int = 5,
    seed: int | None = None,
    base: SimulationConfig | None = None,
) -> ExperimentResult:
    """X3: restrict vs cascade forgetting under a foreign key."""
    seed = default_config(base, seed=seed).seed

    def run(mode: str, quota: int):
        rng = np.random.default_rng(seed)
        parent = Table("orders", ["id"])
        child = Table("items", ["order_id"])
        parent.insert_batch(0, {"id": np.arange(n_parents)})
        child.insert_batch(
            0, {"order_id": rng.integers(0, n_parents, n_children)}
        )
        fk = ForeignKey(child, "order_id", parent, "id")
        policy = ReferentialAmnesiaWrapper(
            make_policy("uniform"), fk, mode=mode
        )
        for epoch in range(1, epochs + 1):
            victims = policy.select_victims(parent, quota, epoch, rng)
            parent.forget(victims, epoch)
            fk.check()
        return {
            "parents_forgotten": parent.forgotten_count,
            "children_cascaded": policy.cascaded_children,
            "violations": int(fk.violations().size),
        }

    restrict = run("restrict", quota=10)
    cascade = run("cascade", quota=50)
    table = render_table(
        ["mode", "parents forgotten", "children cascaded", "FK violations"],
        [
            ["restrict", restrict["parents_forgotten"],
             restrict["children_cascaded"], restrict["violations"]],
            ["cascade", cascade["parents_forgotten"],
             cascade["children_cascaded"], cascade["violations"]],
        ],
        title="X3: referential amnesia (orders -> items)",
    )
    return ExperimentResult(
        experiment_id="X3",
        title="Referential integrity under amnesia",
        data={"restrict": restrict, "cascade": cascade},
        tables=[table],
    )


def run_histogram_summaries(
    n_rows: int = 20_000,
    forget_fraction: float = 0.75,
    bins_sweep=(8, 16, 32, 64, 128),
    seed: int | None = None,
    base: SimulationConfig | None = None,
) -> ExperimentResult:
    """X4: MF estimation error vs histogram resolution."""
    seed = default_config(base, seed=seed).seed
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 10_000, n_rows)
    victims = rng.choice(n_rows, int(n_rows * forget_fraction), replace=False)
    forgotten_values = values[victims]
    keep_mask = np.ones(n_rows, dtype=bool)
    keep_mask[victims] = False
    active_values = values[keep_mask]

    rows = []
    data = {}
    for bins in bins_sweep:
        store = HistogramSummaryStore(0, 9_999, bins=bins)
        store.add(1, forgotten_values)
        errors = []
        for low in range(0, 9_000, 500):
            high = low + 700
            rf = int(((active_values >= low) & (active_values < high)).sum())
            oracle = int(((values >= low) & (values < high)).sum())
            estimate = store.approx_range_count(low, high)
            errors.append(abs(estimate - (oracle - rf)) / max(oracle - rf, 1))
        mean_error = float(np.mean(errors))
        rows.append([bins, store.nbytes, round(mean_error, 4)])
        data[bins] = {"nbytes": store.nbytes, "mean_relative_error": mean_error}
    table = render_table(
        ["bins", "summary bytes", "mean relative MF error"],
        rows,
        title=(
            f"X4: histogram micro-model accuracy "
            f"({int(forget_fraction * 100)}% of {n_rows} tuples forgotten)"
        ),
    )
    return ExperimentResult(
        experiment_id="X4",
        title="Histogram summaries of forgotten data",
        data={"by_bins": data},
        tables=[table],
    )
