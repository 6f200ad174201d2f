"""Experiment reproductions: one module per paper figure/table + ablations.

:data:`EXPERIMENTS` is the experiment index (``python -m repro list``
prints it with one line per id).  Every ``run_*`` function
returns an :class:`~repro.experiments.runner.ExperimentResult` whose
``data`` dict carries raw series for programmatic assertions and whose
``render()`` produces the printable report.
"""

from .ablations import (
    run_ante_bias_ablation,
    run_area_ablation,
    run_rot_ablation,
)
from .aggregates import run_aggregate_precision
from .coldstore_exp import run_coldstore_economics
from .cross_table import run_cross_table
from .compression_exp import run_compression_budget
from .dispositions_exp import run_dispositions
from .extensions_exp import run_distribution_alignment, run_pair_preservation
from .extras import (
    run_adaptive_partitioning,
    run_decay_comparison,
    run_histogram_summaries,
    run_referential_integrity,
)
from .figure1 import run_figure1
from .figure2 import run_figure2
from .figure3 import run_figure3
from .runner import ExperimentResult, default_config, run_once, sweep_policies
from .selectivity import run_selectivity
from .volatility import run_volatility

#: Experiment id -> runner; ``python -m repro list`` describes each id.
EXPERIMENTS = {
    "F1": run_figure1,
    "F2": run_figure2,
    "F3": run_figure3,
    "T1": run_volatility,
    "T2": run_aggregate_precision,
    "T3": run_selectivity,
    "A1": run_area_ablation,
    "A2": run_rot_ablation,
    "A2b": run_ante_bias_ablation,
    "A3": run_pair_preservation,
    "A4": run_distribution_alignment,
    "C1": run_coldstore_economics,
    "C2": run_compression_budget,
    "I1": run_dispositions,
    "X1": run_decay_comparison,
    "X2": run_adaptive_partitioning,
    "X3": run_referential_integrity,
    "X4": run_histogram_summaries,
    "X5": run_cross_table,
}

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "default_config",
    "run_once",
    "sweep_policies",
    "run_adaptive_partitioning",
    "run_cross_table",
    "run_decay_comparison",
    "run_histogram_summaries",
    "run_referential_integrity",
    "run_ante_bias_ablation",
    "run_area_ablation",
    "run_rot_ablation",
    "run_aggregate_precision",
    "run_coldstore_economics",
    "run_compression_budget",
    "run_dispositions",
    "run_distribution_alignment",
    "run_pair_preservation",
    "run_figure1",
    "run_figure2",
    "run_figure3",
    "run_selectivity",
    "run_volatility",
]
