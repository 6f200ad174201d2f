"""Experiment C2 — §4.4: compression postpones forgetting.

"Data compression can be called upon to postpone the decisions to
forget data."  At a fixed *byte* budget, a compressed column packs more
tuples, so the storage-constrained database forgets later and retains
more precision.  The experiment measures, per data distribution:

1. bytes/value of each codec on a representative sample;
2. how many tuples the byte budget then holds;
3. the final error margin E of a simulator run whose DBSIZE is that
   tuple capacity (same insert stream for all codecs).
"""

from __future__ import annotations

import numpy as np

from .._util.rng import spawn
from ..compression.codecs import CODEC_NAMES, best_codec, make_codec
from ..core.config import SimulationConfig
from ..datagen.distributions import DISTRIBUTION_NAMES, make_distribution
from ..plotting.tables import render_table
from .runner import ExperimentResult, default_config, run_once

__all__ = ["run_compression_budget"]


def run_compression_budget(
    budget_bytes: int = 16_384,
    batch_tuples: int = 400,
    epochs: int = 10,
    sample_size: int = 65_536,
    seed: int | None = None,
    base: SimulationConfig | None = None,
    distributions=DISTRIBUTION_NAMES,
) -> ExperimentResult:
    """Tuple capacity and precision at a fixed byte budget, per codec."""
    config_seed = default_config(base, seed=seed).seed

    codec_rows = []
    precision_rows = []
    data: dict[str, dict] = {}
    for dist_name in distributions:
        dist = make_distribution(dist_name)
        sample = dist.sample(sample_size, spawn(config_seed, f"c2-{dist_name}"))

        per_codec = {}
        for codec_name in CODEC_NAMES:
            block = make_codec(codec_name).encode(sample)
            per_codec[codec_name] = block.bytes_per_value
        best = best_codec(sample)
        codec_rows.append(
            [dist_name]
            + [round(per_codec[c], 3) for c in CODEC_NAMES]
            + [best.codec_name]
        )

        capacities = {
            "raw": int(budget_bytes / per_codec["raw"]),
            "best": int(budget_bytes / best.bytes_per_value),
        }
        finals = {}
        for label, capacity in capacities.items():
            capacity = max(capacity, batch_tuples + 1)
            config = default_config(
                base,
                dbsize=capacity,
                update_fraction=batch_tuples / capacity,
                epochs=epochs,
                queries_per_epoch=200,
                seed=config_seed,
            )
            _, report = run_once(config, dist_name, "uniform")
            finals[label] = report.precision_series()[-1]
        precision_rows.append(
            [
                dist_name,
                capacities["raw"],
                capacities["best"],
                round(finals["raw"], 4),
                round(finals["best"], 4),
            ]
        )
        data[dist_name] = {
            "bytes_per_value": per_codec,
            "best_codec": best.codec_name,
            "capacity_raw": capacities["raw"],
            "capacity_best": capacities["best"],
            "final_E_raw": finals["raw"],
            "final_E_best": finals["best"],
        }

    tables = [
        render_table(
            ["distribution"] + list(CODEC_NAMES) + ["best"],
            codec_rows,
            title=f"C2a: encoded bytes/value ({sample_size} samples)",
        ),
        render_table(
            [
                "distribution",
                "tuples @ budget (raw)",
                "tuples @ budget (best codec)",
                "E final (raw)",
                "E final (compressed)",
            ],
            precision_rows,
            title=(
                f"C2b: precision at a {budget_bytes} B budget "
                f"({batch_tuples} tuples/batch, {epochs} batches)"
            ),
        ),
    ]
    return ExperimentResult(
        experiment_id="C2",
        title="Compression postpones forgetting",
        data=data,
        tables=tables,
    )
