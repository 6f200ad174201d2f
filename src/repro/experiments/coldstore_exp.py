"""Experiment C1 — §1's storage economics.

The paper's motivating arithmetic: Glacier-class cold storage is cheap
to keep ($48/TB·yr in 2016) but expensive and slow to touch ($2.5–30/TB,
up to 12 h), while hot storage inverts the trade.  This experiment runs
the same amnesia workload under each forgotten-data disposition and
prices the outcome per TB of forgotten data, alongside what information
each disposition can still produce.
"""

from __future__ import annotations

import numpy as np

from ..coldstore.cost_model import GLACIER_2016
from ..core.config import SimulationConfig
from ..lifecycle.dispositions import (
    ColdStorageDisposition,
    HardDeleteDisposition,
    MarkOnlyDisposition,
    SummaryDisposition,
    StopIndexingDisposition,
)
from ..plotting.tables import render_table
from .runner import ExperimentResult, default_config, run_once

__all__ = ["run_coldstore_economics"]

_TB = 1024.0**4


def run_coldstore_economics(
    dbsize: int = 1000,
    update_fraction: float = 0.20,
    epochs: int = 10,
    seed: int | None = None,
    base: SimulationConfig | None = None,
    recover_fraction: float = 0.01,
    horizon_years: float = 1.0,
) -> ExperimentResult:
    """Price each disposition on the paper's baseline workload."""
    model = GLACIER_2016
    dispositions = {
        "mark (keep hot)": MarkOnlyDisposition(),
        "stop-indexing": StopIndexingDisposition(),
        "delete": HardDeleteDisposition(),
        "cold storage": ColdStorageDisposition(),
        "summary": SummaryDisposition(),
    }
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
    for label, disposition in dispositions.items():
        simulator, _ = run_once(
            config, "uniform", "uniform", disposition=disposition
        )
        table = simulator.table
        tuple_bytes = 8 * len(table.column_names)
        forgotten_bytes = table.forgotten_count * tuple_bytes

        # Where do the forgotten bytes live, and what do they cost?
        if isinstance(disposition, (MarkOnlyDisposition, StopIndexingDisposition)):
            keep_cost = model.hot_storage_cost(forgotten_bytes, horizon_years)
            resident_bytes = forgotten_bytes
            retention = "full (still on hot tier)"
        elif isinstance(disposition, ColdStorageDisposition):
            resident_bytes = disposition.store.stored_bytes
            keep_cost = model.cold_storage_cost(resident_bytes, horizon_years)
            retention = "full (on request)"
        elif isinstance(disposition, SummaryDisposition):
            resident_bytes = disposition.store.nbytes
            keep_cost = model.hot_storage_cost(resident_bytes, horizon_years)
            retention = "aggregates only"
        else:  # delete
            resident_bytes = 0
            keep_cost = 0.0
            retention = "none"

        # Cost of recovering a slice of the forgotten data.
        recover_bytes = int(forgotten_bytes * recover_fraction)
        if isinstance(disposition, ColdStorageDisposition):
            recover_cost = model.cold_retrieval_cost(recover_bytes)
            recover_hours = model.cold_retrieval_latency_hours
        elif isinstance(disposition, (MarkOnlyDisposition, StopIndexingDisposition)):
            recover_cost = model.hot_retrieval_cost(recover_bytes)
            recover_hours = model.hot_retrieval_latency_hours
        else:
            recover_cost = float("nan")
            recover_hours = float("nan")

        # Normalise to $/TB·yr of forgotten data so the scale of the
        # simulated run drops out (the paper argues in TB units).
        per_tb_year = (
            keep_cost / (forgotten_bytes / _TB) / horizon_years
            if forgotten_bytes
            else 0.0
        )
        rows.append(
            [
                label,
                table.forgotten_count,
                resident_bytes,
                round(per_tb_year, 2),
                round(recover_cost / max(recover_bytes / _TB, 1e-30), 2)
                if recover_bytes and not np.isnan(recover_cost)
                else None,
                round(recover_hours, 9) if not np.isnan(recover_hours) else None,
                retention,
            ]
        )
        data[label] = {
            "forgotten_tuples": table.forgotten_count,
            "resident_bytes": resident_bytes,
            "usd_per_tb_year": per_tb_year,
            "retention": retention,
        }

    rows.append(
        [
            "(breakeven)",
            None,
            None,
            None,
            None,
            None,
            f"hot wins above {model.breakeven_reads_per_year():.1f} full reads/yr",
        ]
    )
    table_text = render_table(
        [
            "disposition",
            "forgotten tuples",
            "aux bytes kept",
            "keep $/TB·yr",
            "recover $/TB",
            "recover latency (h)",
            "information retained",
        ],
        rows,
        title=(
            "C1: forgotten-data dispositions under the 2016 Glacier price "
            f"model (horizon {horizon_years} yr)"
        ),
    )
    return ExperimentResult(
        experiment_id="C1",
        title="Storage economics of forgetting",
        data={"dispositions": data},
        tables=[table_text],
    )
