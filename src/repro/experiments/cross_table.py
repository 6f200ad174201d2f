"""X5 — cross-table queries over independently forgetting streams.

The paper studies one table under one amnesia policy; the moment
several per-sensor streams coexist (each with its own policy, budget
and therefore its own forgetting trajectory), recall becomes a
*cross-table* planning problem: a join must account for pairs that
either side has forgotten.  This experiment drives two Zipf-skewed
sensor streams under different policies, executes the configured
cross-table query (``SimulationConfig.cross_query`` of the run's
``base`` config, which the CLI's ``--query`` sets) after every update
batch, and reports how the merged RF/MF/precision decays as the two
amnesia streams interact.
"""

from __future__ import annotations

import numpy as np

from .._util.rng import derive_seed
from ..amnesia.registry import make_policy
from ..core.config import SimulationConfig
from ..core.database import AmnesiaDatabase
from ..datagen.distributions import ZipfianDistribution
from ..indexes import SortedIndex
from ..plotting.tables import render_table
from ..query.plans import StreamedAggregate
from ..storage.catalog import Catalog
from .runner import ExperimentResult, default_config

__all__ = ["run_cross_table"]

#: Per-sensor amnesia: s1 rots (access-frequency-shielded), s2 is FIFO
#: — two genuinely different forgetting trajectories meeting in one
#: query.
SENSOR_POLICIES = {"s1": "rot", "s2": "fifo"}


def run_cross_table(
    budget: int = 250,
    batches: int = 8,
    batch_size: int = 200,
    domain: int = 1000,
    seed: int | None = None,
    base: SimulationConfig | None = None,
) -> ExperimentResult:
    """X5: precision of a union/join across two forgetting sensors."""
    config = default_config(base, seed=seed)
    seed = config.seed
    spec = config.cross_query
    catalog = Catalog(
        plan=config.plan, workers=config.workers, stats=config.stats
    )
    sensors = {}
    for name, policy_name in SENSOR_POLICIES.items():
        db = AmnesiaDatabase(
            budget=budget,
            policy=make_policy(policy_name),
            seed=derive_seed(seed, f"sensor-{name}"),
            table_name=name,
            plan=config.plan,
            stats=config.stats,
            compress=config.compress,
        )
        catalog.register(db.table)
        # A sorted index per sensor keeps each leaf's value stream
        # ordered by construction — which is what makes the streamed
        # aggregate's sort-merge join eligible (``--query ...,agg=...``
        # prices merge against hash and picks merge on ordered inputs).
        catalog.create_index(name, "a", SortedIndex)
        sensors[name] = db
    distribution = ZipfianDistribution(domain=domain)
    rng = np.random.default_rng(derive_seed(seed, "cross-table-data"))
    series = []
    for batch in range(1, batches + 1):
        for db in sensors.values():
            db.insert({"a": distribution.sample(batch_size, rng)})
        result = catalog.query(spec, epoch=batch, batch_size=config.exec_batch)
        inputs = result.inputs
        if isinstance(result, StreamedAggregate) and len(inputs) == 1:
            # The aggregate wraps one union/join; report that child's
            # per-sensor inputs, as the row-returning path would.
            inputs = inputs[0].inputs
        point = {
            "batch": batch,
            "rf": result.rf,
            "mf": result.mf,
            "precision": result.precision,
            "inputs": [(r.rf, r.mf, round(r.precision, 4)) for r in inputs],
        }
        if isinstance(result, StreamedAggregate):
            point["strategy"] = result.strategy
            point["aggregate"] = (
                result.active.as_dict() if result.rf else None
            )
        series.append(point)
    rows = [
        [
            point["batch"],
            point["rf"],
            point["mf"],
            round(point["precision"], 4),
            point["inputs"],
        ]
        for point in series
    ]
    table = render_table(
        ["batch", "RF", "MF", "precision", "per-input (rf, mf, P)"],
        rows,
        title=f"X5: {spec!r} across {list(SENSOR_POLICIES.values())} sensors",
    )
    explain = catalog.explain_query(spec, batch_size=config.exec_batch)
    return ExperimentResult(
        experiment_id="X5",
        title="Cross-table union/join over forgetting streams",
        data={
            "spec": spec,
            "plan": config.plan,
            "workers": config.workers,
            "policies": dict(SENSOR_POLICIES),
            "series": series,
            "precision_series": [point["precision"] for point in series],
        },
        tables=[table, "plan tree:\n" + explain],
    )
