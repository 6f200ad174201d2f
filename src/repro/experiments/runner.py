"""Shared experiment plumbing.

Every experiment module produces an :class:`ExperimentResult`: a small
bundle of data series, rendered tables and rendered charts that the CLI
prints and the benchmarks assert on.  The helpers here run policy ×
distribution sweeps on the simulator with consistent seeding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..amnesia.registry import make_policy
from ..core.config import SimulationConfig
from ..core.simulator import AmnesiaSimulator
from ..datagen.distributions import make_distribution
from ..metrics.reports import RunReport

__all__ = ["ExperimentResult", "run_once", "sweep_policies"]


@dataclass
class ExperimentResult:
    """Rendered + structured output of one experiment.

    ``data`` holds raw series keyed by meaningful names so benchmarks
    and tests can assert on shapes without re-parsing text.
    """

    experiment_id: str
    title: str
    data: dict = field(default_factory=dict)
    tables: list[str] = field(default_factory=list)
    charts: list[str] = field(default_factory=list)

    def render(self) -> str:
        """Full printable report."""
        parts = [f"== {self.experiment_id}: {self.title} =="]
        parts.extend(self.charts)
        parts.extend(self.tables)
        return "\n\n".join(parts)


def run_once(
    config: SimulationConfig,
    distribution_name: str,
    policy_name: str,
    *,
    domain: int | None = None,
    workload=None,
    policy_kwargs: dict | None = None,
    disposition=None,
) -> tuple[AmnesiaSimulator, RunReport]:
    """Build and run one simulator; returns (simulator, report).

    The distribution and policy are constructed fresh per run so that
    stateful components (serial counters, area hole lists) never leak
    between sweep points.
    """
    kwargs = {} if domain is None else {"domain": domain}
    distribution = make_distribution(distribution_name, **kwargs)
    policy = make_policy(policy_name, **(policy_kwargs or {}))
    simulator = AmnesiaSimulator(
        config, distribution, policy, workload=workload, disposition=disposition
    )
    report = simulator.run()
    return simulator, report


def sweep_policies(
    config: SimulationConfig,
    distribution_name: str,
    policy_names,
    *,
    policy_kwargs: dict | None = None,
) -> dict[str, tuple[AmnesiaSimulator, RunReport]]:
    """Run every policy on the same configuration and distribution.

    Each run uses the same root seed, so data and query streams are
    identical across policies — differences in outcome are purely the
    policy's doing.
    """
    out: dict[str, tuple[AmnesiaSimulator, RunReport]] = {}
    per_policy = policy_kwargs or {}
    for name in policy_names:
        out[name] = run_once(
            config,
            distribution_name,
            name,
            policy_kwargs=per_policy.get(name),
        )
    return out


def default_config(
    base: SimulationConfig | None = None, **overrides
) -> SimulationConfig:
    """``base`` (default: the paper's configuration) with overrides.

    Runners receive the CLI's run configuration as ``base`` and derive
    every config they build from it, so ``--plan``, ``--workers`` and
    the other execution flags reach each simulator and store.  A
    ``None`` override keeps ``base``'s value (runners pass their
    optional ``seed=`` straight through).
    """
    base = SimulationConfig() if base is None else base
    overrides = {k: v for k, v in overrides.items() if v is not None}
    return base.with_(**overrides) if overrides else base
