"""Policy composition: weighted mixtures of amnesia strategies.

§4.4 calls for "better application specific amnesia algorithms"; in
practice a deployment rarely wants a single pure strategy.  A
:class:`CompositeAmnesia` splits each round's victim quota across
sub-policies by weight (multinomially, so the mixture is itself a
random process), excluding already-chosen victims so the combined set
is duplicate-free.
"""

from __future__ import annotations

import numpy as np

from .._util.errors import ConfigError
from .base import AmnesiaPolicy

__all__ = ["CompositeAmnesia"]


class CompositeAmnesia(AmnesiaPolicy):
    """Weighted mixture of amnesia policies.

    >>> from repro.amnesia import FifoAmnesia, UniformAmnesia
    >>> mix = CompositeAmnesia([(0.7, RotLike := UniformAmnesia()), (0.3, FifoAmnesia())])
    >>> mix.name
    'mix(uniform:0.70,fifo:0.30)'
    """

    def __init__(self, weighted_policies):
        pairs = list(weighted_policies)
        if not pairs:
            raise ConfigError("CompositeAmnesia needs at least one policy")
        weights = np.array([w for w, _ in pairs], dtype=np.float64)
        if (weights <= 0).any():
            raise ConfigError("mixture weights must be positive")
        for _, policy in pairs:
            if policy.allows_overshoot:
                raise ConfigError(
                    "overshooting policies (privacy wrappers) must wrap the "
                    "mixture, not sit inside it"
                )
        self._policies = [p for _, p in pairs]
        self._probs = weights / weights.sum()

    @property
    def name(self) -> str:  # type: ignore[override]
        parts = ",".join(
            f"{p.name}:{w:.2f}" for p, w in zip(self._policies, self._probs)
        )
        return f"mix({parts})"

    @property
    def policies(self) -> tuple[AmnesiaPolicy, ...]:
        """The mixture components."""
        return tuple(self._policies)

    def select_victims(self, table, n, epoch, rng, exclude=None):
        candidates = self._candidates(table, exclude)
        self._require(candidates, n)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        quotas = rng.multinomial(n, self._probs)
        chosen: list[np.ndarray] = []
        running_exclude = np.asarray(() if exclude is None else exclude, dtype=np.int64)
        for policy, quota in zip(self._policies, quotas):
            if quota == 0:
                continue
            victims = policy.select_victims(
                table, int(quota), epoch, rng, exclude=running_exclude
            )
            # Checked only: the mixture returns victims in drawn order.
            policy.validate_victims(table, victims, int(quota))
            chosen.append(victims)
            running_exclude = np.concatenate([running_exclude, victims])
        return (
            np.concatenate(chosen) if chosen else np.empty(0, dtype=np.int64)
        )

    def on_insert(self, table, positions, epoch):
        for policy in self._policies:
            policy.on_insert(table, positions, epoch)

    def reset(self) -> None:
        for policy in self._policies:
            policy.reset()

    def __repr__(self) -> str:
        inner = ", ".join(
            f"({w:.2f}, {p!r})" for p, w in zip(self._policies, self._probs)
        )
        return f"CompositeAmnesia([{inner}])"
