"""Privacy-driven retention limits.

"Evidently, observations that are constrained by a Data Privacy Act
should be forgotten within the legally defined time frame" (§1).

:class:`PrivacyRetentionWrapper` turns that legal constraint into a
policy combinator: every tuple older than ``max_age_epochs`` *must* be
forgotten this round — even if that overshoots the storage budget — and
only the remaining quota is delegated to the wrapped strategy.
"""

from __future__ import annotations

import numpy as np

from .._util.errors import ConfigError
from .base import AmnesiaPolicy, without

__all__ = ["PrivacyRetentionWrapper"]


class PrivacyRetentionWrapper(AmnesiaPolicy):
    """Hard retention ceiling composed with an inner policy.

    Parameters
    ----------
    inner:
        The discretionary policy that fills the quota once all expired
        tuples are accounted for.
    max_age_epochs:
        Legal retention period: a tuple inserted at epoch ``e`` must be
        gone once the current epoch reaches ``e + max_age_epochs``.

    Because the law wins over the storage budget, this wrapper
    ``allows_overshoot``: if more tuples expired than the quota asks
    for, all of them are returned and the database temporarily shrinks
    below DBSIZE.
    """

    allows_overshoot = True

    def __init__(self, inner: AmnesiaPolicy, max_age_epochs: int):
        if max_age_epochs < 1:
            raise ConfigError(
                f"max_age_epochs must be >= 1, got {max_age_epochs}"
            )
        self.inner = inner
        self.max_age_epochs = int(max_age_epochs)

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"privacy({self.inner.name})"

    def expired(self, table, epoch: int) -> np.ndarray:
        """Active positions whose legal retention has lapsed, ascending."""
        active = table.active_positions()
        boundary = self._inserted_through(table, epoch - self.max_age_epochs)
        return active[: np.searchsorted(active, boundary)]

    def select_victims(self, table, n, epoch, rng, exclude=None):
        expired = without(self.expired(table, epoch), exclude)
        if expired.size >= n:
            # The law forgets more than the budget asked for.
            return expired
        # Policies read their exclusions as a set: no union needed.
        extra = np.asarray(() if exclude is None else exclude, dtype=np.int64)
        discretionary = self.inner.select_victims(
            table, n - expired.size, epoch, rng, exclude=np.r_[expired, extra]
        )
        return np.concatenate([expired, np.asarray(discretionary, dtype=np.int64)])

    def on_insert(self, table, positions, epoch):
        self.inner.on_insert(table, positions, epoch)

    def reset(self) -> None:
        self.inner.reset()

    def __repr__(self) -> str:
        return (
            f"PrivacyRetentionWrapper(inner={self.inner!r}, "
            f"max_age_epochs={self.max_age_epochs})"
        )
