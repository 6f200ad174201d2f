"""Query-based amnesia (paper §3.2): rot and overuse.

These policies learn from the query workload.  The executor bumps a
per-tuple access counter whenever a tuple appears in a result set; the
policies convert that frequency into forgetting probabilities:

* :class:`RotAmnesia` — "a tuple that appears often in a query result
  might be considered more important and should not be forgotten
  easily."  Rarely accessed tuples rot away — but only once they have
  "been part of the database long enough" (the high-water mark), which
  prevents the policy from collapsing into anterograde amnesia by
  eating fresh tuples that simply haven't had a chance to be queried.
* :class:`OveruseAmnesia` — the §3.2 counter-policy: data that has been
  consumed "too many times" has served its purpose and is dropped in
  favour of uncurated observations.
"""

from __future__ import annotations

import numpy as np

from .._util.errors import ConfigError
from .base import AmnesiaPolicy
from .sampling import weighted_sample_without_replacement

__all__ = ["RotAmnesia", "OveruseAmnesia"]


class RotAmnesia(AmnesiaPolicy):
    """Forget infrequently accessed tuples past a freshness water mark.

    Parameters
    ----------
    high_water_mark:
        Minimum age (in epochs) before a tuple becomes a rot candidate.
        With ``high_water_mark = 1`` (default) the tuples inserted in
        the current epoch are protected for one round.  If protecting
        young tuples leaves fewer candidates than victims are needed,
        the age gate is relaxed (youngest last) rather than failing.
    frequency_exponent:
        Strength of the frequency shield: the forgetting weight of a
        tuple accessed ``f`` times is ``1 / (1 + f) ** frequency_exponent``.
        0 degrades to uniform-over-candidates; larger values protect hot
        tuples more aggressively.
    """

    name = "rot"

    def __init__(self, high_water_mark: int = 1, frequency_exponent: float = 1.0):
        if high_water_mark < 0:
            raise ConfigError(
                f"high_water_mark must be >= 0, got {high_water_mark}"
            )
        if frequency_exponent < 0:
            raise ConfigError(
                f"frequency_exponent must be >= 0, got {frequency_exponent}"
            )
        self.high_water_mark = int(high_water_mark)
        self.frequency_exponent = float(frequency_exponent)

    def select_victims(self, table, n, epoch, rng, exclude=None):
        candidates = self._candidates(table, exclude)
        self._require(candidates, n)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        # Seasoned candidates are a prefix; if it is short of n, the
        # pool takes the oldest fresh ones after it.
        boundary = self._inserted_through(table, epoch - self.high_water_mark)
        pool = candidates[: max(int(np.searchsorted(candidates, boundary)), n)]
        weights = (1.0 + table.access_counts()[pool]) ** -self.frequency_exponent
        return weighted_sample_without_replacement(pool, weights, n, rng)

    def __repr__(self) -> str:
        return (
            f"RotAmnesia(high_water_mark={self.high_water_mark}, "
            f"frequency_exponent={self.frequency_exponent})"
        )


class OveruseAmnesia(AmnesiaPolicy):
    """Forget tuples that appeared in too many results.

    "No data should continue to appear in a result set, if that data
    has not been curated, analyzed, or consumed in any other way"
    (§3.2).  The forgetting weight of a tuple accessed ``f`` times is
    ``(1 + f) ** overuse_exponent``, so heavily consumed tuples are
    retired first and never-touched observations are maximally
    protected.
    """

    name = "overuse"

    def __init__(self, overuse_exponent: float = 1.0):
        if overuse_exponent < 0:
            raise ConfigError(
                f"overuse_exponent must be >= 0, got {overuse_exponent}"
            )
        self.overuse_exponent = float(overuse_exponent)

    def select_victims(self, table, n, epoch, rng, exclude=None):
        candidates = self._candidates(table, exclude)
        self._require(candidates, n)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        weights = (1.0 + table.access_counts()[candidates]) ** self.overuse_exponent
        return weighted_sample_without_replacement(candidates, weights, n, rng)

    def __repr__(self) -> str:
        return f"OveruseAmnesia(overuse_exponent={self.overuse_exponent})"
