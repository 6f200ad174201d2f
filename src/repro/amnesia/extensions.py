"""§4.4 extension policies: semantics-aware amnesia.

The paper closes its evaluation sketching smarter strategies; this
module implements them:

* :class:`PairPreservingAmnesia` — "the average query could be used to
  identify pairs of tuples to be forgotten instead of a single one.  It
  would retain the precision as long as possible."  Victims are chosen
  as antipodal *pairs* around the active mean, so the running AVG is
  almost unchanged by forgetting.
* :class:`DistributionAlignedAmnesia` — "we attempt to forget tuples
  that do not change the data distribution for all active records",
  i.e. keep the active histogram aligned with the all-time (oracle)
  histogram, the objective of self-tuning database samples (ICICLES).
* :class:`StratifiedAmnesia` — coverage-first variant: level the active
  population across value strata, so every region of the domain keeps
  witnesses (good for range queries at any location).
* :class:`CostBasedAmnesia` — "giving preference to ditching tuples
  that cause an explosion in either processing time or intermediate
  storage requirements"; the cost signal is the tuple's result-
  set participation (its access count).
"""

from __future__ import annotations

import numpy as np

from .._util.errors import ConfigError
from ..stats.histograms import EquiWidthHistogram
from .base import AmnesiaPolicy
from .sampling import (
    uniform_sample_without_replacement,
    weighted_sample_without_replacement,
)

__all__ = [
    "PairPreservingAmnesia",
    "DistributionAlignedAmnesia",
    "StratifiedAmnesia",
    "CostBasedAmnesia",
]


class PairPreservingAmnesia(AmnesiaPolicy):
    """Forget antipodal pairs around the mean to preserve AVG.

    "If you are only interested in the average value over a series of
    observations, then you can safely drop two tuples that together do
    not affect the average measured" (§1).

    Victim pairs are formed by sorting candidates by value and matching
    the i-th smallest with the i-th largest; the ``n // 2`` pairs whose
    sums are closest to twice the active mean are forgotten.  For odd
    ``n`` the single extra victim is the tuple whose value is nearest
    the mean (removing it perturbs the mean least).
    """

    name = "pair"

    def __init__(self, column: str):
        if not column:
            raise ConfigError("pair-preserving amnesia needs a column name")
        self.column = column

    def select_victims(self, table, n, epoch, rng, exclude=None):
        candidates = self._candidates(table, exclude)
        self._require(candidates, n)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        values = table.values(self.column)[candidates].astype(np.float64)
        mean = values.mean()
        order = np.argsort(values, kind="stable")
        sorted_candidates = candidates[order]
        sorted_values = values[order]

        m = candidates.size
        n_pairs = n // 2
        half = m // 2
        lows = np.arange(half)
        highs = m - 1 - lows
        pair_errors = np.abs(sorted_values[lows] + sorted_values[highs] - 2.0 * mean)
        best = np.argsort(pair_errors, kind="stable")[:n_pairs]

        chosen = np.concatenate(
            [sorted_candidates[lows[best]], sorted_candidates[highs[best]]]
        )
        if n % 2 == 1:
            taken = np.zeros(m, dtype=bool)
            taken[lows[best]] = True
            taken[highs[best]] = True
            remaining = np.flatnonzero(~taken)
            centre = remaining[
                np.argmin(np.abs(sorted_values[remaining] - mean))
            ]
            chosen = np.append(chosen, sorted_candidates[centre])
        return chosen

    def __repr__(self) -> str:
        return f"PairPreservingAmnesia(column={self.column!r})"


def _per_bin_quota(
    active_counts: np.ndarray, excess: np.ndarray, n: int
) -> np.ndarray:
    """Integer removals per bin: follow ``excess`` but cap at bin counts.

    Starts from the clipped floor of the real-valued excess and then
    corrects the total one unit at a time, preferring bins whose
    remaining excess is largest (or smallest, when over-allocated).
    """
    quota = np.minimum(np.floor(np.clip(excess, 0.0, None)), active_counts)
    quota = quota.astype(np.int64)
    diff = n - int(quota.sum())
    while diff > 0:
        headroom = active_counts - quota
        candidates = np.flatnonzero(headroom > 0)
        best = candidates[np.argmax((excess - quota)[candidates])]
        quota[best] += 1
        diff -= 1
    while diff < 0:
        candidates = np.flatnonzero(quota > 0)
        worst = candidates[np.argmin((excess - quota)[candidates])]
        quota[worst] -= 1
        diff += 1
    return quota


class DistributionAlignedAmnesia(AmnesiaPolicy):
    """Keep the active value distribution aligned with the oracle's.

    Builds equi-width histograms of (a) every value ever inserted (the
    evolving "distribution of present and past", §4.4) and (b) the
    currently active values, then removes from each bin so that the
    post-forgetting active histogram is as close as possible to the
    oracle's shape.  Within a bin victims are drawn uniformly.
    """

    name = "dist"

    def __init__(self, column: str, bins: int = 64):
        if not column:
            raise ConfigError("distribution-aligned amnesia needs a column name")
        if bins < 1:
            raise ConfigError(f"bins must be >= 1, got {bins}")
        self.column = column
        self.bins = int(bins)

    def select_victims(self, table, n, epoch, rng, exclude=None):
        candidates = self._candidates(table, exclude)
        self._require(candidates, n)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        all_values = table.values(self.column)
        lo = int(all_values.min())
        hi = int(all_values.max())
        oracle = EquiWidthHistogram.from_values(all_values, lo, hi, bins=self.bins)
        candidate_values = all_values[candidates]
        bin_ids = oracle.bin_of(candidate_values)
        active_counts = np.bincount(bin_ids, minlength=self.bins)

        target = oracle.pmf() * (candidates.size - n)
        excess = active_counts - target
        quota = _per_bin_quota(active_counts, excess, n)

        victims = []
        for b in np.flatnonzero(quota):
            members = candidates[bin_ids == b]
            victims.append(
                uniform_sample_without_replacement(members, int(quota[b]), rng)
            )
        return np.concatenate(victims) if victims else np.empty(0, dtype=np.int64)

    def __repr__(self) -> str:
        return f"DistributionAlignedAmnesia(column={self.column!r}, bins={self.bins})"


class StratifiedAmnesia(AmnesiaPolicy):
    """Level the active population across value strata.

    Removes from the most populated bins first (water-filling), driving
    the active histogram toward a flat profile.  Where the distribution-
    aligned policy mirrors the data's shape, this one maximises *domain
    coverage* — every value region keeps roughly equally many witnesses,
    which favours uniformly located range queries.
    """

    name = "stratified"

    def __init__(self, column: str, bins: int = 64):
        if not column:
            raise ConfigError("stratified amnesia needs a column name")
        if bins < 1:
            raise ConfigError(f"bins must be >= 1, got {bins}")
        self.column = column
        self.bins = int(bins)

    def select_victims(self, table, n, epoch, rng, exclude=None):
        candidates = self._candidates(table, exclude)
        self._require(candidates, n)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        all_values = table.values(self.column)
        lo = int(all_values.min())
        hi = int(all_values.max())
        grid = EquiWidthHistogram(lo, hi, bins=self.bins)
        bin_ids = grid.bin_of(all_values[candidates])
        active_counts = np.bincount(bin_ids, minlength=self.bins)

        # Water-filling: find the level L such that removing down to L
        # from every over-full bin yields exactly n removals.
        counts = active_counts.astype(np.float64)
        level_lo, level_hi = 0.0, float(counts.max())
        for _ in range(64):
            mid = 0.5 * (level_lo + level_hi)
            removed = np.clip(counts - mid, 0.0, None).sum()
            if removed > n:
                level_lo = mid
            else:
                level_hi = mid
        excess = counts - level_hi
        quota = _per_bin_quota(active_counts, excess, n)

        victims = []
        for b in np.flatnonzero(quota):
            members = candidates[bin_ids == b]
            victims.append(
                uniform_sample_without_replacement(members, int(quota[b]), rng)
            )
        return np.concatenate(victims) if victims else np.empty(0, dtype=np.int64)

    def __repr__(self) -> str:
        return f"StratifiedAmnesia(column={self.column!r}, bins={self.bins})"


class CostBasedAmnesia(AmnesiaPolicy):
    """Forget the tuples that cost the most to keep processing.

    Forgetting probability is proportional to the tuple's access
    counter: a tuple that participates in many result sets inflates
    intermediate results everywhere it appears.
    """

    name = "cost"

    def select_victims(self, table, n, epoch, rng, exclude=None):
        candidates = self._candidates(table, exclude)
        self._require(candidates, n)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        costs = table.access_counts()[candidates].astype(np.float64)
        return weighted_sample_without_replacement(candidates, costs, n, rng)
