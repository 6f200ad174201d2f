"""Sampling kernels shared by the randomized amnesia policies.

The central primitive is weighted sampling *without* replacement — every
randomized policy ("uniform", "anterograde", "rot", ...) reduces to
"draw n distinct victims from the active set with probability
proportional to a per-tuple weight".

The implementation uses the Efraimidis–Spirakis exponential-key trick:
draw ``k_i = Exp(1) / w_i`` and keep the ``n`` smallest keys.  This is
vectorised, O(m log n) via argpartition, and exactly equivalent to
sequential weighted draws without replacement.
"""

from __future__ import annotations

import numpy as np

from .._util.errors import AmnesiaError

__all__ = ["weighted_sample_without_replacement", "uniform_sample_without_replacement"]


def uniform_sample_without_replacement(
    candidates: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n`` distinct entries of ``candidates`` uniformly."""
    candidates = np.asarray(candidates, dtype=np.int64)
    if n < 0:
        raise AmnesiaError(f"cannot sample a negative count {n}")
    if n > candidates.size:
        raise AmnesiaError(
            f"cannot sample {n} victims from {candidates.size} candidates"
        )
    if n == 0:
        return np.empty(0, dtype=np.int64)
    return rng.choice(candidates, size=n, replace=False)


def weighted_sample_without_replacement(
    candidates: np.ndarray,
    weights: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``n`` distinct candidates with probability ∝ ``weights``.

    Weights must be non-negative; zero-weight candidates are drawn only
    if the positive-weight pool is exhausted (they then fill the quota
    uniformly, which keeps the policy total-function even for degenerate
    weight vectors such as "every tuple has frequency 0").

    >>> rng = np.random.default_rng(0)
    >>> cands = np.arange(4)
    >>> w = np.array([0.0, 0.0, 1.0, 1.0])
    >>> sorted(weighted_sample_without_replacement(cands, w, 2, rng).tolist())
    [2, 3]
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if candidates.shape != weights.shape or candidates.ndim != 1:
        raise AmnesiaError(
            f"candidates {candidates.shape} and weights {weights.shape} "
            "must be equal-length 1-D arrays"
        )
    if n < 0:
        raise AmnesiaError(f"cannot sample a negative count {n}")
    if n > candidates.size:
        raise AmnesiaError(
            f"cannot sample {n} victims from {candidates.size} candidates"
        )
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if not np.isfinite(weights).all() or (weights < 0).any():
        raise AmnesiaError("weights must be finite and non-negative")

    positive = weights > 0
    n_positive = int(np.count_nonzero(positive))

    if n_positive == 0:
        return uniform_sample_without_replacement(candidates, n, rng)

    take_weighted = min(n, n_positive)
    pool, pool_weights = candidates, weights
    if n_positive < candidates.size:
        pool, pool_weights = candidates[positive], weights[positive]
    # Efraimidis–Spirakis: smallest Exp(1)/w keys win.
    keys = rng.exponential(1.0, size=pool.size) / pool_weights
    if take_weighted == pool.size:
        chosen = pool.copy()
    else:
        idx = np.argpartition(keys, take_weighted - 1)[:take_weighted]
        chosen = pool[idx]

    if take_weighted == n:
        return chosen
    # Quota exceeds the positive-weight pool: fill uniformly from the rest.
    remainder = uniform_sample_without_replacement(
        candidates[~positive], n - take_weighted, rng
    )
    return np.concatenate([chosen, remainder])
