"""Divergences between discrete distributions.

Used to quantify how far the *active* value distribution has drifted
from the *oracle* (everything ever inserted) distribution — the
objective the §4.4 distribution-aligned amnesia policy minimises, and a
headline metric of experiment A4.  The metric is
:func:`js_divergence`; :func:`kl_divergence` and :func:`normalize` are
its parts.  Each takes probability vectors (or count vectors, which are
normalised first) of equal length.
"""

from __future__ import annotations

import numpy as np

from .._util.errors import ConfigError

__all__ = ["normalize", "kl_divergence", "js_divergence"]

_EPS = 1e-12


def _paired(p, q) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ConfigError(
            f"divergence inputs must be equal-length 1-D vectors, got {p.shape} vs {q.shape}"
        )
    if (p < 0).any() or (q < 0).any():
        raise ConfigError("divergence inputs must be non-negative")
    return p, q


def normalize(counts) -> np.ndarray:
    """Turn a non-negative count vector into a probability vector.

    A zero vector normalises to the uniform distribution, which is the
    least-informative choice and keeps downstream divergences finite.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1:
        raise ConfigError("normalize expects a 1-D vector")
    if (counts < 0).any():
        raise ConfigError("normalize expects non-negative counts")
    total = counts.sum()
    if total <= 0:
        return np.full(counts.size, 1.0 / max(counts.size, 1))
    return counts / total


def kl_divergence(p, q) -> float:
    """Kullback–Leibler divergence ``D(p || q)`` in nats.

    Inputs are normalised; ``q`` is smoothed by ``1e-12`` so the result
    stays finite when q has empty bins (common once amnesia has eaten a
    region of the domain).
    """
    p, q = _paired(p, q)
    p = normalize(p)
    q = normalize(q) + _EPS
    q /= q.sum()
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def js_divergence(p, q) -> float:
    """Jensen–Shannon divergence (symmetric, bounded by ln 2)."""
    p, q = _paired(p, q)
    p = normalize(p)
    q = normalize(q)
    m = 0.5 * (p + q)
    return 0.5 * kl_divergence(p, m) + 0.5 * kl_divergence(q, m)

