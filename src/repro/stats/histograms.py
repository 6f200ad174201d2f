"""Histograms over integer value domains.

:class:`EquiWidthHistogram` keeps fixed-width bins over ``[lo, hi]``;
it is used by the distribution-aligned amnesia policy (§4.4: "forget
tuples that do not change the data distribution for all active
records") and by the divergence metrics.
"""

from __future__ import annotations

import numpy as np

from .._util.errors import ConfigError
from .._util.validation import check_positive_int

__all__ = ["EquiWidthHistogram"]


class EquiWidthHistogram:
    """Fixed-width bins over an inclusive integer range ``[lo, hi]``.

    Values outside the range are clamped into the edge bins, matching
    how the simulator clamps generated values into the domain.

    >>> h = EquiWidthHistogram(0, 9, bins=2)
    >>> h.add(np.array([0, 1, 2, 9]))
    >>> h.counts.tolist()
    [3, 1]
    """

    def __init__(self, lo: int, hi: int, bins: int = 64):
        if hi < lo:
            raise ConfigError(f"histogram range [{lo}, {hi}] is reversed")
        self.lo = int(lo)
        self.hi = int(hi)
        self.bins = check_positive_int(bins, "bins")
        self._counts = np.zeros(self.bins, dtype=np.int64)
        self._total = 0
        # Width in value units; at least 1 so bin_of is well defined for
        # degenerate single-value ranges.
        self._width = max((self.hi - self.lo + 1) / self.bins, 1e-12)

    @property
    def counts(self) -> np.ndarray:
        """Per-bin counts (read-only view)."""
        out = self._counts
        out.flags.writeable = False
        return out

    @property
    def total(self) -> int:
        """Total number of values added."""
        return self._total

    def bin_of(self, values: np.ndarray) -> np.ndarray:
        """Bin index of each value (clamped to edge bins)."""
        values = np.asarray(values, dtype=np.float64)
        idx = np.floor((values - self.lo) / self._width).astype(np.int64)
        return np.clip(idx, 0, self.bins - 1)

    def add(self, values: np.ndarray) -> None:
        """Accumulate values into the histogram."""
        values = np.asarray(values)
        if values.size == 0:
            return
        # counts() is writable internally; the property returns a
        # read-only alias of the same buffer.
        self._counts.flags.writeable = True
        np.add.at(self._counts, self.bin_of(values), 1)
        self._total += int(values.size)

    def remove(self, values: np.ndarray) -> None:
        """Remove previously added values (counts must not go negative)."""
        values = np.asarray(values)
        if values.size == 0:
            return
        self._counts.flags.writeable = True
        np.add.at(self._counts, self.bin_of(values), -1)
        self._total -= int(values.size)
        if self._total < 0 or (self._counts < 0).any():
            raise ConfigError("histogram remove() exceeded previously added counts")

    def pmf(self) -> np.ndarray:
        """Normalised bin probabilities (uniform if empty)."""
        if self._total == 0:
            return np.full(self.bins, 1.0 / self.bins)
        return self._counts / self._total

    def mass(self, low: int, high: int) -> float:
        """Estimated count of values in ``[low, high)``.

        Each bin's count is interpolated by the fraction of the bin's
        value span the probe covers (uniform-within-bin assumption) —
        the histogram twin of the zone map's per-cohort interpolation,
        but at bin rather than cohort granularity, which is what makes
        it sharp on skewed data.

        >>> h = EquiWidthHistogram.from_values(np.array([0, 0, 0, 9]), 0, 9, bins=2)
        >>> h.mass(0, 5)
        3.0
        """
        if high <= low:
            return 0.0
        edges = self.bin_edges()
        overlap = np.minimum(edges[1:], float(high)) - np.maximum(
            edges[:-1], float(low)
        )
        fraction = np.clip(overlap / self._width, 0.0, 1.0)
        return float((self._counts * fraction).sum())

    def masses(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """:meth:`mass` of each float interval ``[lows[i], highs[i])``.

        One (intervals × bins) broadcast.  Each row sums the same
        products in the same order as :meth:`mass`, so every entry is
        bit-identical to that call's; an empty interval overlaps no bin
        and reads 0.0.
        """
        edges = self.bin_edges()
        overlap = np.minimum(edges[1:], highs[:, None]) - np.maximum(
            edges[:-1], lows[:, None]
        )
        fraction = np.clip(overlap / self._width, 0.0, 1.0)
        return (self._counts * fraction).sum(axis=1)

    def bin_edges(self) -> np.ndarray:
        """Bin boundaries: ``bins + 1`` float edges from lo to hi+1."""
        return self.lo + np.arange(self.bins + 1) * self._width

    @classmethod
    def from_values(
        cls, values: np.ndarray, lo: int, hi: int, bins: int = 64
    ) -> "EquiWidthHistogram":
        """Build a histogram directly from a value array."""
        hist = cls(lo, hi, bins=bins)
        hist.add(values)
        return hist

    def copy(self) -> "EquiWidthHistogram":
        """Independent deep copy."""
        clone = EquiWidthHistogram(self.lo, self.hi, bins=self.bins)
        clone._counts = self._counts.copy()
        clone._total = self._total
        return clone

    def __repr__(self) -> str:
        return (
            f"EquiWidthHistogram(lo={self.lo}, hi={self.hi}, "
            f"bins={self.bins}, total={self._total})"
        )

