"""Statistics substrate: histograms, exact moments, divergences."""

from .divergence import js_divergence, kl_divergence, normalize
from .histograms import EquiWidthHistogram
from .moments import ExactMoments
from .table_stats import (
    STATS_BINS,
    TableHistogramStats,
    traffic_weighted_quantiles,
)

__all__ = [
    "js_divergence",
    "kl_divergence",
    "normalize",
    "EquiWidthHistogram",
    "STATS_BINS",
    "ExactMoments",
    "TableHistogramStats",
    "traffic_weighted_quantiles",
]
