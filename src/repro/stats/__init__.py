"""Statistics substrate: histograms, exact moments, divergences, Zipf."""

from .divergence import (
    earth_movers_distance,
    js_divergence,
    kl_divergence,
    normalize,
    total_variation,
)
from .histograms import EquiDepthHistogram, EquiWidthHistogram
from .moments import ExactMoments
from .table_stats import (
    STATS_BINS,
    TableHistogramStats,
    traffic_weighted_median,
    traffic_weighted_quantiles,
)
from .zipf import fit_zipf_exponent, gini_coefficient, top_share

__all__ = [
    "earth_movers_distance",
    "js_divergence",
    "kl_divergence",
    "normalize",
    "total_variation",
    "EquiDepthHistogram",
    "EquiWidthHistogram",
    "STATS_BINS",
    "ExactMoments",
    "TableHistogramStats",
    "traffic_weighted_median",
    "traffic_weighted_quantiles",
    "fit_zipf_exponent",
    "gini_coefficient",
    "top_share",
]
