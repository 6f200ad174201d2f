"""Amnesia strategies (paper §3 and §4.4).

Temporal: fifo, uniform, retrograde, anterograde.  Query-based: rot,
overuse.  Spatial: area.  Extensions: pair-preserving, distribution-
aligned, stratified, cost-based.  Combinator: privacy retention.
"""

from .area import AreaAmnesia
from .base import AmnesiaPolicy
from .decay import EbbinghausAmnesia
from .extensions import (
    CostBasedAmnesia,
    DistributionAlignedAmnesia,
    PairPreservingAmnesia,
    StratifiedAmnesia,
)
from .privacy import PrivacyRetentionWrapper
from .registry import (
    FIGURE1_POLICIES,
    FIGURE3_POLICIES,
    POLICY_NAMES,
    make_policy,
)
from .rot import OveruseAmnesia, RotAmnesia
from .sampling import (
    uniform_sample_without_replacement,
    weighted_sample_without_replacement,
)
from .temporal import (
    AnterogradeAmnesia,
    FifoAmnesia,
    RetrogradeAmnesia,
    UniformAmnesia,
)

__all__ = [
    "AmnesiaPolicy",
    "AreaAmnesia",
    "EbbinghausAmnesia",
    "CostBasedAmnesia",
    "DistributionAlignedAmnesia",
    "PairPreservingAmnesia",
    "StratifiedAmnesia",
    "PrivacyRetentionWrapper",
    "FIGURE1_POLICIES",
    "FIGURE3_POLICIES",
    "POLICY_NAMES",
    "make_policy",
    "OveruseAmnesia",
    "RotAmnesia",
    "uniform_sample_without_replacement",
    "weighted_sample_without_replacement",
    "AnterogradeAmnesia",
    "FifoAmnesia",
    "RetrogradeAmnesia",
    "UniformAmnesia",
]
