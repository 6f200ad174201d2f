"""Cold-storage tier: archive of forgotten tuples + Glacier cost model."""

from .cost_model import GLACIER_2016, StorageCostModel, TierUsage
from .store import ColdStore

__all__ = [
    "GLACIER_2016",
    "StorageCostModel",
    "TierUsage",
    "ColdStore",
]
