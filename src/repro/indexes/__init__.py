"""Indexes that skip forgotten data: sorted and block-range (BRIN)."""

from .base import Index, ProbeResult
from .brin import BlockRangeIndex
from .sorted_index import SortedIndex

__all__ = ["Index", "ProbeResult", "BlockRangeIndex", "SortedIndex"]
