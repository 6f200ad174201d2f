"""Summaries of forgotten data: exact moments plus histogram micro-models."""

from .histogram_summary import HistogramSummaryStore
from .summary import ForgottenSummary, SummaryStore

__all__ = [
    "ForgottenSummary",
    "HistogramSummaryStore",
    "SummaryStore",
]
