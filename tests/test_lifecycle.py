"""Tests for repro.lifecycle: dispositions + disposition executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util.errors import LifecycleError
from repro.indexes import SortedIndex
from repro.lifecycle import (
    ColdStorageDisposition,
    DispositionExecutor,
    HardDeleteDisposition,
    MarkOnlyDisposition,
    StopIndexingDisposition,
    SummaryDisposition,
)
from repro.storage import Table


@pytest.fixture
def half_forgotten():
    """1000-row serial table, first half forgotten; disposition attached."""

    def _make(disposition):
        table = Table("t", ["a"])
        table.add_observer(disposition)
        table.insert_batch(0, {"a": np.arange(1000)})
        table.forget(np.arange(500), epoch=1)
        return table

    return _make


class TestMarkOnly:
    def test_invisible_everywhere(self, half_forgotten):
        disposition = MarkOnlyDisposition()
        table = half_forgotten(disposition)
        assert disposition.scan_mask(table).sum() == 500
        assert disposition.index_mask(table).sum() == 500
        assert not disposition.recoverable
        assert disposition.stats()["disposition"] == "mark"


class TestHardDelete:
    def test_accounting(self, half_forgotten):
        disposition = HardDeleteDisposition()
        half_forgotten(disposition)
        stats = disposition.stats()
        assert stats["tuples_deleted"] == 500
        assert stats["bytes_reclaimed"] == 500 * 8
        assert not disposition.recoverable


class TestStopIndexing:
    def test_scan_sees_all_index_sees_active(self, half_forgotten):
        disposition = StopIndexingDisposition()
        table = half_forgotten(disposition)
        assert disposition.scan_mask(table).sum() == 1000
        assert disposition.index_mask(table).sum() == 500
        assert disposition.recoverable


class TestColdStorageDisposition:
    def test_archives_on_forget(self, half_forgotten):
        disposition = ColdStorageDisposition()
        half_forgotten(disposition)
        assert disposition.store.tuple_count == 500
        recovered = disposition.recover(np.array([0, 499]))
        assert recovered["a"].tolist() == [0, 499]
        stats = disposition.stats()
        assert stats["archived_tuples"] == 500
        assert stats["retrieval_cost_usd"] > 0.0


class TestSummaryDisposition:
    def test_summarises_on_forget(self, half_forgotten):
        disposition = SummaryDisposition()
        half_forgotten(disposition)
        assert disposition.store.tuple_count == 500
        summary = disposition.store.combined("a")
        assert summary.min == 0 and summary.max == 499
        assert disposition.stats()["summary_bytes"] == 40

    def test_empty_forget_rejected(self, small_table):
        disposition = SummaryDisposition()
        with pytest.raises(LifecycleError):
            disposition.on_forget(small_table, np.empty(0, dtype=np.int64))


class TestForgetEpochRecorded:
    """Dispositions stamp the forget epoch, not the newest insert cohort."""

    @pytest.fixture
    def two_cohorts(self):
        table = Table("t", ["a", "b"])
        table.insert_batch(0, {"a": np.arange(10), "b": np.arange(10) * 2})
        table.insert_batch(1, {"a": np.arange(10, 20), "b": np.arange(10, 20) * 2})
        return table

    def test_live_forget(self, two_cohorts):
        cold, summary = ColdStorageDisposition(), SummaryDisposition()
        two_cohorts.add_observer(cold)
        two_cohorts.add_observer(summary)
        two_cohorts.forget(np.array([3, 12]), epoch=7)
        assert cold.store._epochs == [7]
        assert [e.epoch for e in summary.store.events()] == [7]
        assert cold.recover(np.array([12, 3]))["b"].tolist() == [24, 6]

    def test_backfill_records_newest_forget(self, two_cohorts):
        two_cohorts.forget(np.array([3]), epoch=4)
        two_cohorts.forget(np.array([12]), epoch=9)
        cold, summary = ColdStorageDisposition(), SummaryDisposition()
        two_cohorts.add_observer(cold)
        two_cohorts.add_observer(summary)
        assert cold.store._epochs == [9]
        assert [e.epoch for e in summary.store.events()] == [9]


class TestDispositionExecutor:
    def test_scan_recall_under_stop_indexing(self, half_forgotten):
        disposition = StopIndexingDisposition()
        table = half_forgotten(disposition)
        executor = DispositionExecutor(table, disposition)
        outcome = executor.range_scan("a", 0, 1000)
        assert outcome.recall == 1.0
        assert outcome.returned == 1000
        assert outcome.tuples_touched == 1000
        assert outcome.plan == "scan"

    def test_scan_recall_under_mark_only(self, half_forgotten):
        disposition = MarkOnlyDisposition()
        table = half_forgotten(disposition)
        outcome = DispositionExecutor(table, disposition).range_scan("a", 0, 1000)
        assert outcome.recall == 0.5

    def test_index_plan_skips_forgotten_cheaply(self, half_forgotten):
        disposition = StopIndexingDisposition()
        table = half_forgotten(disposition)
        index = SortedIndex(table, "a")
        executor = DispositionExecutor(table, disposition, index=index)
        outcome = executor.range_via_index("a", 400, 600)
        assert outcome.returned == 100  # 500..599 survive
        assert outcome.oracle_matches == 200
        assert outcome.recall == 0.5
        assert outcome.tuples_touched < 1000

    def test_index_plan_requires_index(self, half_forgotten):
        disposition = StopIndexingDisposition()
        table = half_forgotten(disposition)
        executor = DispositionExecutor(table, disposition)
        with pytest.raises(LifecycleError):
            executor.range_via_index("a", 0, 10)

    def test_index_column_checked(self, half_forgotten):
        disposition = StopIndexingDisposition()
        table = half_forgotten(disposition)
        index = SortedIndex(table, "a")
        executor = DispositionExecutor(table, disposition, index=index)
        with pytest.raises(LifecycleError):
            executor.range_via_index("b", 0, 10)

    def test_foreign_index_rejected(self, half_forgotten):
        disposition = StopIndexingDisposition()
        table = half_forgotten(disposition)
        other = Table("other", ["a"])
        other.insert_batch(0, {"a": [1]})
        foreign = SortedIndex(other, "a")
        with pytest.raises(LifecycleError):
            DispositionExecutor(table, disposition, index=foreign)

    def test_empty_match_recall_is_one(self, half_forgotten):
        disposition = MarkOnlyDisposition()
        table = half_forgotten(disposition)
        outcome = DispositionExecutor(table, disposition).range_scan(
            "a", 5000, 6000
        )
        assert outcome.recall == 1.0

    def test_summary_aggregates_exact(self, half_forgotten):
        disposition = SummaryDisposition()
        table = half_forgotten(disposition)
        executor = DispositionExecutor(table, disposition)
        answer, oracle = executor.aggregate_with_summaries("avg", "a")
        assert answer == pytest.approx(oracle)
        assert oracle == pytest.approx(499.5)

    def test_summary_aggregates_need_summary_disposition(self, half_forgotten):
        disposition = MarkOnlyDisposition()
        table = half_forgotten(disposition)
        executor = DispositionExecutor(table, disposition)
        with pytest.raises(LifecycleError):
            executor.aggregate_with_summaries("avg", "a")
