"""Tests for repro.metrics: precision collection, maps, reports."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util.errors import ConfigError
from repro.metrics import (
    AmnesiaMap,
    BatchPrecisionCollector,
    BatchPrecisionSummary,
    EpochReport,
    RunReport,
)
from repro.query import (
    AggregateFunction,
    AggregateQuery,
    AggregateResult,
    RangePredicate,
    RangeQuery,
    RangeResult,
)


def _range_result(rf: int, mf: int) -> RangeResult:
    query = RangeQuery(RangePredicate("a", 0, 10))
    return RangeResult(
        query, np.arange(rf, dtype=np.int64), np.arange(mf, dtype=np.int64)
    )


def _agg_result(amnesiac, oracle, active=5, total=10) -> AggregateResult:
    query = AggregateQuery(AggregateFunction.AVG, "a")
    return AggregateResult(query, amnesiac, oracle, active, total)


class TestCollector:
    def test_error_margin_is_micro_average(self):
        coll = BatchPrecisionCollector()
        coll.add(_range_result(90, 10))   # PF 0.9, big query
        coll.add(_range_result(0, 10))    # PF 0.0, small query
        summary = coll.summary()
        # E = (90+0)/(100+10+0+10)... careful: totals 90/(90+10+0+10)
        assert summary.error_margin == pytest.approx(90 / 110)
        assert summary.macro_precision == pytest.approx((0.9 + 0.0) / 2)

    def test_paper_metric_names(self):
        coll = BatchPrecisionCollector()
        coll.add(_range_result(3, 1))
        summary = coll.summary()
        assert summary.total_rf == 3
        assert summary.total_mf == 1
        assert summary.n_queries == 1

    def test_aggregates_counted(self):
        coll = BatchPrecisionCollector()
        coll.add(_agg_result(4.0, 5.0))
        summary = coll.summary()
        assert summary.n_aggregate == 1
        assert summary.aggregate_mean_relative_error == pytest.approx(0.2)
        assert summary.aggregate_mean_precision == pytest.approx(0.8)
        # Tuple counts flow into E.
        assert summary.total_rf == 5 and summary.total_mf == 5

    def test_mixed_batch(self):
        coll = BatchPrecisionCollector()
        coll.extend([_range_result(10, 0), _agg_result(1.0, 1.0)])
        summary = coll.summary()
        assert summary.n_range == 1 and summary.n_aggregate == 1
        assert summary.aggregate_mean_precision == 1.0

    def test_no_aggregates_yields_none(self):
        coll = BatchPrecisionCollector()
        coll.add(_range_result(1, 0))
        summary = coll.summary()
        assert summary.aggregate_mean_relative_error is None
        assert summary.aggregate_mean_precision is None

    def test_empty_summary_raises(self):
        with pytest.raises(ConfigError):
            BatchPrecisionCollector().summary()

    def test_rejects_unknown_type(self):
        with pytest.raises(ConfigError):
            BatchPrecisionCollector().add("nope")

    def test_all_empty_queries_give_perfect_precision(self):
        coll = BatchPrecisionCollector()
        coll.add(_range_result(0, 0))
        summary = coll.summary()
        assert summary.error_margin == 1.0
        assert summary.macro_precision == 1.0


class TestAmnesiaMap:
    def test_snapshot_accumulation(self):
        amap = AmnesiaMap()
        amap.add_snapshot(0, {0: 1.0})
        amap.add_snapshot(1, {0: 0.8, 1: 1.0})
        assert len(amap) == 2
        assert amap.epochs == [0, 1]
        assert amap.final_row() == {0: 0.8, 1: 1.0}
        assert amap.snapshot(0) == {0: 1.0}

    def test_final_fractions_ordered(self):
        amap = AmnesiaMap()
        amap.add_snapshot(0, {1: 0.25, 0: 0.75})
        assert amap.final_fractions().tolist() == [0.75, 0.25]

    def test_validation(self):
        amap = AmnesiaMap()
        amap.add_snapshot(1, {0: 1.0})
        with pytest.raises(ConfigError):
            amap.add_snapshot(1, {0: 0.5})  # duplicate
        with pytest.raises(ConfigError):
            amap.add_snapshot(0, {0: 0.5})  # out of order
        with pytest.raises(ConfigError):
            amap.add_snapshot(2, {0: 1.5})  # bad fraction
        with pytest.raises(ConfigError):
            AmnesiaMap().final_row()
        with pytest.raises(ConfigError):
            amap.snapshot(99)


class TestReports:
    def _summary(self, e: float) -> BatchPrecisionSummary:
        return BatchPrecisionSummary(
            n_range=1,
            n_aggregate=0,
            total_rf=int(e * 100),
            total_mf=100 - int(e * 100),
            macro_precision=e,
            error_margin=e,
            aggregate_mean_relative_error=None,
            aggregate_mean_precision=None,
        )

    def test_epoch_report_shortcuts(self):
        report = EpochReport(
            epoch=1, active_rows=90, total_rows=120, inserted=20,
            forgotten=20, precision=self._summary(0.75),
        )
        assert report.forgotten_rows == 30
        assert report.error_margin == 0.75

    def test_epoch_report_without_queries(self):
        report = EpochReport(
            epoch=0, active_rows=100, total_rows=100, inserted=100,
            forgotten=0, precision=None,
        )
        assert report.error_margin is None

    def test_run_report_series(self):
        epochs = [
            EpochReport(0, 100, 100, 100, 0, None),
            EpochReport(1, 100, 120, 20, 20, self._summary(0.9)),
            EpochReport(2, 100, 140, 20, 20, self._summary(0.7)),
        ]
        run = RunReport("fifo", "uniform", 100, 0.2, epochs)
        assert run.precision_series() == [0.9, 0.7]
        assert run.aggregate_precision_series() == []
        assert run.final_epoch().epoch == 2

    def test_run_report_empty_raises(self):
        run = RunReport("fifo", "uniform", 100, 0.2, [])
        with pytest.raises(ValueError):
            run.final_epoch()
