"""Tests for repro.query: queries, results, executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util.errors import QueryError
from repro.query import (
    AggregateFunction,
    AggregateQuery,
    QueryExecutor,
    RangePredicate,
    RangeQuery,
    TruePredicate,
)
from repro.stats import ExactMoments
from repro.storage import Table


class TestAggregateFunction:
    def test_all_functions(self):
        moments = ExactMoments.of(np.array([1, 2, 3, 4]))
        assert AggregateFunction.AVG.from_moments(moments) == 2.5
        assert AggregateFunction.SUM.from_moments(moments) == 10.0
        assert AggregateFunction.COUNT.from_moments(moments) == 4.0
        assert AggregateFunction.MIN.from_moments(moments) == 1.0
        assert AggregateFunction.MAX.from_moments(moments) == 4.0
        assert AggregateFunction.VAR.from_moments(moments) == pytest.approx(1.25)
        assert AggregateFunction.STD.from_moments(moments) == pytest.approx(
            np.sqrt(1.25)
        )

    def test_empty_input(self):
        empty = ExactMoments.of(np.empty(0, dtype=np.int64))
        assert AggregateFunction.COUNT.from_moments(empty) == 0.0
        assert AggregateFunction.AVG.from_moments(empty) is None
        assert AggregateFunction.MIN.from_moments(empty) is None

    def test_from_string(self):
        assert AggregateFunction("avg") is AggregateFunction.AVG


class TestRangeExecution:
    def test_split_active_vs_missed(self, small_table):
        small_table.forget(np.arange(0, 50), epoch=1)
        executor = QueryExecutor(small_table)
        result = executor.execute_range(
            RangeQuery(RangePredicate("a", 40, 60)), epoch=1
        )
        assert result.rf == 10  # values 50..59
        assert result.mf == 10  # values 40..49 forgotten
        assert result.oracle_count == 20
        assert result.precision == 0.5
        assert sorted(result.active_positions.tolist()) == list(range(50, 60))
        assert sorted(result.missed_positions.tolist()) == list(range(40, 50))

    def test_empty_oracle_result_has_precision_one(self, small_table):
        executor = QueryExecutor(small_table)
        result = executor.execute_range(
            RangeQuery(RangePredicate("a", 1000, 2000)), epoch=1
        )
        assert result.rf == 0 and result.mf == 0
        assert result.precision == 1.0

    def test_access_accounting(self, small_table):
        executor = QueryExecutor(small_table)
        executor.execute_range(RangeQuery(RangePredicate("a", 0, 3)), epoch=5)
        counts = small_table.access_counts()
        assert counts[:3].tolist() == [1, 1, 1]
        assert counts[3] == 0
        assert small_table.last_access_epochs()[0] == 5

    def test_access_accounting_skips_forgotten(self, small_table):
        small_table.forget(np.array([0]), epoch=1)
        QueryExecutor(small_table).execute_range(
            RangeQuery(RangePredicate("a", 0, 3)), epoch=1
        )
        assert small_table.access_counts()[0] == 0

    def test_record_access_disabled(self, small_table):
        executor = QueryExecutor(small_table, record_access=False)
        executor.execute_range(RangeQuery(RangePredicate("a", 0, 3)), epoch=1)
        assert (small_table.access_counts() == 0).all()

    def test_empty_table_raises(self):
        table = Table("t", ["a"])
        with pytest.raises(QueryError):
            QueryExecutor(table).execute_range(
                RangeQuery(RangePredicate("a", 0, 1)), epoch=0
            )


class TestAggregateExecution:
    def test_whole_table_avg(self, small_table):
        small_table.forget(np.arange(50, 100), epoch=1)  # values 50..99
        executor = QueryExecutor(small_table)
        result = executor.execute_aggregate(
            AggregateQuery(AggregateFunction.AVG, "a"), epoch=1
        )
        assert result.amnesiac_value == pytest.approx(24.5)
        assert result.oracle_value == pytest.approx(49.5)
        assert result.active_matches == 50
        assert result.oracle_matches == 100
        assert result.missed_matches == 50
        assert result.tuple_precision == 0.5
        assert result.relative_error == pytest.approx(25.0 / 49.5)
        assert result.amnesiac_value != result.oracle_value

    def test_windowed_aggregate(self, small_table):
        executor = QueryExecutor(small_table)
        query = AggregateQuery(
            AggregateFunction.SUM, "a", RangePredicate("a", 10, 12)
        )
        result = executor.execute_aggregate(query, epoch=1)
        assert result.amnesiac_value == result.oracle_value == 21.0
        assert result.precision == 1.0

    def test_null_answer_counts_as_total_loss(self, small_table):
        small_table.forget(np.arange(100), epoch=1)
        executor = QueryExecutor(small_table)
        result = executor.execute_aggregate(
            AggregateQuery(AggregateFunction.AVG, "a"), epoch=1
        )
        assert result.amnesiac_value is None
        assert result.relative_error == 1.0
        assert result.precision == 0.0

    def test_unknown_column_raises(self, small_table):
        with pytest.raises(QueryError):
            QueryExecutor(small_table).execute_aggregate(
                AggregateQuery(AggregateFunction.AVG, "nope"), epoch=1
            )

    def test_effective_predicate_default(self):
        query = AggregateQuery(AggregateFunction.AVG, "a")
        assert isinstance(query.effective_predicate(), TruePredicate)
        assert query.columns == ("a",)

    def test_columns_include_predicate(self):
        query = AggregateQuery(
            AggregateFunction.AVG, "a", RangePredicate("b", 0, 1)
        )
        assert query.columns == ("a", "b")


class TestDispatch:
    def test_execute_dispatches(self, small_table):
        executor = QueryExecutor(small_table)
        range_result = executor.execute(
            RangeQuery(RangePredicate("a", 0, 5)), epoch=1
        )
        agg_result = executor.execute(
            AggregateQuery(AggregateFunction.COUNT, "a"), epoch=1
        )
        assert range_result.rf == 5
        assert agg_result.amnesiac_value == 100.0

    def test_execute_rejects_unknown(self, small_table):
        with pytest.raises(QueryError):
            QueryExecutor(small_table).execute("not a query", epoch=1)


class TestResultEdgeCases:
    def test_aggregate_relative_error_floor(self, small_table):
        """Oracle MIN of a serial column is 0 — denominator is floored."""
        small_table.forget(np.array([0]), epoch=1)
        result = QueryExecutor(small_table).execute_aggregate(
            AggregateQuery(AggregateFunction.MIN, "a"), epoch=1
        )
        assert result.oracle_value == 0.0
        assert result.amnesiac_value == 1.0
        assert result.relative_error == 1.0  # |1-0| / max(|0|, 1)
