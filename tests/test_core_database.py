"""Tests for repro.core.database: the AmnesiaDatabase facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro import AmnesiaDatabase
from repro._util.errors import ConfigError, QueryError
from repro.amnesia import FifoAmnesia, PrivacyRetentionWrapper, UniformAmnesia
from repro.partitioning import PartitionedAmnesiaDatabase
from repro.query import AggregateFunction
from repro.serving import QueryService
from repro.storage import Catalog


class TestBudgetEnforcement:
    def test_insert_below_budget_keeps_all(self):
        db = AmnesiaDatabase(budget=100, policy=FifoAmnesia())
        db.insert({"a": np.arange(50)})
        assert db.active_count == 50
        assert db.total_rows == 50

    def test_insert_above_budget_forgets_down(self):
        db = AmnesiaDatabase(budget=100, policy=FifoAmnesia())
        db.insert({"a": np.arange(150)})
        assert db.active_count == 100
        assert db.total_rows == 150

    def test_fifo_keeps_newest(self):
        db = AmnesiaDatabase(budget=100, policy=FifoAmnesia())
        db.insert({"a": np.arange(150)})
        assert db.range_query("a", 0, 50).rf == 0
        assert db.range_query("a", 50, 150).rf == 100

    def test_epoch_advances_per_insert(self):
        db = AmnesiaDatabase(budget=100, policy=FifoAmnesia())
        db.insert({"a": np.arange(10)})
        db.insert({"a": np.arange(10)})
        assert db.epoch == 2
        assert len(db.table.cohorts) == 2

    def test_budget_validated(self):
        with pytest.raises(ConfigError):
            AmnesiaDatabase(budget=0, policy=FifoAmnesia())


class TestCreateIndex:
    def test_hash_kind_is_rejected(self):
        """Only the sorted and block-range kinds exist; any other kind,
        the retired hash index included, names the two it may be."""
        db = AmnesiaDatabase(budget=100, policy=FifoAmnesia())
        db.insert({"a": np.arange(50)})
        with pytest.raises(ConfigError, match=r"\('sorted', 'brin'\)"):
            db.create_index("a", "hash")
        assert db.planner.stats()["indexes"] == {}

    @pytest.mark.parametrize("kind", ["sorted", "brin"])
    def test_known_kinds_serve_index_plans(self, kind):
        db = AmnesiaDatabase(budget=100, policy=FifoAmnesia(), plan="index")
        db.insert({"a": np.arange(150)})
        db.create_index("a", kind)
        assert db.explain("a", 60, 70).mode == "index"
        assert db.range_query("a", 0, 100).rf == 50


class TestInsertValidation:
    def test_lossy_float_insert_rejected(self):
        """The old path silently truncated 2.7 to 2; now it refuses —
        and atomically: no epoch advance, no partial rows."""
        db = AmnesiaDatabase(budget=100, policy=FifoAmnesia())
        with pytest.raises(QueryError, match="without loss"):
            db.insert({"a": np.array([1.0, 2.7])})
        assert db.total_rows == 0
        assert db.epoch == 0

    def test_integer_valued_floats_accepted(self):
        db = AmnesiaDatabase(budget=100, policy=FifoAmnesia())
        db.insert({"a": np.array([1.0, 2.0, 3.0])})
        assert db.total_rows == 3

    def test_infinite_values_rejected(self):
        db = AmnesiaDatabase(budget=100, policy=FifoAmnesia())
        with pytest.raises(QueryError, match="finite"):
            db.insert({"a": np.array([1.0, np.inf])})

    def test_huge_uint64_rejected_not_wrapped(self):
        db = AmnesiaDatabase(budget=100, policy=FifoAmnesia())
        with pytest.raises(QueryError):
            db.insert({"a": np.array([2**64 - 1], dtype=np.uint64)})


class TestQueries:
    def test_range_query_precision(self):
        db = AmnesiaDatabase(budget=100, policy=FifoAmnesia())
        db.insert({"a": np.arange(200)})
        result = db.range_query("a", 90, 110)
        assert result.rf == 10  # 100..109 survive
        assert result.mf == 10
        assert result.precision == 0.5

    def test_aggregate_whole_table(self):
        db = AmnesiaDatabase(budget=10, policy=FifoAmnesia())
        db.insert({"a": np.arange(20)})
        result = db.aggregate("avg", "a")
        assert result.amnesiac_value == pytest.approx(14.5)
        assert result.oracle_value == pytest.approx(9.5)

    def test_aggregate_windowed(self):
        db = AmnesiaDatabase(budget=100, policy=FifoAmnesia())
        db.insert({"a": np.arange(100)})
        result = db.aggregate("sum", "a", 0, 10)
        assert result.amnesiac_value == result.oracle_value == 45.0

    def test_aggregate_window_requires_both_bounds(self):
        db = AmnesiaDatabase(budget=10, policy=FifoAmnesia())
        db.insert({"a": np.arange(5)})
        with pytest.raises(ConfigError):
            db.aggregate("avg", "a", low=3)

    def test_queries_feed_access_counts(self):
        db = AmnesiaDatabase(budget=100, policy=FifoAmnesia())
        db.insert({"a": np.arange(100)})
        db.range_query("a", 0, 10)
        assert db.table.access_counts()[:10].sum() == 10


class TestAggregateAgreement:
    """Every front end finalizes an aggregate the same way, to the bit."""

    @staticmethod
    def _front_ends(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 3000))
        values = rng.integers(0, 10 ** int(rng.integers(1, 10)), n)
        budget = int(rng.integers(1, n + 1))
        cuts = np.sort(rng.integers(0, n + 1, 2))
        db = AmnesiaDatabase(budget=budget, policy=FifoAmnesia())
        sharded = PartitionedAmnesiaDatabase(
            "a", [0, int(values.max()) + 1], budget, FifoAmnesia
        )
        for batch in np.split(values, cuts):
            db.insert({"a": batch})
            sharded.insert({"a": batch})
        catalog = Catalog()
        table = catalog.create_table("t", ["a"])
        table.insert_batch(0, {"a": values})
        table.forget(np.flatnonzero(~db.table.active_mask()), 1)
        service = QueryService(catalog)
        service.register_tenant("tenant", tables={"t"})
        token = service.open_session("tenant").token
        low, high = np.sort(rng.integers(0, int(values.max()) + 2, 2))
        return db, sharded, catalog, service, token, (int(low), int(high))

    @pytest.mark.parametrize("seed", range(200))
    def test_single_sharded_and_served_agree(self, seed):
        db, sharded, catalog, service, token, window = self._front_ends(seed)
        try:
            for function in AggregateFunction:
                for bounds in ((None, None), window):
                    local = db.aggregate(function, "a", *bounds)
                    request = {
                        "op": "query",
                        "token": token,
                        "source": "t",
                        "kind": "aggregate",
                        "function": function.value,
                        "column": "a",
                    }
                    if bounds[0] is not None:
                        request["predicate"] = {
                            "type": "range",
                            "column": "a",
                            "low": bounds[0],
                            "high": bounds[1],
                        }
                    served = service.handle(request)
                    expected = (local.amnesiac_value, local.oracle_value)
                    assert sharded.aggregate(function, *bounds) == expected
                    assert (
                        served["amnesiac_value"],
                        served["oracle_value"],
                    ) == expected
        finally:
            service.close()
            catalog.close()
            sharded.close()


class TestStats:
    def test_stats_snapshot(self):
        db = AmnesiaDatabase(budget=50, policy=UniformAmnesia())
        db.insert({"a": np.arange(80)})
        stats = db.stats()
        assert stats["budget"] == 50
        assert stats["active_rows"] == 50
        assert stats["total_rows"] == 80
        assert stats["forgotten_rows"] == 30
        assert stats["policy"] == "uniform"
        assert stats["epoch"] == 1

    def test_repr(self):
        db = AmnesiaDatabase(budget=10, policy=FifoAmnesia())
        assert "fifo" in repr(db)


class TestPrivacyIntegration:
    def test_purge_runs_even_under_budget(self):
        policy = PrivacyRetentionWrapper(FifoAmnesia(), max_age_epochs=2)
        db = AmnesiaDatabase(budget=1000, policy=policy)
        for _ in range(4):
            db.insert({"a": np.arange(10)})
            active = db.table.active_positions()
            ages = db.epoch - db.table.insert_epochs()[active]
            assert ages.max() < 2

    def test_multi_column(self):
        db = AmnesiaDatabase(
            budget=10, policy=FifoAmnesia(), columns=("k", "v")
        )
        db.insert({"k": np.arange(20), "v": np.arange(20) * 10})
        result = db.range_query("v", 100, 200)
        assert result.rf == 10
