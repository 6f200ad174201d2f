"""Tests for repro.core.config."""

from __future__ import annotations

import pytest

from repro import SimulationConfig
from repro._util.errors import ConfigError


class TestDefaults:
    def test_paper_baseline(self):
        config = SimulationConfig()
        assert config.dbsize == 1000
        assert config.update_fraction == 0.20
        assert config.epochs == 10
        assert config.queries_per_epoch == 1000
        assert config.batch_size == 200
        assert config.total_insertions == 3000

    def test_high_volatility(self):
        config = SimulationConfig(update_fraction=0.80)
        assert config.batch_size == 800
        assert config.total_insertions == 9000


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dbsize": 0},
            {"update_fraction": 0.0},
            {"update_fraction": 1.5},
            {"epochs": 0},
            {"queries_per_epoch": -1},
            {"histogram_bins": -1},
            {"column": ""},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises((ConfigError, ValueError)):
            SimulationConfig(**kwargs)

    def test_rejects_sub_tuple_batches(self):
        with pytest.raises(ValueError):
            SimulationConfig(dbsize=2, update_fraction=0.1)

    def test_frozen(self):
        config = SimulationConfig()
        with pytest.raises(AttributeError):
            config.dbsize = 5


class TestWith:
    def test_with_replaces(self):
        config = SimulationConfig().with_(update_fraction=0.8, epochs=30)
        assert config.update_fraction == 0.8
        assert config.epochs == 30
        assert config.dbsize == 1000

    def test_with_validates(self):
        with pytest.raises((ConfigError, ValueError)):
            SimulationConfig().with_(dbsize=-5)

    def test_with_empty_is_copy(self):
        config = SimulationConfig()
        assert config.with_() == config


class TestPlanKnob:
    def test_default_plan_is_auto(self):
        assert SimulationConfig().plan == "auto"

    def test_plan_validated(self):
        import pytest as _pytest

        from repro._util.errors import ConfigError

        with _pytest.raises(ConfigError):
            SimulationConfig(plan="turbo")
        assert SimulationConfig(plan="index").plan == "index"


class TestWorkersAndRebalanceKnobs:
    def test_defaults(self):
        config = SimulationConfig()
        assert config.workers == 1
        assert config.rebalance == "hits"

    def test_validation(self):
        with pytest.raises((ConfigError, ValueError)):
            SimulationConfig(workers=0)
        with pytest.raises((ConfigError, ValueError)):
            SimulationConfig(rebalance="entropy")
        assert SimulationConfig(workers=8, rebalance="adaptive").workers == 8


class TestCrossQueryKnob:
    def test_default_and_config_field(self):
        assert SimulationConfig().cross_query == "join:s1,s2:on=value"
        # Specs are stored in canonical rendered form.
        spec = SimulationConfig(cross_query="union:s1,s2:high=200,low=0")
        assert spec.cross_query == "union:s1,s2:low=0,high=200"

    def test_grammar_validated(self):
        from repro._util.errors import QueryError

        with pytest.raises(QueryError):
            SimulationConfig(cross_query="scan:s1,s2")
        with pytest.raises(QueryError):
            SimulationConfig(cross_query="join:s1")
        bounded = SimulationConfig(cross_query="union:a,b:low=0,high=9")
        assert bounded.cross_query == "union:a,b:low=0,high=9"


class TestExecBatchKnob:
    def test_default_and_config_field(self):
        config = SimulationConfig()
        assert config.exec_batch == 4096
        # Distinct knobs: exec_batch is the streaming batch size, the
        # batch_size *property* stays the paper's derived update batch.
        assert config.batch_size == 200

    def test_validation(self):
        with pytest.raises((ConfigError, ValueError)):
            SimulationConfig(exec_batch=0)
        assert SimulationConfig(exec_batch=1).exec_batch == 1


class TestCompressKnob:
    def test_default_and_config_field(self):
        from repro.core.config import COMPRESS_MODES

        assert COMPRESS_MODES == ("off", "on")
        assert SimulationConfig().compress == "off"

    def test_validation(self):
        assert SimulationConfig(compress="on").compress == "on"
        with pytest.raises(ConfigError):
            SimulationConfig(compress="zstd")
