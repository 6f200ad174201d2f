"""Smoke + shape tests for the experiment harness (small sizes).

The benchmarks assert the paper's shapes at full size; these tests
verify the harness machinery itself — structure of results, determinism
and rendering — at sizes small enough for the unit suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    EXPERIMENTS,
    default_config,
    run_coldstore_economics,
    run_compression_budget,
    run_dispositions,
    run_figure1,
    run_figure2,
    run_figure3,
    run_once,
    run_selectivity,
    run_volatility,
    sweep_policies,
)


class TestRunner:
    def test_default_config_is_paper_baseline(self):
        config = default_config()
        assert config.dbsize == 1000
        assert config.update_fraction == 0.20

    def test_default_config_overrides(self):
        config = default_config(dbsize=50, epochs=2)
        assert config.dbsize == 50

    def test_default_config_derives_from_base(self):
        from repro import SimulationConfig

        base = SimulationConfig(plan="cost", workers=3, seed=11)
        config = default_config(base, dbsize=50, seed=None)
        assert (config.plan, config.workers, config.dbsize) == ("cost", 3, 50)
        assert config.seed == 11  # a None override keeps base's value
        assert default_config(base) is base

    def test_run_once_returns_simulator_and_report(self):
        config = default_config(dbsize=50, epochs=2, queries_per_epoch=5)
        simulator, report = run_once(config, "uniform", "fifo")
        assert simulator.table.active_count == 50
        assert report.policy_name == "fifo"
        assert report.distribution_name == "uniform"
        assert len(report.epochs) == 3

    def test_sweep_shares_data_stream(self):
        config = default_config(dbsize=50, epochs=2, queries_per_epoch=0)
        runs = sweep_policies(config, "uniform", ("fifo", "uniform"))
        a = runs["fifo"][0].table.values("a")
        b = runs["uniform"][0].table.values("a")
        assert np.array_equal(a, b)

    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "F1", "F2", "F3", "T1", "T2", "T3",
            "A1", "A2", "A2b", "A3", "A4", "C1", "C2", "I1",
            "X1", "X2", "X3", "X4", "X5",
        }


class TestFigure1Small:
    def test_structure_and_render(self):
        result = run_figure1(dbsize=100, epochs=3, seed=1)
        assert result.experiment_id == "F1"
        maps = result.data["cohort_activity"]
        assert set(maps) == {"fifo", "uniform", "ante", "area"}
        for fractions in maps.values():
            assert len(fractions) == 4
        rendered = result.render()
        assert "F1" in rendered and "fifo" in rendered

    def test_deterministic(self):
        a = run_figure1(dbsize=100, epochs=3, seed=5)
        b = run_figure1(dbsize=100, epochs=3, seed=5)
        assert a.data == b.data


class TestFigure2Small:
    def test_structure(self):
        result = run_figure2(
            dbsize=100, epochs=2, queries_per_epoch=50, seed=1
        )
        maps = result.data["cohort_activity"]
        assert set(maps) == {"serial", "uniform", "normal", "zipfian"}


class TestFigure3Small:
    def test_structure(self):
        result = run_figure3(
            dbsize=100,
            epochs=3,
            queries_per_epoch=30,
            seed=1,
            distributions=("uniform",),
            policies=("fifo", "rot"),
        )
        series = result.data["precision"]["uniform"]
        assert set(series) == {"fifo", "rot"}
        assert len(series["fifo"]) == 3
        assert all(0.0 <= v <= 1.0 for v in series["fifo"])


class TestTableExperimentsSmall:
    def test_volatility_structure(self):
        result = run_volatility(
            dbsize=100, epochs=2, queries_per_epoch=20, seed=1,
            fractions=(0.1, 0.5), policies=("fifo",),
        )
        assert set(result.data["precision"]) == {"0.1", "0.5"}

    def test_selectivity_structure(self):
        result = run_selectivity(
            dbsize=100, epochs=2, queries_per_epoch=20, seed=1,
            selectivities=(0.01, 0.1), policies=("uniform",),
        )
        assert set(result.data["final_precision"]["uniform"]) == {0.01, 0.1}

    def test_coldstore_structure(self):
        result = run_coldstore_economics(dbsize=100, epochs=2, seed=1)
        data = result.data["dispositions"]
        assert data["delete"]["usd_per_tb_year"] == 0.0
        assert data["cold storage"]["retention"] == "full (on request)"

    def test_compression_structure(self):
        result = run_compression_budget(
            budget_bytes=4096, batch_tuples=50, epochs=2,
            sample_size=2048, seed=1, distributions=("uniform",),
        )
        facts = result.data["uniform"]
        assert facts["capacity_best"] > facts["capacity_raw"]

    def test_dispositions_structure(self):
        result = run_dispositions(
            dbsize=200, epochs=2, seed=1, n_probe_queries=5
        )
        assert result.data["plans"]["scan (stop-indexing)"]["recall"] == 1.0
        assert result.data["aggregates"]["avg"]["with_summaries_error"] < 1e-9


class TestExtensionExperimentsSmall:
    def test_decay_comparison(self):
        from repro.experiments import run_decay_comparison

        result = run_decay_comparison(
            dbsize=100, epochs=3, queries_per_epoch=50, seed=1
        )
        by_policy = result.data["by_policy"]
        assert set(by_policy) == {"uniform", "rot", "ebbinghaus"}
        assert all(0.0 <= v["final_E"] <= 1.0 for v in by_policy.values())

    def test_adaptive_partitioning(self):
        from repro.experiments import run_adaptive_partitioning

        result = run_adaptive_partitioning(
            total_budget=100, batches=4, batch_size=100, seed=1
        )
        assert 0.0 <= result.data["static"] <= 1.0
        assert 0.0 <= result.data["adaptive"] <= 1.0

    def test_referential_integrity(self):
        from repro.experiments import run_referential_integrity

        # Sized so restrict mode always finds unreferenced parents:
        # ~200·e^(-1.2) ≈ 60 free parents for 2 epochs of 10 victims.
        result = run_referential_integrity(
            n_parents=200, n_children=240, epochs=2, seed=1
        )
        assert result.data["restrict"]["violations"] == 0
        assert result.data["cascade"]["violations"] == 0
        assert result.data["cascade"]["children_cascaded"] > 0

    def test_cross_table(self):
        from repro import SimulationConfig
        from repro.experiments import run_cross_table

        result = run_cross_table(
            budget=80, batches=3, batch_size=60, seed=1
        )
        assert result.data["spec"] == SimulationConfig().cross_query
        series = result.data["precision_series"]
        assert len(series) == 3
        assert all(0.0 <= p <= 1.0 for p in series)
        # Two forgetting streams meeting in a join: precision decays.
        assert series[-1] < series[0]
        assert "plan tree:" in result.render()

        # The experiment runs the spec of the base config it is given.
        unioned = run_cross_table(
            budget=80,
            batches=2,
            batch_size=60,
            seed=1,
            base=SimulationConfig(cross_query="union:s1,s2:low=0,high=50"),
        )
        assert unioned.data["spec"] == "union:s1,s2:low=0,high=50"
        assert all(
            len(point["inputs"]) == 2 for point in unioned.data["series"]
        )

    def test_histogram_summaries(self):
        from repro.experiments import run_histogram_summaries

        result = run_histogram_summaries(
            n_rows=2000, bins_sweep=(8, 64), seed=1
        )
        by_bins = result.data["by_bins"]
        assert by_bins[64]["mean_relative_error"] <= by_bins[8][
            "mean_relative_error"
        ]


class TestRender:
    def test_render_concatenates_sections(self):
        result = run_figure1(dbsize=100, epochs=2, seed=1)
        text = result.render()
        assert text.count("==") >= 1
        assert "Active percentage" in text
