"""Tests for the command-line harness."""

from __future__ import annotations

import io

import pytest

from repro import SimulationConfig
from repro.cli import build_parser, main
from repro.experiments import EXPERIMENTS


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command(self):
        args = build_parser().parse_args(["run", "F1", "--seed", "7"])
        assert args.command == "run"
        assert args.experiment == "F1"
        assert args.seed == 7

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


def _recording_runner(seen: list):
    """A stand-in experiment that records the ``base`` it receives."""

    def runner(seed=None, base=None):
        seen.append(base)
        return _FakeResult()

    return runner


class TestMain:
    def test_list_prints_every_experiment(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        text = out.getvalue()
        for experiment_id in EXPERIMENTS:
            assert experiment_id in text

    def test_unknown_experiment_fails(self):
        out = io.StringIO()
        assert main(["run", "ZZ"], out=out) == 2

    def test_run_lowercase_accepted(self, monkeypatch):
        calls = {}

        def fake_runner(seed=None, base=None):
            calls["seed"] = seed

            class R:
                def render(self):
                    return "ok"

            return R()

        monkeypatch.setitem(EXPERIMENTS, "F1", fake_runner)
        out = io.StringIO()
        assert main(["run", "f1", "--seed", "3"], out=out) == 0
        assert calls["seed"] == 3
        assert "ok" in out.getvalue()

    def test_query_flag_sets_and_restores_default(self, monkeypatch):
        seen = []
        monkeypatch.setitem(EXPERIMENTS, "X5", _recording_runner(seen))
        out = io.StringIO()
        assert (
            main(["run", "X5", "--query", "union:s1,s2:low=0,high=9"], out=out)
            == 0
        )
        assert main(["run", "X5"], out=out) == 0
        assert [base.cross_query for base in seen] == [
            "union:s1,s2:low=0,high=9",
            SimulationConfig().cross_query,  # the next run is unaffected
        ]

    def test_bad_query_spec_rejected_before_running(self, monkeypatch, capsys):
        def boom(**kwargs):  # pragma: no cover - must not run
            raise AssertionError("experiment ran despite a bad --query")

        monkeypatch.setitem(EXPERIMENTS, "X5", boom)
        out = io.StringIO()
        assert main(["run", "X5", "--query", "merge:a,b"], out=out) == 2
        assert "--query" in capsys.readouterr().err

    def test_query_binding_error_exits_cleanly(self):
        """A --query that parses but names tables the experiment does
        not create fails with the clean exit-2 diagnostic, not a
        traceback (binding happens only once the catalog resolves it)."""
        out = io.StringIO()
        assert (
            main(["run", "X5", "--query", "join:s1,sX:on=value"], out=out)
            == 2
        )

    def test_run_all(self, monkeypatch):
        ran = []

        def make_fake(experiment_id):
            def fake_runner(seed=None, base=None):
                ran.append(experiment_id)
                assert base == SimulationConfig()

                class R:
                    def render(self):
                        return experiment_id

                return R()

            return fake_runner

        for experiment_id in list(EXPERIMENTS):
            monkeypatch.setitem(EXPERIMENTS, experiment_id, make_fake(experiment_id))
        out = io.StringIO()
        assert main(["run", "all"], out=out) == 0
        assert ran == list(EXPERIMENTS)


class TestRunBase:
    """Each ``run`` flag reaches the runner through its ``base`` config."""

    @pytest.mark.parametrize(
        "flag, arg, field, value",
        [
            pytest.param("--plan", "scan", "plan", "scan", id="plan"),
            pytest.param("--stats", "hist", "stats", "hist", id="stats"),
            pytest.param("--workers", "4", "workers", 4, id="workers"),
            pytest.param(
                "--rebalance", "adaptive", "rebalance", "adaptive",
                id="rebalance",
            ),
            pytest.param(
                "--query", "union:s1,s2", "cross_query", "union:s1,s2",
                id="query",
            ),
            pytest.param(
                "--batch-size", "64", "exec_batch", 64, id="batch-size"
            ),
            pytest.param("--compress", "on", "compress", "on", id="compress"),
            pytest.param(
                "--checkpoint", "/tmp/ck.npz", "checkpoint", "/tmp/ck.npz",
                id="checkpoint",
            ),
        ],
    )
    def test_flag_arrives_in_base(self, monkeypatch, flag, arg, field, value):
        seen = []
        monkeypatch.setitem(EXPERIMENTS, "F1", _recording_runner(seen))
        assert main(["run", "F1", flag, arg], out=io.StringIO()) == 0
        (base,) = seen
        assert getattr(base, field) == value
        # Every other field keeps its SimulationConfig default.
        assert base == SimulationConfig().with_(**{field: value})

    def test_every_runner_accepts_seed_and_base(self):
        import inspect

        for runner in EXPERIMENTS.values():
            params = inspect.signature(runner).parameters
            assert params["seed"].default is None
            assert params["base"].default is None


class TestPlanFlag:
    def test_parser_accepts_plan(self):
        args = build_parser().parse_args(["run", "F1", "--plan", "zonemap"])
        assert args.plan == "zonemap"

    def test_parser_rejects_unknown_plan(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "F1", "--plan", "turbo"])

    def test_plan_flag_scoped_to_invocation(self, monkeypatch):
        seen = []
        monkeypatch.setitem(EXPERIMENTS, "F1", _recording_runner(seen))
        out = io.StringIO()
        assert main(["run", "F1", "--plan", "scan"], out=out) == 0
        assert main(["run", "F1"], out=out) == 0
        assert [base.plan for base in seen] == ["scan", "auto"]


class TestStatsFlag:
    def test_parser_accepts_stats(self):
        args = build_parser().parse_args(["run", "F1", "--stats", "hist"])
        assert args.stats == "hist"

    def test_parser_rejects_unknown_stats(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "F1", "--stats", "psychic"])

    def test_stats_flag_scoped_to_invocation(self, monkeypatch):
        seen = []
        monkeypatch.setitem(EXPERIMENTS, "F1", _recording_runner(seen))
        out = io.StringIO()
        assert main(["run", "F1", "--stats", "hist"], out=out) == 0
        assert main(["run", "F1"], out=out) == 0
        assert [base.stats for base in seen] == ["hist", "uniform"]


class TestWorkersAndRebalanceFlags:
    def test_parser_accepts_workers_and_rebalance(self):
        args = build_parser().parse_args(
            ["run", "X2", "--workers", "4", "--rebalance", "adaptive"]
        )
        assert args.workers == 4
        assert args.rebalance == "adaptive"

    def test_parser_rejects_unknown_rebalance(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "X2", "--rebalance", "entropy"])

    def test_invalid_workers_fails_cleanly(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setitem(EXPERIMENTS, "F1", _recording_runner(seen))
        out = io.StringIO()
        assert main(
            ["run", "F1", "--plan", "cost", "--workers", "0"], out=out
        ) == 2
        assert seen == [], "experiment must not start under a bad flag"
        assert "--workers" in capsys.readouterr().err


class TestBatchSizeFlag:
    def test_parser_accepts_batch_size(self):
        args = build_parser().parse_args(["run", "X5", "--batch-size", "512"])
        assert args.batch_size == 512

    def test_invalid_batch_size_fails_cleanly(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setitem(EXPERIMENTS, "F1", _recording_runner(seen))
        out = io.StringIO()
        assert main(
            ["run", "F1", "--plan", "cost", "--batch-size", "0"], out=out
        ) == 2
        assert seen == [], "experiment must not start under a bad flag"
        assert "--batch-size" in capsys.readouterr().err


class TestCompressFlag:
    def test_parser_accepts_compress(self):
        args = build_parser().parse_args(["run", "F3", "--compress", "on"])
        assert args.compress == "on"

    def test_parser_rejects_unknown_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "F3", "--compress", "zstd"])


class TestDefaultsRestoredOnFailure:
    def test_raising_run_restores_every_process_default(self, monkeypatch):
        """A run that explodes mid-experiment leaks none of its nine
        flags: the next in-process run gets SimulationConfig()'s
        values and no armed fault plan."""
        from repro import faults

        def boom(seed=None, base=None):
            raise RuntimeError("experiment exploded")

        monkeypatch.setitem(EXPERIMENTS, "F1", boom)
        with pytest.raises(RuntimeError, match="experiment exploded"):
            main(
                [
                    "run", "F1",
                    "--plan", "cost",
                    "--stats", "hist",
                    "--workers", "4",
                    "--rebalance", "adaptive",
                    "--query", "union:s1,s2",
                    "--batch-size", "128",
                    "--compress", "on",
                    "--faults", "serve.query:crash@999",
                    "--checkpoint", "/tmp/never-written.npz",
                ],
                out=io.StringIO(),
            )
        assert faults.active_plan() is None, "fault plan must be disarmed"
        seen = []
        monkeypatch.setitem(EXPERIMENTS, "F1", _recording_runner(seen))
        assert main(["run", "F1"], out=io.StringIO()) == 0
        assert seen == [SimulationConfig()]
        assert faults.active_plan() is None


class _FakeResult:
    def render(self):
        return "ok"


class TestServeFlags:
    """``repro serve`` rejects bad flags before building the catalog."""

    @pytest.mark.parametrize(
        "flag, arg",
        [
            ("--port", "70000"),
            ("--port", "-1"),
            ("--lifetime", "-1"),
            ("--lifetime", "nan"),
            ("--rows", "0"),
        ],
    )
    def test_bad_flag_exits_2(self, monkeypatch, capsys, flag, arg):
        def no_catalog(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("catalog built despite a bad flag")

        monkeypatch.setattr("repro.storage.Catalog", no_catalog)
        assert main(["serve", flag, arg], out=io.StringIO()) == 2
        assert flag in capsys.readouterr().err


class TestFaultsAndRecovery:
    """The --faults / --checkpoint flags and the recover subcommand."""

    def test_parser_accepts_faults_checkpoint_and_recover(self):
        args = build_parser().parse_args(
            ["run", "F1", "--faults", "checkpoint.tmp:crash@2",
             "--checkpoint", "/tmp/ck.npz"]
        )
        assert args.faults == "checkpoint.tmp:crash@2"
        assert args.checkpoint == "/tmp/ck.npz"
        args = build_parser().parse_args(
            ["recover", "/tmp/ck.npz", "--policy", "fifo"]
        )
        assert args.command == "recover"
        assert args.path == "/tmp/ck.npz"
        assert args.policy == "fifo"

    def test_bad_faults_spec_rejected_before_running(self, monkeypatch, capsys):
        ran = []
        monkeypatch.setitem(
            EXPERIMENTS, "F1", lambda **kwargs: ran.append(1) or _FakeResult()
        )
        assert (
            main(["run", "F1", "--faults", "nosuchpoint:crash"], out=io.StringIO())
            == 2
        )
        assert ran == [], "experiment must not start under a bad fault spec"
        assert "--faults" in capsys.readouterr().err

    def test_injected_crash_exits_3_and_restores_defaults(
        self, monkeypatch, capsys
    ):
        from repro import faults

        def crashing(**kwargs):
            faults.fault_point("serve.query")
            return _FakeResult()

        monkeypatch.setitem(EXPERIMENTS, "F1", crashing)
        code = main(
            ["run", "F1", "--faults", "serve.query:crash",
             "--checkpoint", "/tmp/unused-ck.npz"],
            out=io.StringIO(),
        )
        assert code == 3
        assert "crash fault injected" in capsys.readouterr().err
        assert faults.active_plan() is None

    def test_faults_env_var_is_honored(self, monkeypatch):
        from repro import faults as faults_module

        def crashing(**kwargs):
            faults_module.fault_point("serve.query")
            return _FakeResult()

        monkeypatch.setitem(EXPERIMENTS, "F1", crashing)
        monkeypatch.setenv("REPRO_FAULTS", "serve.query:crash")
        assert main(["run", "F1"], out=io.StringIO()) == 3
        assert faults_module.active_plan() is None

    def test_bad_faults_env_var_exits_2(self, monkeypatch):
        monkeypatch.setitem(
            EXPERIMENTS, "F1", lambda **kwargs: _FakeResult()
        )
        monkeypatch.setenv("REPRO_FAULTS", "nosuchpoint:crash")
        assert main(["run", "F1"], out=io.StringIO()) == 2

    def test_recover_restores_a_table_checkpoint(self, tmp_path):
        import numpy as np

        from repro.storage import Table, save_table

        table = Table("t", ["a"])
        table.insert_batch(0, {"a": np.arange(40)})
        path = save_table(table, tmp_path / "ck")
        out = io.StringIO()
        assert main(["recover", str(path)], out=out) == 0
        text = out.getvalue()
        assert "recovered Table" in text
        assert "40 active / 40 rows" in text

    def test_recover_missing_checkpoint_exits_1(self, tmp_path, capsys):
        assert main(["recover", str(tmp_path / "nope.npz")], out=io.StringIO()) == 1
        assert "recover failed" in capsys.readouterr().err

    def test_recover_unknown_policy_exits_2(self, tmp_path, capsys):
        assert (
            main(
                ["recover", str(tmp_path / "ck.npz"), "--policy", "nosuch"],
                out=io.StringIO(),
            )
            == 2
        )
        assert "nosuch" in capsys.readouterr().err
