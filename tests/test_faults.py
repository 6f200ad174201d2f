"""Tests for the deterministic fault-injection framework (repro.faults)."""

from __future__ import annotations

import threading

import pytest

from repro import faults
from repro._util.errors import ConfigError, TransientFault
from repro.faults import (
    CrashPoint,
    DelayPoint,
    FaultInjected,
    FaultPlan,
    FlakyPoint,
    parse_fault_plan,
)


class TestSpecGrammar:
    def test_crash_defaults_to_first_hit(self):
        plan = parse_fault_plan("checkpoint.tmp:crash")
        point = plan.points["checkpoint.tmp"]
        assert isinstance(point, CrashPoint) and point.at == 1

    def test_crash_at_ordinal(self):
        plan = parse_fault_plan("ingest.apply:crash@7")
        assert plan.points["ingest.apply"].at == 7

    def test_delay_and_flaky_and_seed(self):
        plan = parse_fault_plan(
            "serve.handle:delay=0.25;serve.query:flaky=0.5;seed=42"
        )
        assert isinstance(plan.points["serve.handle"], DelayPoint)
        assert plan.points["serve.handle"].seconds == 0.25
        assert isinstance(plan.points["serve.query"], FlakyPoint)
        assert plan.seed == 42

    def test_spec_round_trips(self):
        spec = "checkpoint.tmp:crash@2;serve.query:flaky=0.5;seed=7"
        assert parse_fault_plan(spec).spec() == spec

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ;  ",
            "nosuchpoint:crash",
            "checkpoint.tmp",
            "checkpoint.tmp:explode",
            "checkpoint.tmp:crash@zero",
            "checkpoint.tmp:crash@0",
            "checkpoint.tmp:delay=abc",
            "checkpoint.tmp:delay=0",
            "checkpoint.tmp:flaky=2.0",
            "checkpoint.tmp:flaky=0",
            "seed=notanint",
        ],
    )
    def test_malformed_specs_raise_config_error(self, bad):
        with pytest.raises(ConfigError):
            parse_fault_plan(bad)

    def test_unknown_point_error_lists_the_registry(self):
        with pytest.raises(ConfigError, match="checkpoint.tmp"):
            parse_fault_plan("nosuchpoint:crash")

    def test_duplicate_point_rejected(self):
        with pytest.raises(ConfigError, match="twice"):
            parse_fault_plan("serve.query:crash;serve.query:delay=1")


class TestRegistry:
    def test_every_layer_has_registered_points(self):
        points = faults.registered_points()
        assert {
            "checkpoint.tmp",
            "checkpoint.rotate",
            "checkpoint.done",
            "ingest.enqueue",
            "ingest.apply",
            "ingest.applied",
            "rebalance.adapt",
            "serve.handle",
            "serve.query",
        } <= set(points)
        assert all(points.values()), "every point documents its contract"


class TestPlanBehaviour:
    def test_disarmed_points_are_noops(self):
        assert faults.active_plan() is None
        for name in faults.registered_points():
            faults.fault_point(name)  # must not raise

    def test_crash_fires_exactly_on_its_ordinal(self):
        with faults.armed("serve.query:crash@3") as plan:
            faults.fault_point("serve.query")
            faults.fault_point("serve.query")
            with pytest.raises(FaultInjected) as excinfo:
                faults.fault_point("serve.query")
            assert excinfo.value.point == "serve.query"
            assert excinfo.value.hit == 3
            # One-shot: the same process can recover and continue.
            faults.fault_point("serve.query")
            assert plan.hits("serve.query") == 4

    def test_fault_injected_is_not_an_exception(self):
        """``except Exception`` recovery code must not swallow a kill."""
        assert not issubclass(FaultInjected, Exception)
        with faults.armed("serve.query:crash"):
            with pytest.raises(FaultInjected):
                try:
                    faults.fault_point("serve.query")
                except Exception:  # noqa: BLE001 - the point of the test
                    pytest.fail("crash fault swallowed by except Exception")

    def test_flaky_raises_transient_fault_deterministically(self):
        def draws(spec):
            outcomes = []
            with faults.armed(spec):
                for _ in range(50):
                    try:
                        faults.fault_point("serve.query")
                        outcomes.append(False)
                    except TransientFault:
                        outcomes.append(True)
            return outcomes

        first = draws("serve.query:flaky=0.4;seed=11")
        second = draws("serve.query:flaky=0.4;seed=11")
        other_seed = draws("serve.query:flaky=0.4;seed=12")
        assert first == second, "same seed, same failure schedule"
        assert any(first) and not all(first)
        assert first != other_seed

    def test_delay_uses_injected_sleep(self):
        slept = []
        plan = parse_fault_plan(
            "serve.handle:delay=0.5", sleep=slept.append
        )
        with faults.armed(plan):
            faults.fault_point("serve.handle")
            faults.fault_point("serve.handle")
        assert slept == [0.5, 0.5]

    def test_armed_restores_previous_plan_even_on_crash(self):
        outer = parse_fault_plan("serve.handle:delay=9", sleep=lambda s: None)
        with faults.armed(outer):
            with pytest.raises(FaultInjected):
                with faults.armed("serve.query:crash"):
                    faults.fault_point("serve.query")
            assert faults.active_plan() is outer
        assert faults.active_plan() is None

    def test_arm_with_bad_spec_leaves_previous_plan(self):
        with faults.armed("serve.query:crash@5") as plan:
            with pytest.raises(ConfigError):
                faults.arm("nosuchpoint:crash")
            assert faults.active_plan() is plan

    def test_hit_counting_is_exact_under_threads(self):
        """Concurrent arrivals get distinct ordinals: exactly one thread
        observes the crash ordinal, no matter the interleaving."""
        crashes = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            for _ in range(25):
                try:
                    faults.fault_point("serve.handle")
                except FaultInjected:
                    crashes.append(1)

        with faults.armed("serve.handle:crash@100") as plan:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert plan.hits("serve.handle") == 200
        assert len(crashes) == 1

    def test_active_spec_reflects_armed_plan(self):
        assert faults.active_spec() == ""
        with faults.armed("checkpoint.done:crash@2"):
            assert faults.active_spec() == "checkpoint.done:crash@2"
        assert faults.active_spec() == ""


class TestConfigIntegration:
    def test_fault_plan_requires_point_instances_unique(self):
        with pytest.raises(ConfigError, match="twice"):
            FaultPlan([CrashPoint("serve.query"), CrashPoint("serve.query")])
