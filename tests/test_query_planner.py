"""Tests for repro.query.planner: plan selection, fallbacks, reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util.errors import ConfigError, QueryError
from repro.indexes import BlockRangeIndex, SortedIndex
from repro.query import (
    PLAN_MODES,
    AggregateFunction,
    AggregateQuery,
    AndPredicate,
    PointPredicate,
    QueryExecutor,
    QueryPlanner,
    RangePredicate,
    RangeQuery,
    TruePredicate,
)
from repro.query.value_order import ValueOrder
from repro.stats import TableHistogramStats
from repro.storage import CohortZoneMap, CompressedCohortStore, Table


@pytest.fixture
def loaded_table():
    """Three cohorts of localised values, some rows forgotten."""
    table = Table("t", ["a"])
    for epoch in range(3):
        table.insert_batch(
            epoch, {"a": np.arange(epoch * 100, epoch * 100 + 50)}
        )
    table.forget(np.arange(0, 150, 3), epoch=3)
    return table


class TestPlanSelection:
    def test_modes_tuple(self):
        assert PLAN_MODES == ("auto", "scan", "zonemap", "index", "cost")

    def test_invalid_mode_rejected(self, loaded_table):
        with pytest.raises(ConfigError):
            QueryPlanner(loaded_table, mode="turbo")

    def test_scan_mode_always_scans(self, loaded_table):
        planner = QueryPlanner(
            loaded_table, mode="scan", zone_map=CohortZoneMap(loaded_table)
        )
        plan = planner.plan(RangePredicate("a", 0, 10))
        assert plan.mode == "scan"
        assert plan.requested == "scan"

    def test_auto_prefers_index_over_zonemap(self, loaded_table):
        zone_map = CohortZoneMap(loaded_table)
        index = SortedIndex(loaded_table, "a")
        planner = QueryPlanner(
            loaded_table, mode="auto", zone_map=zone_map, indexes=[index]
        )
        plan = planner.plan(RangePredicate("a", 0, 10))
        assert plan.mode == "index"
        assert plan.index is index

    def test_auto_uses_zonemap_without_index(self, loaded_table):
        planner = QueryPlanner(
            loaded_table, mode="auto", zone_map=CohortZoneMap(loaded_table)
        )
        assert planner.plan(RangePredicate("a", 0, 10)).mode == "zonemap"

    def test_auto_falls_back_to_scan_bare(self, loaded_table):
        planner = QueryPlanner(loaded_table, mode="auto")
        plan = planner.plan(RangePredicate("a", 0, 10))
        assert plan.mode == "scan"
        assert "no auxiliary structure" in plan.reason

    def test_point_predicate_gets_bounds(self, loaded_table):
        planner = QueryPlanner(
            loaded_table, mode="auto", zone_map=CohortZoneMap(loaded_table)
        )
        plan = planner.plan(PointPredicate("a", 42))
        assert plan.mode == "zonemap"
        assert (plan.low, plan.high) == (42, 43)

    def test_true_and_non_range_composites_scan(self, loaded_table):
        planner = QueryPlanner(
            loaded_table, mode="zonemap", zone_map=CohortZoneMap(loaded_table)
        )
        assert planner.plan(TruePredicate()).mode == "scan"
        # OR / NOT shapes carry no conjunctive bounds — still a scan.
        either = RangePredicate("a", 0, 10) | RangePredicate("a", 50, 60)
        assert planner.plan(either).mode == "scan"
        assert planner.plan(~RangePredicate("a", 0, 10)).mode == "scan"
        # An AND with a non-range child cannot compose either.
        mixed = AndPredicate(RangePredicate("a", 0, 10), TruePredicate())
        assert planner.plan(mixed).mode == "scan"

    def test_same_column_and_composes_to_one_range(self, loaded_table):
        """Same-column conjuncts intersect into a single range probe."""
        planner = QueryPlanner(
            loaded_table, mode="zonemap", zone_map=CohortZoneMap(loaded_table)
        )
        both = AndPredicate(
            RangePredicate("a", 0, 10), RangePredicate("a", 5, 20)
        )
        plan = planner.plan(both)
        assert plan.mode == "zonemap"
        assert (plan.low, plan.high) == (5, 10)
        active, missed, _ = planner.match(both, both.columns)
        values = loaded_table.values("a")
        mask = (values >= 5) & (values < 10)
        active_mask = loaded_table.active_mask()
        assert active.tolist() == np.flatnonzero(mask & active_mask).tolist()
        assert missed.tolist() == np.flatnonzero(mask & ~active_mask).tolist()
        # Disjoint same-column conjuncts prove the result empty.
        empty = AndPredicate(
            RangePredicate("a", 0, 10), RangePredicate("a", 20, 30)
        )
        plan = planner.plan(empty)
        assert plan.mode == "pruned"
        assert "empty" in plan.reason
        active, missed, execution = planner.match(empty, empty.columns)
        assert active.size == 0 and missed.size == 0
        assert execution.rows_considered == 0

    def test_multi_column_predicate_scan_fallback_contract(self):
        """Pinned contract (updated by the AND-composition satellite):
        multi-column AND predicates intersect per-column zone-map
        candidate ranges and scan only the intersection — every plan
        mode except the trust-nothing ``scan`` baseline prunes, and
        all of them return results bit-identical to the manual mask.

        The table is built so the columns disagree about which cohorts
        are hot: ``a`` is ascending, ``b`` descending, so each column
        alone admits two cohorts but their conjunction only one —
        exactly the case the old full-scan fallback paid 3× for.
        """
        table = Table("t2", ["a", "b"])
        for epoch in range(3):
            table.insert_batch(
                epoch,
                {
                    "a": np.arange(epoch * 100, epoch * 100 + 40),
                    "b": np.arange((2 - epoch) * 100, (2 - epoch) * 100 + 40),
                },
            )
        table.forget(np.arange(0, 120, 4), epoch=3)
        predicate = AndPredicate(
            RangePredicate("a", 100, 220), RangePredicate("b", 100, 220)
        )
        values = {"a": table.values("a"), "b": table.values("b")}
        mask = predicate.mask(values)
        active = table.active_mask()
        expected_active = np.flatnonzero(mask & active).tolist()
        expected_missed = np.flatnonzero(mask & ~active).tolist()
        assert expected_active and expected_missed  # both sides exercised
        zone_map = CohortZoneMap(table)
        index = SortedIndex(table, "a", merge_threshold=16)
        for mode in PLAN_MODES:
            planner = QueryPlanner(
                table, mode=mode, zone_map=zone_map, indexes=[index]
            )
            plan = planner.plan(predicate)
            assert plan.requested == mode
            got_active, got_missed, execution = planner.match(
                predicate, predicate.columns
            )
            assert got_active.tolist() == expected_active
            assert got_missed.tolist() == expected_missed
            if mode == "scan":
                assert plan.mode == "scan"
                assert execution.rows_considered == table.total_rows
                assert execution.rows_pruned == 0
            else:
                # Columns admit cohorts {1, 2} ('a') and {0, 1} ('b');
                # the intersection is cohort 1 alone: 40 of 120 rows.
                assert plan.mode == "zonemap", mode
                assert plan.and_bounds == (
                    ("a", 100, 220),
                    ("b", 100, 220),
                )
                assert execution.rows_considered == 40
                assert execution.rows_pruned == 80
        # Cost mode prices the intersection it is about to scan.
        plan = QueryPlanner(table, mode="cost", zone_map=zone_map).plan(
            predicate
        )
        assert plan.estimated_rows == 40.0

    def test_multi_column_and_without_zone_map_scans(self):
        """No zone map (or a partial one) still falls back to scan."""
        table = Table("t3", ["a", "b"])
        table.insert_batch(0, {"a": np.arange(20), "b": np.arange(20)})
        predicate = AndPredicate(
            RangePredicate("a", 0, 10), RangePredicate("b", 5, 15)
        )
        bare = QueryPlanner(table, mode="auto")
        plan = bare.plan(predicate)
        assert plan.mode == "scan"
        assert "no zone map covers every column" in plan.reason
        partial = QueryPlanner(
            table, mode="auto", zone_map=CohortZoneMap(table, columns=["a"])
        )
        assert partial.plan(predicate).mode == "scan"
        values = {"a": table.values("a"), "b": table.values("b")}
        expected = np.flatnonzero(predicate.mask(values)).tolist()
        active, missed, _ = partial.match(predicate, predicate.columns)
        assert active.tolist() == expected and missed.size == 0

    def test_forced_index_falls_back_through_chain(self, loaded_table):
        # No index, no zone map -> scan.
        planner = QueryPlanner(loaded_table, mode="index")
        plan = planner.plan(RangePredicate("a", 0, 10))
        assert plan.mode == "scan"
        assert "fell back" in plan.reason
        # No index but a zone map -> zonemap.
        planner = QueryPlanner(
            loaded_table, mode="index", zone_map=CohortZoneMap(loaded_table)
        )
        plan = planner.plan(RangePredicate("a", 0, 10))
        assert plan.mode == "zonemap"
        assert "fell back" in plan.reason

    def test_dropped_index_is_skipped(self, loaded_table):
        index = SortedIndex(loaded_table, "a")
        planner = QueryPlanner(
            loaded_table,
            mode="auto",
            zone_map=CohortZoneMap(loaded_table),
            indexes=[index],
        )
        index.drop()
        assert planner.plan(RangePredicate("a", 0, 10)).mode == "zonemap"
        index.rebuild()
        assert planner.plan(RangePredicate("a", 0, 10)).mode == "index"

    def test_register_rejects_foreign_structures(self, loaded_table):
        other = Table("other", ["a"])
        other.insert_batch(0, {"a": [1]})
        with pytest.raises(QueryError):
            QueryPlanner(loaded_table).register_index(SortedIndex(other, "a"))
        with pytest.raises(QueryError):
            QueryPlanner(loaded_table, zone_map=CohortZoneMap(other))


class TestCostMode:
    def test_cost_prefers_zonemap_over_coarse_brin(self, loaded_table):
        """The headline cost-model win: auto's index>zonemap preference
        is wrong when the index's probe touches more rows than a pruned
        scan — cost mode prices both and flips the choice."""
        zone_map = CohortZoneMap(loaded_table)
        coarse = BlockRangeIndex(loaded_table, "a", block_size=150)
        auto = QueryPlanner(
            loaded_table, mode="auto", zone_map=zone_map, indexes=[coarse]
        )
        cost = QueryPlanner(
            loaded_table, mode="cost", zone_map=zone_map, indexes=[coarse]
        )
        predicate = RangePredicate("a", 0, 10)
        assert auto.plan(predicate).mode == "index"
        plan = cost.plan(predicate)
        assert plan.mode == "zonemap"
        assert plan.requested == "cost"
        assert plan.estimated_rows == 50  # one 50-row cohort
        assert "cost model" in plan.reason

    def test_cost_picks_selective_index(self):
        """An index plan costs its probe plus the value-order read of
        the missed side: the estimated matches, plus the unsorted tail
        while the history is too short to sort."""
        table = Table("t", ["a"])
        table.insert_batch(0, {"a": np.arange(0, 5_000)})
        table.insert_batch(1, {"a": np.arange(10_000, 15_000)})
        table.forget(np.arange(0, 5_000, 2), epoch=2)  # cohort 0 rots
        zone_map = CohortZoneMap(table)
        index = SortedIndex(table, "a")
        planner = QueryPlanner(
            table, mode="cost", zone_map=zone_map, indexes=[index]
        )
        # Past the run threshold the order sorts its tail, so a probe of
        # at most 10 entries plus 10 ordered matches beats the 5,000-row
        # pruned scan — in the rotting cohort too.
        for low, entries in ((10_000, 10), (1_000, 5)):
            plan = planner.plan(RangePredicate("a", low, low + 10))
            assert plan.mode == "index"
            assert plan.index is index
            assert plan.estimated_rows == pytest.approx(entries + 10.0)
        # A wide probe reads more entries and matches than one cohort
        # holds, so the pruned scan wins.
        assert planner.plan(RangePredicate("a", 0, 4_000)).mode == "zonemap"
        # Below the run threshold the next order read masks the whole
        # history, so an index plan never undercuts the scan.
        small = Table("s", ["a"])
        small.insert_batch(0, {"a": np.arange(0, 50)})
        small.insert_batch(1, {"a": np.arange(100, 150)})
        small_planner = QueryPlanner(
            small,
            mode="cost",
            zone_map=CohortZoneMap(small),
            indexes=[SortedIndex(small, "a")],
        )
        plan = small_planner.plan(RangePredicate("a", 100, 110))
        assert plan.mode == "zonemap"
        assert f"SortedIndex≈{10 + 10 + small.total_rows}" in plan.reason

    def test_cost_without_structures_scans(self, loaded_table):
        planner = QueryPlanner(loaded_table, mode="cost")
        plan = planner.plan(RangePredicate("a", 0, 10))
        assert plan.mode == "scan"
        assert plan.estimated_rows == loaded_table.total_rows

    def test_cost_results_match_scan(self, loaded_table):
        zone_map = CohortZoneMap(loaded_table)
        index = SortedIndex(loaded_table, "a", merge_threshold=16)
        executors = {
            "scan": QueryExecutor(loaded_table, record_access=False),
            "cost": QueryExecutor(
                loaded_table,
                record_access=False,
                planner=QueryPlanner(
                    loaded_table, mode="cost",
                    zone_map=zone_map, indexes=[index],
                ),
            ),
        }
        for low in (-10, 0, 60, 140, 200):
            query = RangeQuery(RangePredicate("a", low, low + 25))
            results = {
                name: executor.execute_range(query, epoch=4)
                for name, executor in executors.items()
            }
            assert (
                results["scan"].active_positions.tolist()
                == results["cost"].active_positions.tolist()
            )
            assert (
                results["scan"].missed_positions.tolist()
                == results["cost"].missed_positions.tolist()
            )

    def test_pricing_reads_no_ranges_or_blocks(self, monkeypatch):
        """A cost-mode plan prices off per-cohort arrays and the order.

        On a 500-cohort history with every cohort demoted, planning
        must neither list candidate ranges, look a block up nor probe
        the value order (all stay on the execution path); the decode
        term is still priced for the pruned scan, and an index plan's
        missed side is priced as the order read.
        """
        rng = np.random.default_rng(3)
        table = Table("t", ["a"])
        zone_map = CohortZoneMap(table)
        for epoch in range(500):
            table.insert_batch(epoch, {"a": rng.integers(0, 50_000, 20)})
        table.forget(np.arange(0, table.total_rows, 5), epoch=500)
        store = CompressedCohortStore(table)
        store.demote_cold(current_epoch=500 + store.min_age)
        assert store.demoted_count == 500
        index = SortedIndex(table, "a")
        planner = QueryPlanner(
            table,
            mode="cost",
            zone_map=zone_map,
            indexes=[index],
            compressed=store,
        )

        def forbidden(*_args, **_kwargs):
            raise AssertionError("cost pricing walked the cohort ranges")

        monkeypatch.setattr(CohortZoneMap, "candidate_ranges", forbidden)
        monkeypatch.setattr(CompressedCohortStore, "block_at", forbidden)
        monkeypatch.setattr(ValueOrder, "probe", forbidden)
        wide = planner.plan(RangePredicate("a", 1_000, 40_000))
        assert "+decode" in wide.reason
        narrow = planner.plan(RangePredicate("a", 100, 102))
        assert narrow.mode == "index"
        estimate = planner.estimate("a", 100, 102)
        assert estimate.decode_rows > 0
        # 10,000 rows: the first read sorts them, so no tail is priced.
        assert narrow.estimated_rows == (
            index.estimate_entries(100, 102) + estimate.est_rows
        )


class TestHistogramStatistics:
    def test_estimate_is_histogram_sharpened(self):
        """Skewed data: uniformity mis-estimates, histograms track it."""
        table = Table("t", ["a"])
        # One cohort spanning [0, 1000] with 90% of its mass at 0-9.
        values = np.concatenate(
            [np.repeat(np.arange(10), 90), np.arange(0, 1000, 10)]
        )
        table.insert_batch(0, {"a": values})
        zone_map = CohortZoneMap(table)
        stats = TableHistogramStats(table, bins=100)
        uniform = QueryPlanner(table, mode="cost", zone_map=zone_map)
        hist = QueryPlanner(
            table, mode="cost", zone_map=zone_map, stats=stats
        )
        actual = int(np.count_nonzero((values >= 0) & (values < 10)))
        uniform_est = uniform.estimate("a", 0, 10).est_rows
        hist_est = hist.estimate("a", 0, 10).est_rows
        assert abs(hist_est - actual) < abs(uniform_est - actual)
        # Exact pruned-scan costs are shared — only match counts differ.
        assert (
            uniform.estimate("a", 0, 10).candidate_rows
            == hist.estimate("a", 0, 10).candidate_rows
        )

    def test_estimates_never_change_results(self, loaded_table):
        stats = TableHistogramStats(loaded_table)
        zone_map = CohortZoneMap(loaded_table)
        baseline = QueryExecutor(loaded_table, record_access=False)
        sharpened = QueryExecutor(
            loaded_table,
            record_access=False,
            planner=QueryPlanner(
                loaded_table, mode="cost", zone_map=zone_map, stats=stats
            ),
        )
        for low in (-10, 0, 60, 140, 200):
            query = RangeQuery(RangePredicate("a", low, low + 25))
            expected = baseline.execute_range(query, epoch=4)
            got = sharpened.execute_range(query, epoch=4)
            assert (
                got.active_positions.tolist()
                == expected.active_positions.tolist()
            )
            assert (
                got.missed_positions.tolist()
                == expected.missed_positions.tolist()
            )

    def test_foreign_stats_rejected(self, loaded_table):
        other = Table("other", ["a"])
        other.insert_batch(0, {"a": [1]})
        with pytest.raises(QueryError):
            QueryPlanner(loaded_table, stats=TableHistogramStats(other))

    def test_report_mentions_histograms(self, loaded_table):
        planner = QueryPlanner(
            loaded_table,
            mode="cost",
            zone_map=CohortZoneMap(loaded_table),
            stats=TableHistogramStats(loaded_table, bins=32),
        )
        assert "histograms over 1 column(s), 32 bins" in planner.plan_report()
        assert planner.stats()["histogram_stats"] == {
            "columns": ["a"],
            "bins": 32,
        }

    def test_estimate_without_zone_map_is_none(self, loaded_table):
        planner = QueryPlanner(
            loaded_table, mode="cost", stats=TableHistogramStats(loaded_table)
        )
        assert planner.estimate("a", 0, 10) is None


class TestValueBounds:
    def test_out_of_bounds_probe_is_pruned(self, loaded_table):
        planner = QueryPlanner(
            loaded_table,
            mode="auto",
            zone_map=CohortZoneMap(loaded_table),
            value_bounds={"a": (0, 300)},
        )
        plan = planner.plan(RangePredicate("a", 300, 400))
        assert plan.mode == "pruned"
        assert plan.estimated_rows == 0.0
        assert "value bounds" in plan.reason
        # Intersecting probes plan normally.
        assert planner.plan(RangePredicate("a", 250, 400)).mode == "zonemap"

    def test_open_ended_bounds(self, loaded_table):
        planner = QueryPlanner(
            loaded_table,
            mode="zonemap",
            zone_map=CohortZoneMap(loaded_table),
            value_bounds={"a": (100, None)},
        )
        assert planner.plan(RangePredicate("a", 0, 100)).mode == "pruned"
        assert planner.plan(RangePredicate("a", 500, 900)).mode != "pruned"

    def test_scan_mode_ignores_bounds(self, loaded_table):
        planner = QueryPlanner(
            loaded_table, mode="scan", value_bounds={"a": (0, 10)}
        )
        assert planner.plan(RangePredicate("a", 500, 600)).mode == "scan"

    def test_pruned_execution_answers_empty(self, loaded_table):
        planner = QueryPlanner(
            loaded_table,
            mode="auto",
            zone_map=CohortZoneMap(loaded_table),
            value_bounds={"a": (0, 300)},
        )
        executor = QueryExecutor(
            loaded_table, record_access=False, planner=planner
        )
        result = executor.execute_range(
            RangeQuery(RangePredicate("a", 500, 600)), epoch=4
        )
        assert (result.rf, result.mf) == (0, 0)
        execution = planner.last_execution
        assert execution.plan.mode == "pruned"
        assert execution.rows_considered == 0
        assert execution.rows_pruned == loaded_table.total_rows
        assert planner.stats()["paths"]["pruned"] == 1

    def test_invalid_bounds_rejected(self, loaded_table):
        with pytest.raises(QueryError):
            QueryPlanner(loaded_table, value_bounds={"a": (10, 10)})
        with pytest.raises(Exception):
            QueryPlanner(loaded_table, value_bounds={"missing": (0, 10)})


class TestExplain:
    def test_explain_accepts_queries_and_predicates(self, loaded_table):
        planner = QueryPlanner(
            loaded_table, mode="auto", zone_map=CohortZoneMap(loaded_table)
        )
        predicate = RangePredicate("a", 0, 10)
        assert planner.explain(predicate).mode == "zonemap"
        assert planner.explain(RangeQuery(predicate)).mode == "zonemap"
        agg = AggregateQuery(AggregateFunction.AVG, "a", predicate)
        assert planner.explain(agg).mode == "zonemap"
        whole = AggregateQuery(AggregateFunction.AVG, "a")
        assert planner.explain(whole).mode == "scan"
        with pytest.raises(QueryError):
            planner.explain("not a query")

    def test_describe_mentions_path_and_reason(self, loaded_table):
        planner = QueryPlanner(
            loaded_table, mode="auto", zone_map=CohortZoneMap(loaded_table)
        )
        text = planner.explain(RangePredicate("a", 0, 10)).describe()
        assert "zonemap" in text and "[0, 10)" in text


class TestPlanReport:
    def test_report_counts_paths_and_pruning(self):
        # Past the value order's run threshold, so the index plan's
        # missed side reads sorted entries instead of the whole tail.
        table = Table("t", ["a"])
        for epoch in range(3):
            table.insert_batch(
                epoch, {"a": np.arange(epoch * 10_000, epoch * 10_000 + 5_000)}
            )
        table.forget(np.arange(0, table.total_rows, 3), epoch=3)
        zone_map = CohortZoneMap(table)
        index = BlockRangeIndex(table, "a", block_size=32)
        planner = QueryPlanner(
            table, mode="auto", zone_map=zone_map, indexes=[index]
        )
        executor = QueryExecutor(table, record_access=False, planner=planner)
        executor.execute_range(RangeQuery(RangePredicate("a", 0, 10)), epoch=4)
        read = planner.last_execution
        assert read.plan.mode == "index"
        # One 32-row block probed, ten ordered entries read.
        assert read.rows_considered == 32 + 10
        assert read.rows_pruned == table.total_rows - 42
        executor.execute_aggregate(
            AggregateQuery(AggregateFunction.AVG, "a"), epoch=4
        )
        stats = planner.stats()
        assert stats["queries_planned"] == 2
        assert stats["paths"]["index"] == 1
        assert stats["paths"]["scan"] == 1
        assert stats["rows_pruned"] == read.rows_pruned
        report = planner.plan_report()
        assert "2 queries planned" in report
        assert "BlockRangeIndex on 'a'" in report
        assert "last plan" in report

    def test_empty_report_renders(self, loaded_table):
        planner = QueryPlanner(loaded_table, mode="scan")
        report = planner.plan_report()
        assert "0 queries planned" in report
        assert "structures: none" in report


class TestExecutorIntegration:
    def test_executor_default_planner_is_scan(self, loaded_table):
        executor = QueryExecutor(loaded_table, record_access=False)
        assert executor.planner.mode == "scan"
        executor.execute_range(RangeQuery(RangePredicate("a", 0, 10)), epoch=4)
        assert executor.planner.last_execution.plan.mode == "scan"
        assert "scan" in executor.plan_report()

    def test_executor_rejects_foreign_planner(self, loaded_table):
        other = Table("other", ["a"])
        other.insert_batch(0, {"a": [1]})
        with pytest.raises(QueryError):
            QueryExecutor(loaded_table, planner=QueryPlanner(other))

    def test_zonemap_rows_considered_shrinks(self, loaded_table):
        planner = QueryPlanner(
            loaded_table, mode="zonemap", zone_map=CohortZoneMap(loaded_table)
        )
        executor = QueryExecutor(
            loaded_table, record_access=False, planner=planner
        )
        executor.execute_range(RangeQuery(RangePredicate("a", 0, 10)), epoch=4)
        execution = planner.last_execution
        assert execution.rows_considered == 50  # one cohort, not 150
        assert execution.rows_pruned == 100
