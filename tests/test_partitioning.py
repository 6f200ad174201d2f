"""Tests for repro.partitioning: adaptive per-range amnesia."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import AmnesiaDatabase
from repro._util.errors import ConfigError, QueryError
from repro.amnesia import FifoAmnesia, UniformAmnesia
from repro.partitioning import PartitionedAmnesiaDatabase


def make_store(total_budget=100, boundaries=(0, 500, 1000)):
    return PartitionedAmnesiaDatabase(
        "a", boundaries, total_budget, policy_factory=FifoAmnesia, seed=7
    )


class TestTopology:
    def test_even_budget_split(self):
        store = make_store(total_budget=101, boundaries=(0, 100, 200, 300))
        assert [p.budget for p in store.partitions] == [34, 34, 33]
        assert sum(p.budget for p in store.partitions) == 101

    def test_validation(self):
        with pytest.raises(ConfigError):
            make_store(boundaries=(0,))
        with pytest.raises(ConfigError):
            make_store(boundaries=(0, 100, 100))
        with pytest.raises(ConfigError):
            make_store(total_budget=1, boundaries=(0, 10, 20))


class TestRouting:
    def test_values_land_in_their_partition(self):
        store = make_store()
        store.insert({"a": np.array([10, 600, 499, 500])})
        low_part, high_part = store.partitions
        assert low_part.db.total_rows == 2   # 10, 499
        assert high_part.db.total_rows == 2  # 600, 500

    def test_out_of_domain_values_clamped(self):
        store = make_store()
        store.insert({"a": np.array([-50, 5000])})
        assert store.partitions[0].db.total_rows == 1
        assert store.partitions[1].db.total_rows == 1

    def test_rejects_unknown_column(self):
        store = make_store()
        with pytest.raises(QueryError):
            store.insert({"b": np.array([1])})

    def test_lossy_float_insert_rejected(self):
        """The old path silently truncated 2.7 to 2; now it refuses."""
        store = make_store()
        with pytest.raises(QueryError, match="without loss"):
            store.insert({"a": np.array([1.0, 2.7])})
        assert store.partitions[0].db.total_rows == 0

    def test_integer_valued_floats_accepted(self):
        store = make_store()
        store.insert({"a": np.array([10.0, 600.0])})
        assert store.range_query(0, 1000).rf == 2

    def test_nan_insert_rejected(self):
        store = make_store()
        with pytest.raises(QueryError, match="finite"):
            store.enqueue({"a": np.array([1.0, np.nan])})
        assert store.pending_batches == 0


class TestQueries:
    def test_range_query_merges_exactly(self, rng):
        store = make_store(total_budget=2000)
        values = rng.integers(0, 1000, 1000)
        store.insert({"a": values})
        result = store.range_query(400, 600)
        expected = int(((values >= 400) & (values < 600)).sum())
        assert result.rf == expected
        assert result.mf == 0
        assert result.precision == 1.0

    def test_range_query_counts_forgotten(self):
        store = make_store(total_budget=10)  # 5 per partition
        store.insert({"a": np.concatenate([np.arange(100), np.arange(500, 600)])})
        result = store.range_query(0, 1000)
        assert result.rf == 10
        assert result.mf == 190
        assert result.precision == pytest.approx(0.05)

    def test_query_hits_tracked_per_partition(self):
        store = make_store()
        store.insert({"a": np.arange(0, 1000, 10)})
        store.range_query(0, 100)     # only partition 0
        store.range_query(0, 1000)    # both
        assert store.partitions[0].query_hits == 2
        assert store.partitions[1].query_hits == 1

    def test_aggregate_merge_matches_global(self, rng):
        store = make_store(total_budget=5000)
        values = rng.integers(0, 1000, 2000)
        store.insert({"a": values})
        for fn, expected in (
            ("avg", values.mean()),
            ("sum", values.sum()),
            ("count", values.size),
            ("min", values.min()),
            ("max", values.max()),
        ):
            amnesiac, oracle = store.aggregate(fn)
            assert oracle == pytest.approx(expected), fn
            assert amnesiac == pytest.approx(expected), fn

    def test_var_and_std_merge_exactly(self, rng):
        """Satellite: VAR/STD now merge via per-shard moments."""
        store = make_store(total_budget=5000)
        values = rng.integers(0, 1000, 2000)
        store.insert({"a": values})
        for fn, expected in (("var", values.var()), ("std", values.std())):
            amnesiac, oracle = store.aggregate(fn)
            assert oracle == pytest.approx(expected), fn
            assert amnesiac == pytest.approx(expected), fn

    def test_var_tracks_oracle_under_forgetting(self):
        store = make_store(total_budget=10)
        store.insert({"a": np.concatenate([np.arange(100), np.arange(500, 600)])})
        all_values = np.concatenate([np.arange(100), np.arange(500, 600)])
        _, oracle = store.aggregate("var")
        assert oracle == pytest.approx(all_values.var())

    @pytest.mark.parametrize("base", (1_000, 10**12))
    def test_moments_independent_of_shard_layout(self, base):
        """AVG/VAR/STD are ==-identical under 1, 2 and 4 shard layouts
        and equal the exact Python-int reference: small values sum in
        int64, values near 1e12 square past int64 and sum as Python
        ints.  (Float moments merged per shard drifted with the layout,
        so a rebalance could change an answer.)"""
        rng = np.random.default_rng(5)
        values = base + rng.integers(0, 1_000_000, 5000)
        ints = [int(v) for v in values]
        n, total, sumsq = len(ints), sum(ints), sum(v * v for v in ints)
        variance = (n * sumsq - total * total) / (n * n)
        expected = {"avg": total / n, "var": variance, "std": math.sqrt(variance)}
        for shards in (1, 2, 4):
            boundaries = [base + i * 1_000_000 // shards for i in range(shards + 1)]
            store = PartitionedAmnesiaDatabase(
                "a", boundaries, 10 * n, policy_factory=FifoAmnesia, seed=7
            )
            store.insert({"a": values})
            for fn, want in expected.items():
                assert store.aggregate(fn) == (want, want), (shards, fn)

    def test_windowed_aggregates_match_numpy(self, rng):
        """Satellite: low/high windows now reach the partitioned store."""
        store = make_store(total_budget=5000)
        values = rng.integers(0, 1000, 2000)
        store.insert({"a": values})
        window = values[(values >= 250) & (values < 750)]
        for fn, expected in (
            ("avg", window.mean()),
            ("sum", window.sum()),
            ("count", window.size),
            ("var", window.var()),
            ("std", window.std()),
        ):
            amnesiac, oracle = store.aggregate(fn, 250, 750)
            assert oracle == pytest.approx(expected), fn
            assert amnesiac == pytest.approx(expected), fn

    def test_windowed_aggregate_requires_both_bounds(self):
        store = make_store()
        store.insert({"a": np.array([1])})
        with pytest.raises(ConfigError):
            store.aggregate("avg", low=10)

    @pytest.mark.parametrize("loaded", [False, True], ids=["empty", "loaded"])
    def test_reversed_window_rejected(self, loaded):
        """A reversed window is an error whether or not any shard holds
        rows: an empty store must not answer ``(None, None)``."""
        store = make_store()
        if loaded:
            store.insert({"a": np.array([1, 600])})
        with pytest.raises(QueryError, match="reversed"):
            store.aggregate("sum", 10, 5)

    def test_aggregate_empty_window_null_semantics(self):
        store = make_store()
        store.insert({"a": np.array([1, 600])})
        amnesiac, oracle = store.aggregate("avg", 100, 200)
        assert amnesiac is None and oracle is None
        amnesiac, oracle = store.aggregate("count", 100, 200)
        assert amnesiac == 0.0 and oracle == 0.0


class TestOutOfRangeQueries:
    """Regression: inserts clamp routing into edge partitions, so the
    query side must reach them for out-of-domain ranges too."""

    def test_low_side_values_found(self):
        store = make_store()
        store.insert({"a": np.array([-50, 10])})
        result = store.range_query(-100, 0)
        assert result.rf == 1
        assert store.range_query(-100, 20).rf == 2

    def test_high_side_values_found(self):
        store = make_store()
        store.insert({"a": np.array([600, 5000])})
        assert store.range_query(1000, 6000).rf == 1
        assert store.range_query(4999, 5001).rf == 1

    def test_forgotten_out_of_range_rows_counted_in_mf(self):
        store = make_store(total_budget=2)  # 1 per partition
        store.insert({"a": np.array([-10, -20, -30])})
        result = store.range_query(-100, 0)
        assert result.oracle_count == 3
        assert result.mf == 2

    def test_covers_is_open_ended_at_the_edges(self):
        store = make_store()
        low_shard, high_shard = store.partitions
        assert low_shard.covers(-100, -50)
        assert high_shard.covers(2000, 3000)
        assert not low_shard.covers(600, 700)
        assert not high_shard.covers(-100, 0)
        assert not low_shard.covers(10, 10)  # empty range


class TestPlannerRouting:
    """The tentpole: every shard read goes through its own planner."""

    def test_shard_pruning_is_a_planner_decision(self):
        store = make_store()
        store.insert({"a": np.arange(0, 1000, 10)})
        result = store.range_query(0, 100)
        assert result.shards_executed == 1
        assert result.shards_pruned == 1
        # The pruned shard's planner recorded the decision itself.
        assert store.partitions[1].db.planner.stats()["paths"]["pruned"] == 1

    def test_scan_mode_never_prunes_shards(self):
        store = PartitionedAmnesiaDatabase(
            "a", (0, 500, 1000), 100, policy_factory=FifoAmnesia,
            seed=7, plan="scan",
        )
        store.insert({"a": np.arange(0, 1000, 10)})
        result = store.range_query(0, 100)
        assert result.shards_executed == 2
        assert result.shards_pruned == 0

    def test_plan_mode_reaches_every_shard(self):
        store = PartitionedAmnesiaDatabase(
            "a", (0, 500, 1000), 100, policy_factory=FifoAmnesia,
            seed=7, plan="cost",
        )
        assert store.plan_mode == "cost"
        assert all(p.db.plan_mode == "cost" for p in store.partitions)
        assert all(
            p.db.planner.value_bounds["a"]
            == (p.bound_low, p.bound_high)
            for p in store.partitions
        )

    def test_explain_previews_per_shard_plans(self):
        store = make_store()
        store.insert({"a": np.arange(0, 1000, 10)})
        plans = dict(store.explain(0, 100))
        assert plans[0].mode in ("zonemap", "index", "scan")
        assert plans[1].mode == "pruned"

    def test_plan_report_spans_shards(self):
        store = make_store()
        store.insert({"a": np.arange(0, 1000, 10)})
        store.range_query(0, 100)
        report = store.plan_report()
        assert "shard 0 [0, 500)" in report
        assert "shard 1 [500, 1000)" in report
        assert "shard-level prunes 1" in report

    def test_reversed_range_raises(self):
        store = make_store()
        store.insert({"a": np.array([1])})
        with pytest.raises(QueryError):
            store.range_query(100, 50)

    def test_empty_range_short_circuits(self):
        store = make_store()
        store.insert({"a": np.arange(0, 1000, 10)})
        result = store.range_query(5, 5)
        assert (result.rf, result.mf) == (0, 0)
        assert (result.shards_executed, result.shards_pruned) == (0, 0)
        # No shard planner ran and no traffic was counted.
        assert all(p.query_hits == 0 for p in store.partitions)
        assert all(
            p.db.planner.stats()["queries_planned"] == 0
            for p in store.partitions
        )

    def test_empty_store_answers_empty(self):
        store = make_store()
        result = store.range_query(0, 100)
        assert (result.rf, result.mf) == (0, 0)
        assert store.aggregate("avg") == (None, None)

    def test_stats_reports_plan_and_prunes(self):
        store = make_store()
        store.insert({"a": np.arange(0, 1000, 10)})
        store.range_query(0, 100)
        stats = store.stats()
        assert stats["plan"] == store.plan_mode
        assert stats["shard_prunes"] == [0, 1]


class TestRebalance:
    def test_budget_follows_traffic(self):
        store = PartitionedAmnesiaDatabase(
            "a", (0, 500, 1000), 100, policy_factory=UniformAmnesia, seed=3
        )
        store.insert({"a": np.arange(0, 1000)})
        # Hammer the low partition only.
        for _ in range(50):
            store.range_query(0, 400)
        budgets = store.rebalance(floor=10)
        assert budgets[0] > budgets[1]
        assert sum(budgets.values()) == 100
        # Shrunken partition forgot down immediately.
        assert store.partitions[1].db.active_count <= budgets[1]
        # Hit counters reset for the next adaptation window.
        assert all(p.query_hits == 0 for p in store.partitions)

    def test_precision_improves_for_hot_region(self):
        """The §4.4 payoff: the hot range keeps more of its history."""

        def run(adaptive: bool) -> float:
            store = PartitionedAmnesiaDatabase(
                "a", (0, 500, 1000), 200,
                policy_factory=UniformAmnesia, seed=5,
            )
            rng = np.random.default_rng(8)
            last = None
            for _ in range(8):
                store.insert({"a": rng.integers(0, 1000, 200)})
                for _ in range(20):
                    last = store.range_query(0, 300)
                if adaptive:
                    store.rebalance(floor=20)
            return last.precision

        assert run(adaptive=True) > run(adaptive=False) + 0.05

    def test_rebalance_validation(self):
        store = make_store(total_budget=10)
        with pytest.raises(ConfigError):
            store.rebalance(floor=0)
        with pytest.raises(ConfigError):
            store.rebalance(floor=6)  # 2 partitions * 6 > 10

    def test_stats(self):
        store = make_store()
        store.insert({"a": np.array([1, 600])})
        stats = store.stats()
        assert stats["partitions"] == 2
        assert stats["active_rows"] == 2
        assert len(stats["budgets"]) == 2
        assert stats["workers"] == 1
        assert stats["rebalance"] == "hits"
        assert stats["boundaries"] == [0, 500, 1000]

    def test_rows_signal_weighs_queries_by_matched_rows(self):
        """``rows`` rebalancing pulls budget toward the shard whose
        data the queries actually touched, even when hit counts tie."""
        store = PartitionedAmnesiaDatabase(
            "a", (0, 500, 1000), 200,
            policy_factory=UniformAmnesia, seed=3,
        )
        # Shard 0 holds 10x the rows of shard 1.
        store.insert({"a": np.concatenate([
            np.arange(0, 500), np.arange(500, 1000, 10),
        ])})
        for _ in range(10):
            store.range_query(0, 1000)  # covers (hits) both equally
        assert store.partitions[0].query_hits == store.partitions[1].query_hits
        assert store.partitions[0].query_rows > store.partitions[1].query_rows
        hits_budgets = dict(
            zip((0, 1), store.stats()["budgets"])
        )
        budgets = store.rebalance(floor=10, policy="rows")
        assert budgets[0] > budgets[1]
        assert budgets[0] > hits_budgets[0]  # even split before
        # Counters reset for the next window.
        assert all(p.query_rows == 0 for p in store.partitions)

    def test_rebalance_rejects_unknown_policy(self):
        store = make_store()
        store.insert({"a": np.array([1])})
        with pytest.raises(Exception):
            store.rebalance(policy="entropy")


class TestParallelFanout:
    """The tentpole: per-shard pipelines fan out over a thread pool."""

    def _build(self, workers, boundaries=(0, 250, 500, 750, 1000)):
        store = PartitionedAmnesiaDatabase(
            "a", boundaries, 400,
            policy_factory=FifoAmnesia, seed=7, workers=workers,
        )
        rng = np.random.default_rng(11)
        for _ in range(4):
            store.insert({"a": rng.integers(-50, 1100, 200)})
        return store

    def test_workers_validated(self):
        for workers in (0, 2.5, True):
            with pytest.raises(ConfigError):
                self._build(workers=workers)

    def test_fanout_matches_sequential(self):
        sequential = self._build(workers=1)
        parallel = self._build(workers=4)
        queries = [(-100, 100), (0, 1000), (200, 260), (900, 1200), (5, 5)]
        for low, high in queries:
            a = sequential.range_query(low, high)
            b = parallel.range_query(low, high)
            assert (a.rf, a.mf, a.shards_executed, a.shards_pruned) == (
                b.rf, b.mf, b.shards_executed, b.shards_pruned
            )
        for fn in ("avg", "var", "std", "count"):
            assert sequential.aggregate(fn) == parallel.aggregate(fn)
            assert sequential.aggregate(fn, 100, 800) == (
                parallel.aggregate(fn, 100, 800)
            )
        parallel.close()

    def test_counters_race_free_under_concurrent_queries(self):
        """Satellite: traffic counters survive concurrent callers.

        Eight caller threads hammer a 4-worker store; per-shard
        hit/row counters must land exactly where a sequential replay
        puts them (increments are lock-protected, not lost)."""
        sequential = self._build(workers=1)
        parallel = self._build(workers=4)
        queries = [(0, 300), (200, 800), (600, 1200), (-100, 150)] * 25
        expected = [sequential.range_query(lo, hi) for lo, hi in queries]
        with ThreadPoolExecutor(max_workers=8) as callers:
            got = list(
                callers.map(lambda q: parallel.range_query(*q), queries)
            )
        assert [(r.rf, r.mf) for r in got] == [
            (r.rf, r.mf) for r in expected
        ]
        assert [p.query_hits for p in parallel.partitions] == [
            p.query_hits for p in sequential.partitions
        ]
        assert [p.query_rows for p in parallel.partitions] == [
            p.query_rows for p in sequential.partitions
        ]
        parallel.close()

    def test_close_is_idempotent_and_store_survives(self):
        store = self._build(workers=4)
        assert store.range_query(0, 1000).oracle_count > 0
        store.close()
        store.close()
        assert store.range_query(0, 1000).oracle_count > 0  # pool rebuilds
        store.close()

    def test_context_manager_closes_pool(self):
        with self._build(workers=2) as store:
            store.range_query(0, 500)
        assert store._fanout._pool is None

    def test_facade_entry_point(self):
        """AmnesiaDatabase.partitioned threads workers/rebalance through."""
        store = AmnesiaDatabase.partitioned(
            "a", (0, 500, 1000), 100,
            policy_factory=FifoAmnesia, workers=3, rebalance="rows",
        )
        assert isinstance(store, PartitionedAmnesiaDatabase)
        assert store.workers == 3
        assert store.rebalance_policy == "rows"


class TestReadDispatch:
    """Reads hand the pool only the shards that have work to do."""

    BOUNDS = tuple(range(0, 900, 100))  # 8 shards of 100 values

    def _build(self, workers, plan="auto"):
        store = PartitionedAmnesiaDatabase(
            "a", self.BOUNDS, 800, policy_factory=FifoAmnesia, seed=7,
            workers=workers, plan=plan,
        )
        rng = np.random.default_rng(5)
        for _ in range(3):
            store.insert({"a": rng.integers(-20, 820, 300)})
        return store

    @pytest.fixture
    def submits(self, monkeypatch):
        calls = []
        original = ThreadPoolExecutor.submit

        def spy(pool, fn, *args, **kwargs):
            calls.append(fn)
            return original(pool, fn, *args, **kwargs)

        monkeypatch.setattr(ThreadPoolExecutor, "submit", spy)
        return calls

    @staticmethod
    def _reads(store):
        """One single-shard read of each kind, then wider ones."""
        rf_mf = []
        for low, high in [(120, 180), (150, 250), (-50, 30), (790, 900)]:
            r = store.range_query(low, high)
            rf_mf.append((r.rf, r.mf, r.shards_executed, r.shards_pruned))
        aggregates = [
            store.aggregate("avg", 310, 390),
            store.aggregate("var", 250, 450),
            store.aggregate("count"),
        ]
        chunks = [
            np.concatenate([c[0] for c in store.scan_chunks(low, high)])
            for low, high in [(510, 560), (None, None)]
        ]
        return rf_mf, aggregates, chunks

    def test_single_shard_reads_submit_nothing(self, submits):
        store = self._build(workers=4)
        submits.clear()
        result = store.range_query(120, 180)
        store.aggregate("sum", 310, 390)
        store.scan_chunks(510, 560)
        assert submits == []
        assert (result.shards_executed, result.shards_pruned) == (1, 7)
        store.close()

    def test_two_shard_and_full_reads_fan_out(self, submits):
        store = self._build(workers=4)
        submits.clear()
        store.range_query(150, 250)
        assert len(submits) == 2  # one group task per busy shard
        submits.clear()
        store.aggregate("count")
        store.scan_chunks()
        assert len(submits) == 8  # every shard has rows: 4 groups each
        store.close()

    def test_scan_plan_fans_out_every_shard(self, submits):
        store = self._build(workers=4, plan="scan")
        submits.clear()
        result = store.range_query(120, 180)
        assert len(submits) == 4
        assert (result.shards_executed, result.shards_pruned) == (8, 0)
        store.close()

    @pytest.mark.parametrize("plan", ["auto", "cost", "scan"])
    def test_observables_match_sequential_twin(self, plan):
        sequential = self._build(workers=1, plan=plan)
        parallel = self._build(workers=4, plan=plan)
        seq_reads, par_reads = self._reads(sequential), self._reads(parallel)
        assert seq_reads[:2] == par_reads[:2]
        for a, b in zip(seq_reads[2], par_reads[2]):
            assert np.array_equal(a, b)
        # The header names the worker count; every shard line must match.
        assert (
            sequential.plan_report().splitlines()[1:]
            == parallel.plan_report().splitlines()[1:]
        )
        for s_part, p_part in zip(sequential.partitions, parallel.partitions):
            assert s_part.query_hits == p_part.query_hits
            assert s_part.query_rows == p_part.query_rows
            s_table, p_table = s_part.db.table, p_part.db.table
            assert np.array_equal(s_table.access_counts(), p_table.access_counts())
            assert np.array_equal(
                s_table.last_access_epochs(), p_table.last_access_epochs()
            )
        parallel.close()


class TestIngestQueue:
    """The batched write seam: enqueue routes, flush publishes."""

    def test_enqueued_rows_invisible_until_flush(self):
        store = make_store()
        store.enqueue({"a": np.arange(100)})
        assert store.pending_batches == 1
        assert store.ingest_epoch == 0
        result = store.range_query(0, 1000)
        assert result.rf + result.mf == 0
        store.flush()
        assert store.pending_batches == 0
        assert store.ingest_epoch == 1
        result = store.range_query(0, 1000)
        assert result.rf + result.mf == 100

    def test_flush_publishes_whole_backlog_as_one_epoch(self):
        store = make_store()
        for start in (0, 200, 400):
            store.enqueue({"a": np.arange(start, start + 50)})
        assert store.pending_batches == 3
        assert store.flush() == 3
        assert store.ingest_epoch == 3
        assert store.pending_batches == 0

    def test_flush_without_backlog_is_a_noop(self):
        store = make_store()
        store.insert({"a": np.arange(10)})
        assert store.ingest_epoch == 1
        assert store.flush() == 1  # returns the published epoch unchanged

    def test_insert_equals_enqueue_plus_flush(self):
        one = make_store()
        two = make_store()
        batches = [np.arange(0, 60), np.arange(300, 420), np.arange(700, 790)]
        for batch in batches:
            one.insert({"a": batch})
        for batch in batches:
            two.enqueue({"a": batch})
        two.flush()
        for p1, p2 in zip(one.partitions, two.partitions):
            assert np.array_equal(
                p1.db.table.values("a"), p2.db.table.values("a")
            )
            assert np.array_equal(
                p1.db.table.insert_epochs(), p2.db.table.insert_epochs()
            )
            assert p1.db.active_count == p2.db.active_count

    def test_enqueue_validation_leaves_queue_untouched(self):
        store = make_store()
        with pytest.raises(QueryError):
            store.enqueue({"b": np.arange(3)})
        with pytest.raises(QueryError):
            store.enqueue({"a": np.array([1.5])})
        assert store.pending_batches == 0
        assert all(not p.pending for p in store.partitions)

    def test_rebalance_drains_backlog_first(self):
        store = make_store()
        store.enqueue({"a": np.arange(100)})
        store.rebalance()
        assert store.pending_batches == 0
        assert store.ingest_epoch == 1
        result = store.range_query(0, 1000)
        assert result.rf + result.mf == 100

    def test_stats_and_report_expose_ingest_state(self):
        store = make_store()
        store.enqueue({"a": np.arange(10)})
        stats = store.stats()
        assert stats["pending_batches"] == 1
        assert stats["ingest_epoch"] == 0
        assert "ingest epoch 0 (1 queued)" in store.plan_report()
        store.flush()
        assert "ingest epoch 1 (0 queued)" in store.plan_report()


class TestMultiWaySplit:
    """Hist-mode adaptive splits cut several quantiles at once when
    the hotness warrants it."""

    def _hot_store(self, n_shards=4, budget=400):
        boundaries = tuple(range(0, 1001, 1000 // n_shards))
        store = PartitionedAmnesiaDatabase(
            "a",
            boundaries,
            budget,
            policy_factory=FifoAmnesia,
            seed=7,
            rebalance="adaptive",
            split_threshold=1.5,
            stats="hist",
            max_partitions=16,
        )
        rng = np.random.default_rng(5)
        for _ in range(3):
            store.insert({"a": rng.integers(0, 1000, 200)})
        return store

    def test_scorching_shard_splits_multiway(self):
        store = self._hot_store()
        # All traffic on the lowest shard: share 1.0 of 4 shards at
        # threshold 1.5 → hotness 2.67 → a 3-way cut (two medians).
        for _ in range(12):
            store.range_query(0, 240)
        store.rebalance(floor=10)
        assert any("at medians" in e for e in store.adaptations)
        n_before = 4
        # One merge funds part of the growth: 4 - 1 + 2 = 5 shards.
        assert store.partition_count == n_before + 1
        assert store.boundaries[0] == 0 and store.boundaries[-1] == 1000

    def test_multiway_split_loses_no_history(self):
        store = self._hot_store()
        before = np.sort(
            np.concatenate(
                [p.db.table.values("a") for p in store.partitions]
            )
        )
        for _ in range(12):
            store.range_query(0, 240)
        store.rebalance(floor=10)
        after = np.sort(
            np.concatenate(
                [p.db.table.values("a") for p in store.partitions]
            )
        )
        assert np.array_equal(before, after)

    def test_mild_overshoot_still_splits_two_ways(self):
        store = self._hot_store()
        # Spread traffic: hottest share just over threshold → 2-way.
        for _ in range(6):
            store.range_query(0, 240)
        for _ in range(3):
            store.range_query(250, 1000)
        store.rebalance(floor=10)
        split_events = [e for e in store.adaptations if "split shard" in e]
        if split_events:
            assert all("at medians" not in e for e in split_events)

    def test_uniform_stats_still_cuts_midpoint_only(self):
        store = PartitionedAmnesiaDatabase(
            "a",
            (0, 250, 500, 750, 1000),
            400,
            policy_factory=FifoAmnesia,
            seed=7,
            rebalance="adaptive",
            split_threshold=1.5,
            stats="uniform",
            max_partitions=16,
        )
        rng = np.random.default_rng(5)
        for _ in range(3):
            store.insert({"a": rng.integers(0, 1000, 200)})
        for _ in range(12):
            store.range_query(0, 240)
        store.rebalance(floor=10)
        split_events = [e for e in store.adaptations if "split shard" in e]
        assert split_events
        assert all("at midpoint" in e for e in split_events)


class TestTrafficCountersPlanIndependent:
    """Satellite regression: rebalance() feeds on coverage-based
    counters, so its inputs — and therefore budgets and boundaries —
    cannot depend on which access path answered the queries."""

    def _drive(self, plan, workers=1, rebalance="adaptive"):
        store = PartitionedAmnesiaDatabase(
            "a", (0, 250, 500, 1000), 150,
            policy_factory=FifoAmnesia, seed=5, plan=plan,
            workers=workers, rebalance=rebalance, split_threshold=1.5,
        )
        rng = np.random.default_rng(2)
        trails = []
        for _ in range(4):
            store.insert({"a": rng.integers(0, 1000, 100)})
            for _ in range(6):
                store.range_query(0, 200)  # skew at the low shard
            store.range_query(300, 900)
            trails.append([
                (p.low, p.high, p.query_hits, p.query_rows)
                for p in store.partitions
            ])
            store.rebalance(floor=10)
            trails.append(store.boundaries)
        trails.append(store.adaptations)
        store.close()
        return trails

    @pytest.mark.parametrize("plan", ("auto", "zonemap", "cost"))
    def test_counters_match_scan_baseline(self, plan):
        assert self._drive(plan) == self._drive("scan")

    @pytest.mark.parametrize("workers", (1, 4))
    def test_counters_match_under_fanout(self, workers):
        assert self._drive("cost", workers=workers) == self._drive("scan")

    def test_trajectory_contains_boundary_adaptation(self):
        adaptations = self._drive("scan")[-1]
        assert any("split shard" in event for event in adaptations)


class TestAdaptiveBoundaries:
    """Workload-adaptive splits and merges of the partition layout."""

    def _skewed_store(self, total_budget=4000, **kwargs):
        defaults = dict(
            policy_factory=FifoAmnesia, seed=13, rebalance="adaptive",
            split_threshold=1.5,
        )
        defaults.update(kwargs)
        store = PartitionedAmnesiaDatabase(
            "a", (0, 250, 500, 750, 1000), total_budget, **defaults
        )
        rng = np.random.default_rng(6)
        store.insert({"a": rng.integers(0, 1000, 2000)})
        return store

    def test_hot_shard_splits_and_cold_pair_merges(self):
        store = self._skewed_store()
        for _ in range(20):
            store.range_query(0, 240)
        store.rebalance(floor=10)
        # The hot shard split at its midpoint; the coldest adjacent
        # pair (all ties resolve to the lowest index) was merged to
        # fund it, so the count is unchanged.
        assert store.boundaries == (0, 125, 250, 750, 1000)
        assert store.partition_count == 4  # split funded by a merge
        assert [p.index for p in store.partitions] == [0, 1, 2, 3]
        assert any(
            "split shard [0, 250) at midpoint 125" in e
            for e in store.adaptations
        )
        assert any("merged shards [250, 500) + [500, 750)" in e
                   for e in store.adaptations)

    def test_split_loses_no_history(self):
        """Migrated shards answer every query exactly as before."""
        # Budget high enough that even post-rebalance floor shares
        # exceed any shard's row count: no forgetting anywhere, so the
        # only thing that can change answers is a migration bug.
        store = self._skewed_store(total_budget=10_000)
        values = np.concatenate([
            p.db.table.values("a") for p in store.partitions
        ])
        access_before = sum(
            int(p.db.table.access_counts().sum()) for p in store.partitions
        )
        before = store.range_query(0, 1000)
        for _ in range(20):
            store.range_query(0, 240)
        store.rebalance(floor=2000)
        after = store.range_query(0, 1000)
        assert (after.rf, after.mf) == (before.rf, before.mf)
        assert after.oracle_count == values.size
        # Every row landed in the shard owning its value range.
        for partition in store.partitions:
            shard_values = partition.db.table.values("a")
            if partition.bound_low is not None:
                assert (shard_values >= partition.bound_low).all()
            if partition.bound_high is not None:
                assert (shard_values < partition.bound_high).all()
        # Access metadata survived the migration (modulo the new reads).
        access_after = sum(
            int(p.db.table.access_counts().sum()) for p in store.partitions
        )
        assert access_after >= access_before

    def test_max_partitions_caps_growth(self):
        # Two shards: a split cannot be funded by a merge (every
        # adjacent pair touches the hot shard), so the count grows —
        # until the cap forbids it.
        store = PartitionedAmnesiaDatabase(
            "a", (0, 500, 1000), 400,
            policy_factory=FifoAmnesia, seed=3, rebalance="adaptive",
            split_threshold=1.2, max_partitions=3,
        )
        store.insert({"a": np.arange(0, 1000, 2)})
        for _ in range(10):
            store.range_query(0, 400)
        store.rebalance(floor=10)
        assert store.partition_count == 3
        for _ in range(10):
            store.range_query(0, 200)
        store.rebalance(floor=10)
        assert store.partition_count == 3  # capped

    def test_uniform_traffic_never_splits(self):
        store = self._skewed_store()
        for _ in range(10):
            store.range_query(0, 1000)  # covers every shard evenly
        store.rebalance(floor=10)
        assert store.boundaries == (0, 250, 500, 750, 1000)
        assert store.adaptations == ()

    def test_constructor_validation(self):
        with pytest.raises(ConfigError):
            self._skewed_store(split_threshold=0.5)
        with pytest.raises(ConfigError):
            self._skewed_store(max_partitions=2)  # below initial count


class TestPlanReportOrdering:
    """Satellite fix: shard reports are ordered by bound, explicitly."""

    def test_report_order_is_by_bound_not_list_order(self):
        store = make_store(boundaries=(0, 250, 500, 1000))
        store.insert({"a": np.arange(0, 1000, 10)})
        store.range_query(0, 100)
        # Simulate an interleaving-dependent internal order.
        store._partitions.reverse()
        report = store.plan_report()
        lows = [
            int(line.split("[")[1].split(",")[0])
            for line in report.splitlines()
            if line.startswith("shard ")
        ]
        assert lows == sorted(lows) == [0, 250, 500]
        stats = store.stats()
        assert stats["budgets"] == [
            p.budget for p in sorted(store.partitions, key=lambda p: p.low)
        ]
        store._partitions.reverse()  # restore

    def test_report_mentions_workers_and_adaptations(self):
        store = PartitionedAmnesiaDatabase(
            "a", (0, 250, 500, 1000), 300,
            policy_factory=FifoAmnesia, seed=5, workers=4,
            rebalance="adaptive", split_threshold=1.5,
        )
        store.insert({"a": np.arange(1000)})
        for _ in range(10):
            store.range_query(0, 200)
        store.rebalance(floor=10)
        report = store.plan_report()
        assert "workers 4" in report
        assert "rebalance 'adaptive'" in report
        assert "boundary adaptations:" in report
        assert "split shard" in report
        store.close()

    def test_report_stable_after_adaptation(self):
        store = PartitionedAmnesiaDatabase(
            "a", (0, 250, 500, 1000), 300,
            policy_factory=FifoAmnesia, seed=5,
            rebalance="adaptive", split_threshold=1.5,
        )
        store.insert({"a": np.arange(1000)})
        for _ in range(10):
            store.range_query(0, 200)
        store.rebalance(floor=10)
        report = store.plan_report()
        headers = [
            line for line in report.splitlines() if line.startswith("shard ")
        ]
        bounds = [
            (p.low, p.high)
            for p in sorted(store.partitions, key=lambda p: p.low)
        ]
        assert headers == [
            f"shard {i} [{lo}, {hi}):" for i, (lo, hi) in enumerate(bounds)
        ]


class TestIngestFailureSemantics:
    """EpochGate failure contract: an applier dying mid-writing() must
    not leak the exclusive side, starve readers, or publish a torn
    epoch — and a retried flush must converge to the uninterrupted
    run's exact state."""

    def test_crash_mid_apply_rolls_back_and_releases_gate(self):
        from repro import faults

        store = make_store()
        store.enqueue({"a": np.arange(100)})
        store.enqueue({"a": np.arange(100) + 450})
        with faults.armed("ingest.apply:crash@1"):
            with pytest.raises(faults.FaultInjected):
                store.flush()
        # No torn epoch: nothing fully applied, nothing published.
        assert store.ingest_epoch == 0
        assert store.pending_batches == 2
        # The exclusive side is released: a reader proceeds immediately
        # and a retried flush completes the wave.
        store.range_query(0, 1000)
        assert store.flush() == 2
        assert store.pending_batches == 0
        assert store.active_count == 100  # budget-limited, all applied

    def test_partial_wave_publishes_only_complete_batches(self):
        from repro import faults

        store = make_store(total_budget=1000)
        store.enqueue({"a": np.full(10, 100)})   # batch 0 -> shard 0 only
        store.enqueue({"a": np.full(10, 700)})   # batch 1 -> shard 1 only
        # workers=1 drains shard 0 fully (batch 0 chunk) then crashes on
        # shard 1's first chunk: batch 0 is complete, batch 1 is not.
        with faults.armed("ingest.apply:crash@2"):
            with pytest.raises(faults.FaultInjected):
                store.flush()
        assert store.ingest_epoch == 1
        assert store.pending_batches == 1
        assert store.flush() == 2

    def test_failed_wave_preserves_fifo_order_for_retry(self):
        from repro import faults

        store = make_store(total_budget=1000)
        batches = [np.arange(20) + 30 * i for i in range(4)]
        for batch in batches:
            store.enqueue({"a": batch})
        with faults.armed("ingest.apply:crash@3"):
            with pytest.raises(faults.FaultInjected):
                store.flush()
        store.flush()

        mirror = make_store(total_budget=1000)
        for batch in batches:
            mirror.insert({"a": batch})
        for crashed, clean in zip(store.partitions, mirror.partitions):
            assert np.array_equal(
                crashed.db.table.values("a"), clean.db.table.values("a")
            )
            assert np.array_equal(
                crashed.db.table.insert_epochs(),
                clean.db.table.insert_epochs(),
            )

    def test_readers_see_old_epochs_full_view_during_failed_flush(self):
        """Barrier-started reader threads must observe the pre-flush
        epoch's complete answer after a crashed apply wave — the gate
        handed them either the old or the (never-published) new state,
        not a mixture, and nobody deadlocks."""
        import threading

        from repro import faults

        store = make_store(total_budget=1000)
        store.insert({"a": np.arange(0, 1000, 10)})  # epoch 1: 100 rows
        store.enqueue({"a": np.arange(5) + 100})
        store.enqueue({"a": np.arange(5) + 600})
        n_readers = 4
        barrier = threading.Barrier(n_readers + 1)
        results, errors = [], []

        def reader():
            barrier.wait()
            try:
                result = store.range_query(0, 1000)
                results.append(result.rf + result.mf)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=reader) for _ in range(n_readers)
        ]
        for t in threads:
            t.start()
        with faults.armed("ingest.apply:crash@1"):
            barrier.wait()
            with pytest.raises(faults.FaultInjected):
                store.flush()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads), "reader starved"
        assert not errors
        # Epoch never advanced, so every reader saw the 100-row view.
        assert results == [100] * n_readers
        assert store.ingest_epoch == 1

    @pytest.mark.parametrize("workers", [1, 4])
    def test_crashed_then_retried_flush_is_bit_identical(self, workers):
        from repro import faults

        def build():
            return PartitionedAmnesiaDatabase(
                "a",
                (0, 250, 500, 750, 1000),
                200,
                policy_factory=FifoAmnesia,
                seed=7,
                workers=workers,
            )

        crashed = build()
        for i in range(5):
            crashed.enqueue({"a": (np.arange(40) * 23 + i * 7) % 1000})
        with faults.armed("ingest.apply:crash@4"):
            try:
                crashed.flush()
            except faults.FaultInjected:
                pass
        crashed.flush()

        clean = build()
        for i in range(5):
            clean.enqueue({"a": (np.arange(40) * 23 + i * 7) % 1000})
        clean.flush()

        assert crashed.ingest_epoch == clean.ingest_epoch
        for a, b in zip(crashed.partitions, clean.partitions):
            assert np.array_equal(
                a.db.table.values("a"), b.db.table.values("a")
            )
            assert np.array_equal(
                a.db.table.active_mask(), b.db.table.active_mask()
            )

    def test_crash_before_publish_still_publishes_applied_wave(self):
        """ingest.applied fires after every applier succeeded; the
        publish lives on the unwind path, so the wave is not lost."""
        from repro import faults

        store = make_store()
        store.enqueue({"a": np.arange(100)})
        with faults.armed("ingest.applied:crash"):
            with pytest.raises(faults.FaultInjected):
                store.flush()
        assert store.ingest_epoch == 1
        assert store.pending_batches == 0
        assert store.range_query(0, 1000).oracle_count == 100

    def test_crash_at_enqueue_drops_batch_atomically(self):
        from repro import faults

        store = make_store()
        with faults.armed("ingest.enqueue:crash"):
            with pytest.raises(faults.FaultInjected):
                store.enqueue({"a": np.arange(10)})
        assert store.pending_batches == 0
        assert all(not p.pending for p in store.partitions)
        store.enqueue({"a": np.arange(10)})  # the writer's retry
        assert store.flush() == 1

    def test_crash_at_rebalance_adapt_leaves_layout_intact(self):
        from repro import faults

        store = make_store()
        store.enqueue({"a": np.arange(100)})
        before_bounds = list(store.stats()["boundaries"])
        before_budgets = [p.budget for p in store.partitions]
        with faults.armed("rebalance.adapt:crash"):
            with pytest.raises(faults.FaultInjected):
                store.rebalance(policy="adaptive")
        # Backlog drained and published; layout untouched.
        assert store.ingest_epoch == 1
        assert store.pending_batches == 0
        assert list(store.stats()["boundaries"]) == before_bounds
        assert [p.budget for p in store.partitions] == before_budgets
        store.rebalance(policy="adaptive")  # the retry is a full one

    def test_map_ordered_waits_for_all_groups_before_raising(self):
        """The fan-out barrier: a failing group must not leave other
        groups running when map_ordered raises."""
        import threading
        import time

        from repro._util.parallel import FanOutPool

        pool = FanOutPool()
        done = []

        def work(item):
            if item == 0:
                raise ValueError("group zero dies")
            time.sleep(0.05)
            done.append(item)

        try:
            with pytest.raises(ValueError, match="group zero"):
                pool.map_ordered(work, list(range(4)), workers=4)
            # Every surviving group finished before the raise.
            assert sorted(done) == [1, 2, 3]
        finally:
            pool.close()
