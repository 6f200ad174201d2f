"""Unit tests for the cross-table plan layer (repro.query.plans)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._util.errors import QueryError, SchemaError
from repro.amnesia import FifoAmnesia
from repro.partitioning import PartitionedAmnesiaDatabase
from repro.query import (
    JoinNode,
    NodeResult,
    ShardedScanNode,
    TableScanNode,
    UnionNode,
    build_plan,
    execute_plan,
    explain_plan,
    parse_query_spec,
)
from repro.query.plans import (
    DENSE_ROWS,
    DENSE_SLACK,
    NARROW_SPAN,
    PlanNode,
    _estimate_equijoin,
    _KeyDistribution,
    _sort_build,
    _StreamContext,
    render_summary,
    summarize_result,
)
from repro.stats import EquiWidthHistogram
from repro.storage import Catalog


@pytest.fixture
def catalog():
    cat = Catalog(plan="auto")
    for name, values in (("s1", [1, 2, 3, 5]), ("s2", [2, 3, 3, 8])):
        table = cat.create_table(name, ["a"])
        table.insert_batch(0, {"a": values[:2]})
        table.insert_batch(1, {"a": values[2:]})
    cat.get("s1").forget(np.array([1]), epoch=1)  # value 2 of s1
    return cat


class TestSpecParsing:
    def test_union_minimal(self):
        spec = parse_query_spec("union:s1,s2")
        assert (spec.kind, spec.tables) == ("union", ("s1", "s2"))
        assert spec.low is None and spec.high is None

    def test_join_full_options(self):
        spec = parse_query_spec("join:s1,s2:on=epoch,low=0,high=50")
        assert spec.on == "epoch"
        assert (spec.low, spec.high) == (0, 50)

    def test_render_roundtrip(self):
        for raw in (
            "union:s1,s2",
            "union:s1,s2,s3:low=1,high=9",
            "join:s1,s2:on=epoch",
            "join:a,b:on=value,low=-5,high=5",
            "join:s1,s2:on=value,agg=value",
        ):
            spec = parse_query_spec(raw)
            assert parse_query_spec(spec.render()) == spec

    @pytest.mark.parametrize(
        "bad",
        [
            "scan:s1,s2",            # unknown kind
            "union:s1",              # one table
            "join:s1,s2:on=id",      # unknown key
            "union:s1,s2:on=value",  # on= outside a join
            "join:s1,s2:low=3",      # low without high
            "join:s1,s2:high=x,low=1",  # non-integer bound
            "union:s1,s2:low=9,high=0",  # reversed range
            "union:s1,s2:color=red",  # unknown option
            "union",                 # no tables section
            "union:s1,s2:a:b",       # too many sections
            # block= is not an option, whatever its value or kind
            "join:s1,s2:on=value,block=512",
            "union:s1,s2:block=4",
            "join:s1,s2:block=0",
            "join:s1,s2:block=x",
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(QueryError):
            parse_query_spec(bad)

    def test_build_plan_unknown_source(self, catalog):
        with pytest.raises(QueryError, match="unknown source"):
            build_plan(catalog, "union:s1,nope")


class TestScanNodes:
    def test_scan_emits_value_epoch_in_position_order(self, catalog):
        result = catalog.query(TableScanNode("s1"), epoch=2)
        assert result.columns == ("value", "epoch")
        assert result.rows.tolist() == [[1, 0], [2, 0], [3, 1], [5, 1]]
        assert result.forgotten.tolist() == [False, True, False, False]
        assert (result.rf, result.mf) == (3, 1)

    def test_bounded_scan(self, catalog):
        result = catalog.query(TableScanNode("s1", 2, 4), epoch=2)
        assert result.rows.tolist() == [[2, 0], [3, 1]]
        assert result.active_rows().tolist() == [[3, 1]]

    def test_bounds_validated(self):
        with pytest.raises(QueryError):
            TableScanNode("s1", 5, 1)
        with pytest.raises(QueryError):
            TableScanNode("s1", low=5)

    def test_empty_table_scans_empty(self):
        cat = Catalog()
        cat.create_table("empty", ["a"])
        result = cat.query(TableScanNode("empty"), epoch=0)
        assert result.oracle_count == 0 and result.precision == 1.0

    def test_column_override(self):
        cat = Catalog()
        table = cat.create_table("two", ["x", "y"])
        table.insert_batch(0, {"x": [1, 2], "y": [7, 9]})
        result = cat.query(TableScanNode("two", column="y"), epoch=1)
        assert result.column("value").tolist() == [7, 9]

    def test_record_access_flag(self, catalog):
        catalog.query(TableScanNode("s1"), epoch=2, record_access=False)
        assert catalog.get("s1").access_counts().sum() == 0
        catalog.query(TableScanNode("s1"), epoch=2)
        # Only the three active rows get their access bumped.
        assert catalog.get("s1").access_counts().tolist() == [1, 0, 1, 1]


class TestUnionNode:
    def test_concatenates_in_child_order(self, catalog):
        result = catalog.query("union:s2,s1", epoch=2)
        assert result.rows.tolist()[:4] == [[2, 0], [3, 0], [3, 1], [8, 1]]
        assert (result.rf, result.mf) == (7, 1)
        # Per-input accounting survives the union exactly.
        assert [(r.rf, r.mf) for r in result.inputs] == [(4, 0), (3, 1)]

    def test_needs_two_inputs(self):
        with pytest.raises(QueryError):
            UnionNode(TableScanNode("s1"))

    def test_rejects_mismatched_columns(self):
        join = JoinNode(TableScanNode("s1"), TableScanNode("s2"))
        with pytest.raises(QueryError, match="disagree on columns"):
            UnionNode(join, TableScanNode("s1"))

    def test_union_of_joins_allowed(self, catalog):
        union = UnionNode(
            JoinNode(TableScanNode("s1"), TableScanNode("s2")),
            JoinNode(TableScanNode("s2"), TableScanNode("s1")),
        )
        result = catalog.query(union, epoch=2)
        assert result.oracle_count == 6
        assert result.columns == ("l.value", "l.epoch", "r.value", "r.epoch")


class TestJoinNode:
    def test_value_join_matches_nested_loop(self, catalog):
        result = catalog.query("join:s1,s2:on=value", epoch=2)
        # s1 values [1,2,3,5] (2 forgotten), s2 values [2,3,3,8]:
        # pairs in (left, right) order: (2,2) (3,3) (3,3).
        assert result.rows.tolist() == [
            [2, 0, 2, 0],
            [3, 1, 3, 0],
            [3, 1, 3, 1],
        ]
        assert result.forgotten.tolist() == [True, False, False]
        assert (result.rf, result.mf) == (2, 1)
        assert result.precision == pytest.approx(2 / 3)

    def test_epoch_join(self, catalog):
        result = catalog.query("join:s1,s2:on=epoch", epoch=2)
        # Two rows per epoch on each side: 2 epochs * 2 * 2 pairs.
        assert result.oracle_count == 8
        lkeys = result.column("l.epoch")
        rkeys = result.column("r.epoch")
        assert (lkeys == rkeys).all()

    def test_output_order_independent_of_build_side(self, catalog):
        # s1 is smaller after bounds; force both asymmetries and check
        # the canonical order survives.
        wide = catalog.query(
            JoinNode(TableScanNode("s1"), TableScanNode("s2", 0, 100)),
            epoch=2,
        )
        narrow = catalog.query(
            JoinNode(TableScanNode("s1"), TableScanNode("s2", 2, 4)),
            epoch=2,
        )
        assert wide.rows.tolist()[: narrow.oracle_count] == narrow.rows.tolist()

    def test_forgotten_iff_any_side_forgotten(self, catalog):
        catalog.get("s2").forget(np.array([3]), epoch=2)  # value 8 (no match)
        result = catalog.query("join:s1,s2:on=value", epoch=3)
        assert result.forgotten.tolist() == [True, False, False]

    def test_bad_key_rejected(self):
        with pytest.raises(QueryError, match="join key"):
            JoinNode(TableScanNode("s1"), TableScanNode("s2"), on="serial")

    def test_three_way_chain_left_deep(self, catalog):
        table = catalog.create_table("s3", ["a"])
        table.insert_batch(0, {"a": [3, 5]})
        node = build_plan(catalog, "join:s1,s2,s3:on=value")
        result = catalog.query(node, epoch=2)
        # (3,3,3) twice (two 3s in s2) and nothing else: 5 has no s2 match.
        assert result.column("l.l.value").tolist() == [3, 3]
        assert result.column("r.value").tolist() == [3, 3]

    def test_node_reuse_rejected(self, catalog):
        scan = TableScanNode("s1")
        with pytest.raises(QueryError, match="appears twice"):
            catalog.query(JoinNode(scan, scan), epoch=2)

    def test_empty_probe_side(self, catalog):
        node = JoinNode(TableScanNode("s1", 90, 99), TableScanNode("s2"))
        result = catalog.query(node, epoch=2)
        assert result.oracle_count == 0
        assert result.rows.shape == (0, 4)
        assert node.peak_pairs == 0


class TestJoinEstimates:
    def _zipf_catalog(self, stats):
        cat = Catalog(plan="cost", stats=stats)
        rng = np.random.default_rng(31)
        hot = cat.create_table("hot", ["a"])
        # 300 rows, ~80% mass in [0, 8) but spanning [0, 1000).
        values = np.minimum((rng.zipf(1.3, 300) - 1) * 4, 999)
        hot.insert_batch(0, {"a": values})
        return cat

    def test_histogram_join_estimate_beats_max_heuristic(self):
        """On a skewed many-to-many key the FK-ish max-of-inputs guess
        collapses; the per-bin histogram product tracks the blow-up."""
        uniform = self._zipf_catalog("uniform")
        hist = self._zipf_catalog("hist")
        spec = "join:hot,hot2:on=value"
        for cat in (uniform, hist):
            rng = np.random.default_rng(31)
            twin = cat.create_table("hot2", ["a"])
            twin.insert_batch(
                0, {"a": np.minimum((rng.zipf(1.3, 300) - 1) * 4, 999)}
            )
        actual = uniform.query(spec, epoch=0).oracle_count
        uniform_est = build_plan(uniform, spec).estimate_rows(uniform)
        hist_est = build_plan(hist, spec).estimate_rows(hist)
        assert actual > 300  # genuinely many-to-many
        assert uniform_est <= 300  # max-of-inputs cannot see past that
        assert abs(hist_est - actual) < abs(uniform_est - actual)


class TestShardedInputs:
    @pytest.fixture
    def sharded_catalog(self, catalog):
        store = PartitionedAmnesiaDatabase(
            "a",
            (0, 4, 8),
            total_budget=40,
            policy_factory=FifoAmnesia,
            plan="auto",
        )
        store.insert({"a": np.array([1, 3, 5, 9, -2])})
        catalog.register_sharded("sh", store)
        return catalog, store

    def test_scan_rows_merges_in_shard_order(self, sharded_catalog):
        catalog, store = sharded_catalog
        result = catalog.query(ShardedScanNode("sh"), epoch=2)
        # Shard 0 ([−inf, 4)) got 1, 3, −2 in insertion order; shard 1
        # ([4, +inf)) got 5, 9.
        assert result.column("value").tolist() == [1, 3, -2, 5, 9]

    def test_scan_records_access_at_caller_epoch(self, sharded_catalog):
        """Cross-table queries stamp sharded rows with the query epoch,
        exactly like plain-table leaves — recency-sensitive policies
        must not see the two source kinds differently."""
        catalog, store = sharded_catalog
        catalog.query("union:s1,sh", epoch=42)
        for partition in store.partitions:
            table = partition.db.table
            touched = table.access_counts() > 0
            assert touched.any()
            assert (table.last_access_epochs()[touched] == 42).all()
        table = catalog.get("s1")
        touched = table.access_counts() > 0
        assert (table.last_access_epochs()[touched] == 42).all()

    def test_sharded_join_input(self, sharded_catalog):
        catalog, _ = sharded_catalog
        result = catalog.query("join:s1,sh:on=value", epoch=2)
        assert result.column("l.value").tolist() == [1, 3, 5]
        assert result.forgotten.tolist() == [False, False, False]

    def test_estimate_scan_prunes_uncovered_shards(self, sharded_catalog):
        _, store = sharded_catalog
        full = store.estimate_scan()
        assert full == 5.0
        low_only = store.estimate_scan(100, 200)  # only the open edge shard
        assert low_only <= full

    def test_scan_rows_validates_bounds(self, sharded_catalog):
        _, store = sharded_catalog
        with pytest.raises(QueryError):
            store.scan_chunks(5, 1)
        with pytest.raises(QueryError):
            store.scan_chunks(low=5)

    def test_registry_guards(self, sharded_catalog):
        catalog, store = sharded_catalog
        with pytest.raises(SchemaError):
            catalog.register_sharded("s1", store)  # name taken by a table
        with pytest.raises(SchemaError):
            catalog.register_sharded("sh", store)  # already registered
        with pytest.raises(SchemaError):
            catalog.register_sharded("bad", object())  # no scan_chunks()

        class ScanOnly:  # satisfies scan_chunks but not explain/report
            def scan_chunks(self, *args, **kwargs):
                return None

        with pytest.raises(SchemaError, match="lacks"):
            catalog.register_sharded("bad", ScanOnly())

        class NoChunks:  # all but the chunked scan
            estimate_scan = lambda self: None
            partition_count = 1
            plan_mode = "auto"

        with pytest.raises(SchemaError, match=r"lacks \['scan_chunks'\]"):
            catalog.register_sharded("bad", NoChunks())
        with pytest.raises(SchemaError):
            catalog.sharded("nope")
        # The shadow works both ways: a table cannot take a sharded
        # name either (created or externally registered) — otherwise
        # build_plan's tables-first resolution would silently read the
        # empty shadow table instead of the store.
        with pytest.raises(SchemaError):
            catalog.create_table("sh", ["a"])
        from repro.storage import Table

        with pytest.raises(SchemaError):
            catalog.register(Table("sh", ["a"]))
        assert catalog.has_sharded("sh") and catalog.sharded_names() == ["sh"]
        catalog.drop("sh")
        assert not catalog.has_sharded("sh")


class TestExplainAndReport:
    def test_explain_tree_shape(self, catalog):
        tree = explain_plan(
            JoinNode(
                UnionNode(TableScanNode("s1"), TableScanNode("s2")),
                TableScanNode("s1", 0, 4),
            ),
            catalog,
        )
        lines = tree.splitlines()
        assert lines[0].startswith("Join(on='value'")
        assert lines[1].startswith("├─ Union(2 inputs)")
        assert lines[2].startswith("│  ├─ TableScan('s1')")
        assert lines[4].startswith("└─ TableScan('s1' ∈ [0, 4))")
        assert "cost≈" in lines[0]

    def test_render_summary_carries_accounting(self, catalog):
        node = build_plan(catalog, "join:s1,s2:on=value")
        result = execute_plan(node, catalog, epoch=2)
        rendered = render_summary(node, summarize_result(result), catalog)
        assert "rf=2 mf=1 precision=0.667" in rendered.splitlines()[0]

    def test_catalog_plan_report_includes_cross_section(self, catalog):
        catalog.query("union:s1,s2", epoch=2)
        report = catalog.plan_report()
        assert "cross-table queries executed: 1" in report
        assert "Union(2 inputs" in report

    def test_plan_report_survives_dropped_source(self, catalog):
        """Regression: dropping a source referenced by the newest
        cross-table query must not crash plan_report — the node
        renders unbound (no estimates) instead."""
        catalog.query("join:s1,s2:on=value", epoch=2)
        catalog.drop("s2")
        report = catalog.plan_report()
        assert "rf=2 mf=1" in report
        assert "TableScan('s2')" in report

    def test_plan_report_retains_counts_not_rows(self, catalog):
        """The report cache keeps per-node counts, not the result's
        materialized row matrices."""
        catalog.query("join:s1,s2:on=value", epoch=2)
        node, summary, batch_size = catalog._last_cross
        assert summary == (
            2, 1, 2 / 3, ((3, 1, 0.75, ()), (4, 0, 1.0, ()))
        )
        assert batch_size == 4096

    def test_explain_and_report_name_the_batch_size(self, catalog):
        spec = "union:s1,s2:agg=value"
        assert "pushdown-union(batch=5)" in catalog.explain_query(
            spec, batch_size=5
        )
        catalog.query(spec, epoch=2, batch_size=3)
        assert "pushdown-union(batch=3)" in catalog.plan_report()

    def test_explain_query_spec(self, catalog):
        tree = catalog.explain_query("union:s1,s2:low=0,high=3")
        assert "∈ [0, 3)" in tree

    def test_node_result_unknown_column(self, catalog):
        result = catalog.query("union:s1,s2", epoch=2)
        with pytest.raises(QueryError, match="no column"):
            result.column("serial")
        assert isinstance(result, NodeResult)


class TestStreamingBatches:
    """The batch-iterator contract: ordering, flags, snapshot, bounds."""

    def _materialized(self, catalog, node_factory, epoch=2):
        result = catalog.query(node_factory(), epoch=epoch, record_access=False)
        return result.rows, result.forgotten

    def _streamed(self, catalog, node, batch_size, epoch=2):
        pieces = list(
            node.batches(catalog, epoch, batch_size, record_access=False)
        )
        if not pieces:
            return np.empty((0, 0)), np.empty(0, dtype=bool), pieces
        return (
            np.concatenate([r for r, _ in pieces]),
            np.concatenate([f for _, f in pieces]),
            pieces,
        )

    @pytest.mark.parametrize("batch_size", (1, 2, 3, 1000))
    def test_union_batches_bit_identical(self, catalog, batch_size):
        rows, flags = self._materialized(
            catalog, lambda: UnionNode(TableScanNode("s1"), TableScanNode("s2"))
        )
        node = UnionNode(TableScanNode("s1"), TableScanNode("s2"))
        srows, sflags, pieces = self._streamed(catalog, node, batch_size)
        assert srows.tolist() == rows.tolist()
        assert sflags.tolist() == flags.tolist()
        # Every batch except the last is exactly batch_size rows.
        assert all(r.shape[0] == batch_size for r, _ in pieces[:-1])
        assert pieces[-1][0].shape[0] <= batch_size

    @pytest.mark.parametrize("batch_size", (1, 2, 5, 1000))
    def test_join_batches_bit_identical(self, catalog, batch_size):
        rows, flags = self._materialized(
            catalog,
            lambda: JoinNode(
                TableScanNode("s1"), TableScanNode("s2"), on="value"
            ),
        )
        node = JoinNode(TableScanNode("s1"), TableScanNode("s2"), on="value")
        srows, sflags, _ = self._streamed(catalog, node, batch_size)
        assert srows.tolist() == rows.tolist()
        assert sflags.tolist() == flags.tolist()
        assert node.last_strategy == f"streamed-hash(batch={batch_size})"

    def test_batch_larger_than_input_single_batch(self, catalog):
        node = TableScanNode("s1")
        pieces = list(node.batches(catalog, 2, 10_000, record_access=False))
        assert len(pieces) == 1
        assert pieces[0][0].shape[0] == 4

    def test_empty_inputs_yield_no_batches(self):
        cat = Catalog(plan="auto")
        for name in ("e1", "e2"):
            cat.create_table(name, ["a"])
        union = UnionNode(TableScanNode("e1"), TableScanNode("e2"))
        assert list(union.batches(cat, 0, 4)) == []
        join = JoinNode(TableScanNode("e1"), TableScanNode("e2"))
        assert list(join.batches(cat, 0, 4)) == []
        assert join.peak_pairs == 0

    def test_empty_build_side_streams_empty(self, catalog):
        node = JoinNode(
            TableScanNode("s1"), TableScanNode("s2", 90, 99), on="value"
        )
        assert list(node.batches(catalog, 2, 3, record_access=False)) == []

    def test_batch_boundary_on_forgotten_run(self):
        """A forgotten run straddling a batch boundary keeps its flags
        aligned row-for-row on both sides of the cut."""
        cat = Catalog(plan="auto")
        table = cat.create_table("t", ["a"])
        table.insert_batch(0, {"a": list(range(10))})
        table.forget(np.array([3, 4, 5, 6]), epoch=1)  # run crosses 5
        pieces = list(
            TableScanNode("t").batches(cat, 1, 5, record_access=False)
        )
        assert [f.tolist() for _, f in pieces] == [
            [False, False, False, True, True],
            [True, True, False, False, False],
        ]

    def test_stream_holds_one_epoch_snapshot(self, catalog):
        """Forgetting that lands after the stream opens is invisible to
        it — the snapshot is per batch stream, not per batch."""
        before_rows, before_flags = self._materialized(
            catalog, lambda: TableScanNode("s1")
        )
        node = TableScanNode("s1")
        stream = node.batches(catalog, 2, 1, record_access=False)
        first = next(stream)  # stream is open (leaves already scanned)
        catalog.get("s1").forget(np.array([2]), epoch=2)
        rest = list(stream)
        srows = np.concatenate([first[0]] + [r for r, _ in rest])
        sflags = np.concatenate([first[1]] + [f for _, f in rest])
        assert srows.tolist() == before_rows.tolist()
        assert sflags.tolist() == before_flags.tolist()
        # A *new* stream sees the new epoch's forgetting.
        _, after_flags, _ = self._streamed(
            catalog, TableScanNode("s1"), 2, epoch=2
        )
        assert after_flags.tolist() != before_flags.tolist()

    def test_sharded_stream_snapshot_under_concurrent_ingest(self):
        """A sharded leaf's chunks are taken under one read-gate
        acquisition: ingest applied mid-drain cannot tear the stream."""
        store = PartitionedAmnesiaDatabase(
            "a",
            (0, 4, 8),
            total_budget=40,
            policy_factory=FifoAmnesia,
            plan="auto",
        )
        store.insert({"a": np.array([1, 3, 5, 9, -2])})
        cat = Catalog(plan="auto")
        cat.register_sharded("sh", store)
        node = ShardedScanNode("sh")
        stream = node.batches(cat, 1, 2, record_access=False)
        first = next(stream)
        store.insert({"a": np.array([2, 6])})  # lands after the snapshot
        rest = list(stream)
        values = np.concatenate([first[0]] + [r for r, _ in rest])[:, 0]
        assert values.tolist() == [1, 3, -2, 5, 9]
        store.close()

    def test_invalid_batch_size_rejected(self, catalog):
        with pytest.raises(QueryError, match="batch size"):
            list(TableScanNode("s1").batches(catalog, 2, 0))

    def test_default_and_explicit_batch_size(self, catalog):
        union = UnionNode(TableScanNode("s1"), TableScanNode("s2"))
        pieces = list(union.batches(catalog, 2, record_access=False))
        assert [r.shape[0] for r, _ in pieces] == [8]  # 4096-row default
        pieces = list(
            union.batches(catalog, 2, batch_size=3, record_access=False)
        )
        assert [r.shape[0] for r, _ in pieces] == [3, 3, 2]


class TestStreamedAggregates:
    def _exact_over(self, result):
        from repro.stats import ExactMoments

        values = result.rows[:, 0]
        return (
            ExactMoments.of(values[~result.forgotten]),
            ExactMoments.of(values[result.forgotten]),
        )

    def test_agg_spec_parse_and_render(self):
        spec = parse_query_spec("join:s1,s2:on=value,agg=value")
        assert spec.agg == "value"
        assert parse_query_spec(spec.render()) == spec
        assert parse_query_spec("union:s1,s2:agg=epoch").agg == "epoch"
        with pytest.raises(QueryError, match="agg"):
            parse_query_spec("union:s1,s2:agg=")

    def test_aggregate_over_join_equals_materialized(self, catalog):
        mat = catalog.query("join:s1,s2:on=value", epoch=2)
        exp_active, exp_missed = self._exact_over(mat)
        for batch_size in (1, 3, 1000):
            agg = catalog.query(
                "join:s1,s2:on=value,agg=value",
                epoch=2,
                record_access=False,
                batch_size=batch_size,
            )
            assert agg.active == exp_active
            assert agg.missed == exp_missed
            assert (agg.rf, agg.mf, agg.precision) == (
                mat.rf, mat.mf, mat.precision,
            )

    def test_union_pushdown_equals_materialized(self, catalog):
        mat = catalog.query("union:s1,s2", epoch=2)
        exp_active, exp_missed = self._exact_over(mat)
        agg = catalog.query(
            "union:s1,s2:agg=value", epoch=2, record_access=False, batch_size=2
        )
        assert agg.strategy == "pushdown-union(batch=2)"
        assert agg.active == exp_active and agg.missed == exp_missed
        # Per-input accounting survives the pushdown.
        assert [(v.rf, v.mf) for v in agg.inputs[0].inputs] == [
            (r.rf, r.mf) for r in mat.inputs
        ]

    def test_join_never_materializes_pair_set(self):
        """The tentpole bound: peak pairs ≤ batch_size × build rows,
        strictly below the full pair matrix on skewed keys."""
        cat = Catalog(plan="auto")
        rng = np.random.default_rng(7)
        for name in ("s1", "s2"):
            t = cat.create_table(name, ["a"])
            values = rng.integers(0, 30, 400)
            values[rng.random(400) < 0.4] = 5  # hot key both sides
            t.insert_batch(0, {"a": values})
        node = build_plan(cat, "join:s1,s2:on=value")
        mat = cat.query(node, epoch=0)
        assert node.peak_pairs == mat.oracle_count
        batch = 16
        agg_node = build_plan(cat, "join:s1,s2:on=value,agg=value")
        cat.query(agg_node, epoch=0, record_access=False, batch_size=batch)
        join = agg_node.children[0]
        build_rows = min(r.oracle_count for r in mat.inputs)
        assert 0 < join.peak_pairs <= batch * build_rows
        assert join.peak_pairs * 10 <= mat.oracle_count
        assert join.peak_batch_bytes < mat.oracle_count * (8 * 4 + 1)

    def test_sort_merge_chosen_on_ordered_inputs_and_identical(self, catalog):
        from repro.indexes import SortedIndex

        mat = catalog.query("join:s1,s2:on=value", epoch=2)
        exp_active, exp_missed = self._exact_over(mat)
        for name in ("s1", "s2"):
            catalog.create_index(name, "a", SortedIndex)
        node = build_plan(catalog, "join:s1,s2:on=value")
        assert node.join_strategy(catalog) == "merge"
        for batch_size in (1, 2, 1000):
            agg = catalog.query(
                "join:s1,s2:on=value,agg=value",
                epoch=2,
                record_access=False,
                batch_size=batch_size,
            )
            assert agg.strategy == f"sort-merge(batch={batch_size})"
            assert agg.active == exp_active
            assert agg.missed == exp_missed
        # Epoch keys carry no order signal: hash stays the strategy.
        epoch_join = build_plan(catalog, "join:s1,s2:on=epoch")
        assert epoch_join.join_strategy(catalog) == "hash"

    def test_sort_merge_slabs_bound_hot_key_groups(self):
        """One scorching key: the merge path emits its cross product in
        slabs, so peak pairs stays ≤ batch_size even within a group."""
        from repro.indexes import SortedIndex
        from repro.query import AggregateNode

        cat = Catalog(plan="auto")
        for name in ("s1", "s2"):
            t = cat.create_table(name, ["a"])
            t.insert_batch(0, {"a": [7] * 40})  # 1600 pairs, one key
            cat.create_index(name, "a", SortedIndex)
        node = build_plan(cat, "join:s1,s2:on=value")
        assert node.join_strategy(cat) == "merge"
        agg = cat.query(
            AggregateNode(node), epoch=0, record_access=False, batch_size=32
        )
        assert agg.rf == 1600
        assert node.peak_pairs == 32

    def test_strategy_priced_once_and_label_matches_path(self, catalog):
        """Execution prices the join strategy once and both labels and
        branches on that answer: a cost model that flips between calls
        cannot make the reported strategy disagree with the path run."""
        agg_node = build_plan(catalog, "join:s1,s2:on=value,agg=value")
        join = agg_node.children[0]
        calls = []

        def flipping(_catalog):
            calls.append(None)
            return "hash" if len(calls) % 2 else "merge"

        join.join_strategy = flipping
        for expected in ("streamed-hash", "sort-merge", "streamed-hash"):
            before = len(calls)
            agg = catalog.query(
                agg_node, epoch=2, record_access=False, batch_size=4
            )
            assert len(calls) - before == 1
            assert agg.strategy == f"{expected}(batch=4)"
            assert join.last_strategy == agg.strategy

    def test_agg_column_resolution(self, catalog):
        from repro.query import AggregateNode

        join = build_plan(catalog, "join:s1,s2:on=value")
        assert AggregateNode(join, "value").on == "l.value"  # leftmost
        assert AggregateNode(join, "r.epoch").on == "r.epoch"
        assert AggregateNode(join).on == "l.value"  # default: first column
        with pytest.raises(QueryError, match="aggregate column"):
            AggregateNode(join, "nope")

    def test_aggregate_must_be_root(self, catalog):
        from repro.query import AggregateNode

        inner = AggregateNode(TableScanNode("s1"))
        outer = AggregateNode(JoinNode(inner, TableScanNode("s2"), on="value"))
        with pytest.raises(QueryError, match="nest|root"):
            outer.validate(catalog)
        with pytest.raises(QueryError, match="batches"):
            AggregateNode(TableScanNode("s1")).batches(catalog, 0)

    def test_empty_aggregate(self):
        cat = Catalog(plan="auto")
        for name in ("e1", "e2"):
            cat.create_table(name, ["a"])
        agg = cat.query("union:e1,e2:agg=value", epoch=0)
        assert (agg.rf, agg.mf, agg.precision) == (0, 0, 1.0)
        assert agg.oracle_count == 0


class TestSortMergeEmitter:
    """``JoinNode._stream_merge`` driven directly, slab by slab."""

    @pytest.fixture
    def ordered(self):
        from repro.indexes import SortedIndex

        rng = np.random.default_rng(15)
        big = 2**62
        cat = Catalog(plan="auto")
        sides = {
            # Many small groups, a hot key (9) on both sides, keys only
            # one side holds (1000.. left, negatives right) and keys at
            # the int64 edges the merge must not overflow on.
            "s1": np.concatenate(
                [
                    rng.integers(0, 150, 500),
                    np.full(40, 9),
                    np.arange(1000, 1020),
                    [big - 1, big - 1, -big, big],
                ]
            ),
            "s2": np.concatenate(
                [
                    rng.integers(0, 150, 400),
                    np.full(30, 9),
                    -np.arange(1, 25),
                    [big - 1, -big, -big, -big + 1],
                ]
            ),
        }
        for name, values in sides.items():
            table = cat.create_table(name, ["a"])
            rng.shuffle(values)
            table.insert_batch(0, {"a": values[: values.size // 2]})
            table.insert_batch(1, {"a": values[values.size // 2 :]})
            table.forget(rng.choice(values.size, 60, replace=False), epoch=1)
            cat.create_index(name, "a", SortedIndex)
        cat.create_table("e", ["a"])
        cat.create_index("e", "a", SortedIndex)
        return cat

    @staticmethod
    def _emit(cat, spec: str, batch: int):
        from repro.query.plans import _fan_out_leaves, _StreamContext

        node = build_plan(cat, spec)
        payloads = _fan_out_leaves(node, cat, 2, None, 1, False, stream=True)
        return node, list(node._stream_merge(_StreamContext(payloads, batch)))

    @pytest.mark.parametrize("batch", [1, 3, 7, 4096])
    def test_slabs_replay_materialized_join_in_key_order(self, ordered, batch):
        spec = "join:s1,s2:on=value"
        assert build_plan(ordered, spec).join_strategy(ordered) == "merge"
        mat = ordered.query(spec, epoch=2, record_access=False)
        pairs = mat.oracle_count
        # Hot key 9 alone joins 1200 pairs; at batch 4096 the whole
        # join is one short slab.
        assert 1200 < pairs < 4096 and mat.mf > 0
        # The materialized join is in (left row, right row) order, so a
        # stable sort on the key gives (key, left row, right row).
        order = np.argsort(mat.rows[:, 0], kind="stable")
        node, pieces = self._emit(ordered, spec, batch)
        rows = np.concatenate([r for r, _ in pieces])
        flags = np.concatenate([f for _, f in pieces])
        np.testing.assert_array_equal(rows, mat.rows[order])
        np.testing.assert_array_equal(flags, mat.forgotten[order])
        sizes = [r.shape[0] for r, _ in pieces]
        assert all(size == batch for size in sizes[:-1])
        assert 0 < sizes[-1] <= batch
        assert node.peak_pairs == min(batch, pairs)
        assert node.last_strategy == f"sort-merge(batch={batch})"

    @pytest.mark.parametrize(
        "spec", ["join:s1,e:on=value", "join:e,s1:on=value"]
    )
    def test_empty_side_yields_nothing(self, ordered, spec):
        node, pieces = self._emit(ordered, spec, 7)
        assert pieces == []
        assert node.peak_pairs == 0


class TestNestedJoinReport:
    def test_two_level_join_reports_peak_for_every_join(self, catalog):
        """plan_report carries the execution footprint — strategy,
        peak_pairs, peak_batch_bytes — for *nested* join trees, one
        annotation per join node, not just the root."""
        table = catalog.create_table("s3", ["a"])
        table.insert_batch(0, {"a": [2, 3, 9]})
        node = build_plan(catalog, "join:s1,s2,s3:on=value")
        catalog.query(node, epoch=2)
        report = catalog.plan_report()
        assert report.count("peak_pairs=") == 2
        assert report.count("peak_batch_bytes=") == 2
        assert report.count("[materialized-hash:") == 2
        inner, outer = node.children[0], node
        assert f"peak_pairs={inner.peak_pairs}" in report
        assert f"peak_pairs={outer.peak_pairs}" in report

    def test_streamed_strategy_lands_in_report(self, catalog):
        catalog.query(
            "join:s1,s2:on=value,agg=value",
            epoch=2,
            batch_size=3,
        )
        report = catalog.plan_report()
        assert "Aggregate(on='l.value')" in report
        assert "[streamed-hash(batch=3):" in report
        assert "peak_pairs=" in report


class TestLeafCostEstimate:
    def test_auto_prices_a_narrow_order_read_like_cost(self):
        """Under ``auto`` a narrow leaf over a large table costs the rows
        its value-order read considers, exactly as under ``cost``, not
        the table's whole history."""
        rows, width = 200_000, 512
        estimates = {}
        for mode in ("auto", "cost"):
            cat = Catalog(plan=mode)
            table = cat.create_table("u", ["a"])
            rng = np.random.default_rng(0)
            for epoch in range(20):
                table.insert_batch(epoch, {"a": rng.integers(0, 1 << 20, rows // 20)})
            node = TableScanNode("u", 1_000, 1_000 + width)
            assert cat.planner("u").plan(node._predicate("a")).mode == "scan"
            estimates[mode] = node.estimate_cost(cat)
        assert estimates["auto"] == estimates["cost"]
        assert 0 < estimates["auto"] < rows / 100


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


class _KeyRows(PlanNode):
    """A leaf streaming ``(key, row number)`` rows in pieces of five.

    Row ``i`` is forgotten when ``i % period == 0``, so both sides'
    flags reach the join output.
    """

    def __init__(self, keys, period: int):
        keys = np.asarray(keys, dtype=np.int64)
        self.rows = np.column_stack([keys, np.arange(keys.size, dtype=np.int64)])
        self.flags = np.arange(keys.size) % period == 0

    def result(self) -> NodeResult:
        return NodeResult(self.output_columns(), self.rows, self.flags)

    def _stream(self, ctx):
        for start in range(0, self.rows.shape[0], 5):
            yield self.rows[start : start + 5], self.flags[start : start + 5]

    def output_columns(self):
        return ("value", "epoch")

    def estimate_rows(self, catalog):
        return float(self.rows.shape[0])

    def estimate_cost(self, catalog):
        return float(self.rows.shape[0])

    def describe(self, catalog=None):
        return "KeyRows"


def _nested_loop_pairs(left: _KeyRows, right: _KeyRows):
    """Every (left row, right row) pair with equal keys, left-major.

    The inner loop is one vectorized equality per left row, so a large
    build side stays cheap; an equality test cannot overflow.
    """
    rows, flags = [], []
    for i, key in enumerate(left.rows[:, 0].tolist()):
        for j in np.flatnonzero(right.rows[:, 0] == key).tolist():
            rows.append(left.rows[i].tolist() + right.rows[j].tolist())
            flags.append(bool(left.flags[i] or right.flags[j]))
    return rows, flags


def _check_join_kernels(lkeys, rkeys) -> None:
    """``combine``, ``_stream`` and ``_stream_merge`` against the oracle."""
    left, right = _KeyRows(lkeys, 3), _KeyRows(rkeys, 2)
    rows, flags = _nested_loop_pairs(left, right)
    node = JoinNode(left, right, on="value")
    got = node.combine((left.result(), right.result()))
    assert (got.rows.tolist(), got.forgotten.tolist()) == (rows, flags)
    for batch in (1, 7, 4096):
        pieces = list(node._stream(_StreamContext({}, batch)))
        assert all(r.shape[0] <= batch * max(len(rkeys), 1) for r, _ in pieces)
        assert [row for r, _ in pieces for row in r.tolist()] == rows
        assert [f for _, fs in pieces for f in fs.tolist()] == flags
    # The merge emits key order, then left row, then right row.
    by_key = sorted(
        range(len(rows)), key=lambda n: (rows[n][0], rows[n][1], rows[n][3])
    )
    pieces = list(node._stream_merge(_StreamContext({}, 7)))
    assert [row for r, _ in pieces for row in r.tolist()] == [rows[n] for n in by_key]
    assert [f for _, fs in pieces for f in fs.tolist()] == [flags[n] for n in by_key]


@st.composite
def join_keys(draw):
    """A build side of ``n`` keys spanning exactly ``span`` values from
    ``low``, and probe keys mixing build keys, their neighbours and
    arbitrary int64s (far outside the build range, INT64_MIN/MAX)."""
    n = draw(st.integers(0, 30))
    span = draw(
        st.one_of(
            st.integers(1, 200),
            st.sampled_from(
                [
                    1,  # a single repeated key
                    DENSE_ROWS * n + DENSE_SLACK,  # the dense limit
                    DENSE_ROWS * n + DENSE_SLACK + 1,  # one past it
                    NARROW_SPAN - 1,
                    NARROW_SPAN,
                    NARROW_SPAN + 1,
                    2**40,
                    2**63,
                    2**64,  # every int64
                ]
            ),
        )
    )
    low = draw(
        st.sampled_from([0, -1_000, -(2**62), 2**62, INT64_MIN, INT64_MAX])
    )
    low = max(INT64_MIN, min(low, INT64_MAX - span + 1))
    high = low + span - 1
    inner = st.integers(low, high)
    if n == 0:
        build = []
    elif n == 1:
        build = [draw(inner) if span == 1 else low]
    else:
        rest = draw(
            st.lists(
                st.one_of(inner, st.sampled_from([low, high])),
                min_size=n - 2,
                max_size=n - 2,
            )
        )
        build = draw(st.permutations([low, high] + rest))
    edges = [low - 1, low, high, high + 1, INT64_MIN, INT64_MAX, 0, -1, 2**62]
    probe = draw(
        st.lists(
            st.one_of(
                st.sampled_from(build) if build else st.nothing(),
                st.sampled_from([k for k in edges if INT64_MIN <= k <= INT64_MAX]),
                st.integers(INT64_MIN, INT64_MAX),
                inner,
            ),
            max_size=30,
        )
    )
    return probe, build


class TestJoinKernels:
    """The build-side lookup — dense prefix table or binary search —
    against a nested-loop oracle, through every join path."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(join_keys())
    @example(([], []))
    @example(([1, 2], []))
    @example(([], [1, 2]))
    @example(([5, 5, 4], [5, 5, 5]))
    @example(([INT64_MIN, INT64_MAX, 0], [INT64_MIN, INT64_MAX, INT64_MAX]))
    @example(([INT64_MIN, INT64_MAX, -1], [-1, -1, 0, 1]))
    def test_kernels_match_nested_loop(self, keys):
        _check_join_kernels(*keys)

    @pytest.mark.parametrize(
        "span", [NARROW_SPAN - 1, NARROW_SPAN, NARROW_SPAN + 1]
    )
    def test_dense_build_across_the_radix_limit(self, span):
        """A build side of 16,368 keys reaches the dense limit at
        exactly 2¹⁶ values: below it the order is radix-sorted, at it
        the order is an int64 sort, one past it the lookup is sparse."""
        rows = (NARROW_SPAN - DENSE_SLACK) // DENSE_ROWS
        rng = np.random.default_rng(span)
        low = -(2**62)
        build = rng.integers(low, low + span, rows)
        build[:2] = (low, low + span - 1)
        probe = np.concatenate(
            [rng.choice(build, 150), rng.integers(low - 5, low + span + 5, 50)]
        )
        assert (_sort_build(build).prefix is not None) == (
            span <= DENSE_ROWS * rows + DENSE_SLACK
        )
        _check_join_kernels(probe, build)
        # And with the sides swapped: a narrow probe-side stable order.
        _check_join_kernels(build[:200], probe)


def _loop_mass(dist, low, high):
    """The per-interval mass ``_KeyDistribution`` computed before its
    broadcast: the oracle for :meth:`_KeyDistribution.masses`."""
    if dist._low is not None:
        low = max(low, dist._low)
        high = min(high, dist._high)
    if high <= low:
        return 0.0
    return dist._active.mass(low, high) + dist._forgotten.mass(low, high)


def _loop_estimate(left, right):
    """The bin-by-bin join estimate the broadcast replaced."""
    edges = left.edges()
    total = 0.0
    for e0, e1 in zip(edges[:-1].tolist(), edges[1:].tolist()):
        l_mass = _loop_mass(left, e0, e1)
        if l_mass <= 0.0:
            continue
        r_mass = _loop_mass(right, e0, e1)
        if r_mass <= 0.0:
            continue
        total += l_mass * r_mass / max(e1 - e0, 1.0)
    return total


@pytest.mark.parametrize("seed", range(4))
def test_broadcast_join_estimate_equals_the_bin_loop(seed):
    """The broadcast estimate is bit-identical to the loop over bins,
    across bin counts on both sides of numpy's 8- and 128-wide
    summation blocks, clipped and unclipped scans and empty sides."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        sides = []
        for _ in range(2):
            lo = int(rng.integers(-(10**6), 10**6))
            hi = lo + int(rng.integers(0, 10 ** int(rng.integers(1, 8))))
            bins = int(rng.choice([1, 7, 8, 9, 64, 127, 128, 129, 200]))
            rows = int(rng.integers(0, 3_000))
            active = EquiWidthHistogram.from_values(
                rng.integers(lo, hi + 1, rows), lo, hi, bins
            )
            forgotten = EquiWidthHistogram.from_values(
                rng.integers(lo, hi + 1, rows // 3), lo, hi, bins
            )
            low = high = None
            if rng.random() < 0.5:
                low = int(rng.integers(lo - 100, hi + 100))
                high = low + int(rng.integers(-10, hi - lo + 200))
            sides.append(_KeyDistribution(active, forgotten, low, high))
        assert _estimate_equijoin(*sides) == _loop_estimate(*sides)
