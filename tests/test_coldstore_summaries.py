"""Tests for repro.coldstore and repro.summaries."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util.errors import ColdStoreError, ConfigError, LifecycleError
from repro.coldstore import GLACIER_2016, ColdStore, StorageCostModel
from repro.query import AggregateFunction
from repro.stats import ExactMoments
from repro.summaries import SummaryStore

_TB = 1024.0**4


class TestCostModel:
    def test_paper_prices(self):
        assert GLACIER_2016.cold_storage_usd_per_tb_year == 48.0
        assert GLACIER_2016.cold_retrieval_usd_per_tb == 30.0
        assert GLACIER_2016.cold_retrieval_latency_hours == 12.0

    def test_storage_cost_scales(self):
        model = StorageCostModel()
        assert model.cold_storage_cost(int(_TB), 1.0) == pytest.approx(48.0)
        assert model.cold_storage_cost(int(_TB) // 2, 2.0) == pytest.approx(48.0)
        assert model.hot_storage_cost(int(_TB), 1.0) == pytest.approx(360.0)

    def test_retrieval_cost(self):
        model = StorageCostModel()
        assert model.cold_retrieval_cost(int(_TB)) == pytest.approx(30.0)
        assert model.hot_retrieval_cost(int(_TB)) == 0.0

    def test_breakeven(self):
        model = StorageCostModel()
        # (360 - 48) / 30 = 10.4 full reads per year.
        assert model.breakeven_reads_per_year() == pytest.approx(10.4)

    def test_breakeven_free_retrieval(self):
        model = StorageCostModel(cold_retrieval_usd_per_tb=0.0)
        assert model.breakeven_reads_per_year() == float("inf")

    def test_validation(self):
        with pytest.raises(ConfigError):
            StorageCostModel(cold_storage_usd_per_tb_year=-1.0)
        with pytest.raises(ConfigError):
            StorageCostModel(hot_storage_usd_per_tb_year=0.0)


class TestColdStore:
    def test_archive_and_retrieve(self):
        store = ColdStore()
        store.archive(1, np.array([3, 4]), {"a": np.array([30, 40])})
        store.archive(2, np.array([9]), {"a": np.array([90])})
        assert store.segment_count == 2
        assert store.tuple_count == 3
        out = store.retrieve(np.array([9, 3]))
        assert out["a"].tolist() == [90, 30]

    def test_contains(self):
        store = ColdStore()
        store.archive(1, np.array([5]), {"a": np.array([50])})
        assert store.contains(np.array([5, 6])).tolist() == [True, False]

    def test_double_archive_rejected(self):
        store = ColdStore()
        store.archive(1, np.array([5]), {"a": np.array([50])})
        with pytest.raises(ColdStoreError):
            store.archive(2, np.array([5]), {"a": np.array([50])})

    def test_duplicate_positions_rejected(self):
        with pytest.raises(ColdStoreError):
            ColdStore().archive(1, np.array([5, 5]), {"a": np.array([1, 2])})

    def test_misaligned_values_rejected(self):
        with pytest.raises(ColdStoreError):
            ColdStore().archive(1, np.array([5]), {"a": np.array([1, 2])})

    def test_empty_archive_rejected(self):
        with pytest.raises(ColdStoreError):
            ColdStore().archive(1, np.empty(0, dtype=np.int64), {"a": np.empty(0)})

    def test_missing_retrieve_rejected(self):
        store = ColdStore()
        store.archive(1, np.array([5]), {"a": np.array([50])})
        with pytest.raises(ColdStoreError):
            store.retrieve(np.array([6]))
        with pytest.raises(ColdStoreError):
            store.retrieve(np.empty(0, dtype=np.int64))

    def test_cost_accounting(self):
        store = ColdStore()
        store.archive(1, np.array([1, 2]), {"a": np.array([10, 20])})
        assert store.stored_bytes == 2 * 16  # positions + one column
        assert store.retrieval_cost_so_far() == 0.0
        store.retrieve(np.array([1]))
        assert store.usage.retrieval_ops == 1
        assert store.retrieval_cost_so_far() > 0.0
        assert store.retrieval_latency_so_far() == pytest.approx(12.0)
        assert store.storage_cost(1.0) > 0.0

    def test_archived_values_are_copies(self):
        values = np.array([10, 20])
        store = ColdStore()
        store.archive(1, np.array([1, 2]), {"a": values})
        values[0] = 999
        assert store.retrieve(np.array([1]))["a"][0] == 10


class TestColdStoreLookup:
    """Sorted-array lookups against a per-row reference built here."""

    @pytest.fixture
    def archived(self, rng):
        store = ColdStore()
        reference = {}
        positions = rng.permutation(20_000)[:6_000]
        for epoch, segment in enumerate(np.array_split(positions, 40)):
            a, b = segment * 3 + 1, rng.integers(-(2**40), 2**40, segment.size)
            store.archive(epoch, segment, {"a": a, "b": b})
            reference.update(zip(segment.tolist(), zip(a.tolist(), b.tolist())))
        return store, reference

    def test_retrieve_matches_reference(self, archived, rng):
        store, reference = archived
        keys = np.array(list(reference))
        # Shuffled, duplicated and spanning every segment.
        request = rng.choice(keys, 5_000, replace=True)
        assert np.unique(request).size < request.size
        out = store.retrieve(request)
        assert out["a"].tolist() == [reference[p][0] for p in request.tolist()]
        assert out["b"].tolist() == [reference[p][1] for p in request.tolist()]
        assert store.segment_count == 40
        assert store.tuple_count == len(reference)
        assert store._epochs == list(range(40))

    def test_contains_matches_reference(self, archived, rng):
        store, reference = archived
        request = rng.integers(-5, 20_005, 8_000)
        expected = [p in reference for p in request.tolist()]
        assert store.contains(request).tolist() == expected

    def test_clash_within_batch_rejected(self, archived):
        store, _ = archived
        fresh = np.array([20_001, 20_002, 20_001])
        with pytest.raises(ColdStoreError, match="distinct"):
            store.archive(99, fresh, {"a": fresh, "b": fresh})
        assert not store.contains(fresh).any()
        assert store.segment_count == 40

    def test_clash_across_batches_names_first_positions(self, archived):
        store, reference = archived
        taken = [p for p in range(20_000) if p in reference][:7]
        request = np.array([20_003, *taken[::-1]])
        with pytest.raises(ColdStoreError) as err:
            store.archive(99, request, {"a": request, "b": request})
        assert str(taken[::-1][:5]) in str(err.value)
        assert not store.contains(np.array([20_003])).any()
        assert store.tuple_count == len(reference)

    def test_missing_retrieve_names_first_positions(self, archived):
        store, reference = archived
        absent = [p for p in range(20_000) if p not in reference][:6]
        request = np.array([next(iter(reference)), *absent])
        with pytest.raises(ColdStoreError) as err:
            store.retrieve(request)
        assert str(absent[:5]) in str(err.value)
        assert store.usage.retrieval_ops == 0

    def test_segments_share_columns(self):
        store = ColdStore()
        store.archive(1, np.array([1]), {"a": np.array([10])})
        with pytest.raises(ColdStoreError, match="columns"):
            store.archive(2, np.array([2]), {"b": np.array([20])})
        assert store.segment_count == 1


class TestSummaryStore:
    def test_accumulation(self):
        store = SummaryStore()
        store.add(1, {"a": np.array([1, 3])})
        store.add(2, {"a": np.array([5])})
        assert store.event_count == 2
        assert store.tuple_count == 3
        assert store.combined("a").mean == 3.0
        assert store.nbytes == 2 * 5 * 8

    def test_answers(self):
        store = SummaryStore()
        store.add(1, {"a": np.array([2, 4, 6])})
        assert store.answer(AggregateFunction.AVG, "a") == 4.0
        assert store.answer(AggregateFunction.SUM, "a") == 12.0
        assert store.answer(AggregateFunction.COUNT, "a") == 3.0
        assert store.answer(AggregateFunction.MIN, "a") == 2.0
        assert store.answer(AggregateFunction.MAX, "a") == 6.0
        assert store.answer(AggregateFunction.VAR, "a") == pytest.approx(
            np.array([2, 4, 6]).var()
        )

    def test_single_event_moments(self):
        store = SummaryStore()
        store.add(1, {"a": np.array([1, 3, 5])})
        summary = store.combined("a")
        assert summary.count == 3
        assert summary.total == 9
        assert summary.mean == 3.0
        assert summary.min == 1 and summary.max == 5
        assert summary == ExactMoments.of(np.array([1, 3, 5]))

    def test_two_events_match_concat(self, rng):
        x = rng.integers(0, 100, 500)
        y = rng.integers(50, 400, 300)
        store = SummaryStore()
        store.add(1, {"a": x})
        store.add(2, {"a": y})
        assert store.combined("a") == ExactMoments.of(np.concatenate([x, y]))

    def test_combined_leaves_stored_moments_alone(self):
        store = SummaryStore()
        store.add(1, {"a": np.array([1, 2])})
        store.add(2, {"a": np.array([7])})
        store.combined("a").merge(ExactMoments.of(np.array([100])))
        store.combined_with_active(AggregateFunction.SUM, "a", np.array([50]))
        assert [e.columns["a"].count for e in store.events()] == [2, 1]
        assert store.answer(AggregateFunction.SUM, "a") == 10.0

    def test_empty_values_rejected(self):
        with pytest.raises(LifecycleError):
            SummaryStore().add(1, {"a": np.empty(0, dtype=np.int64)})

    def test_combined_with_active_exact(self, rng):
        forgotten = rng.integers(0, 1000, 400)
        active = rng.integers(0, 1000, 600)
        store = SummaryStore()
        store.add(1, {"a": forgotten})
        union = np.concatenate([forgotten, active])
        for fn in (AggregateFunction.AVG, AggregateFunction.SUM,
                   AggregateFunction.MIN, AggregateFunction.MAX,
                   AggregateFunction.COUNT, AggregateFunction.VAR,
                   AggregateFunction.STD):
            expected = fn.from_moments(ExactMoments.of(union))
            assert store.combined_with_active(fn, "a", active) == pytest.approx(
                expected
            ), fn

    def test_combined_with_active_no_summaries(self):
        store = SummaryStore()
        active = np.array([1, 2, 3])
        assert store.combined_with_active(
            AggregateFunction.AVG, "a", active
        ) == pytest.approx(2.0)

    def test_combined_with_empty_active(self):
        store = SummaryStore()
        store.add(1, {"a": np.array([4, 8])})
        out = store.combined_with_active(
            AggregateFunction.AVG, "a", np.empty(0, dtype=np.int64)
        )
        assert out == 6.0

    def test_missing_column(self):
        store = SummaryStore()
        with pytest.raises(LifecycleError):
            store.combined("a")

    def test_mismatched_column_counts_rejected(self):
        with pytest.raises(LifecycleError):
            SummaryStore().add(
                1, {"a": np.array([1, 2]), "b": np.array([1])}
            )

    def test_empty_event_rejected(self):
        with pytest.raises(LifecycleError):
            SummaryStore().add(1, {})


class TestExactSummaries:
    """Float Σx² lost VAR on large offsets and depended on event splits."""

    @pytest.fixture
    def values(self):
        return 10**9 + np.random.default_rng(0).integers(0, 100, 100_000)

    def test_var_std_exact(self, values):
        store = SummaryStore()
        store.add(1, {"a": values})
        exact = ExactMoments.of(values)
        assert store.answer(AggregateFunction.VAR, "a") == exact.variance
        assert store.answer(AggregateFunction.STD, "a") == exact.std
        assert round(exact.variance, 2) == 831.42

    def test_event_split_is_bit_identical(self, values):
        one, fifty = SummaryStore(), SummaryStore()
        one.add(0, {"a": values})
        for epoch, chunk in enumerate(np.array_split(values, 50)):
            fifty.add(epoch, {"a": chunk})
        active = values[:1_000]
        for fn in AggregateFunction:
            assert one.answer(fn, "a") == fifty.answer(fn, "a"), fn
            assert one.combined_with_active(
                fn, "a", active
            ) == fifty.combined_with_active(fn, "a", active), fn
