"""Tests for repro.storage.compressed: the compressed cohort store."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro._util.errors import StorageError
from repro.storage import CohortZoneMap, CompressedCohortStore, Table
from repro.storage.compressed import DECODE_FACTORS


def make_table(batches):
    """A table with one int column 'a' and one cohort per batch."""
    table = Table("t", ["a"])
    for epoch, values in enumerate(batches):
        table.insert_batch(epoch, {"a": np.asarray(values, dtype=np.int64)})
    return table


@pytest.fixture
def store():
    """Three demoted cohorts with distinct codec-friendly shapes."""
    table = make_table(
        [
            np.repeat([5, 9], 50),                   # rle-friendly
            np.arange(1_000_000, 1_000_100),         # for-friendly
            np.tile([3, 17, 99], 40),                # dict-friendly
        ]
    )
    s = CompressedCohortStore(table, min_age=1)
    s.demote_cold(current_epoch=3)
    return s


class TestConstruction:
    def test_validates_columns(self):
        table = make_table([np.arange(10)])
        with pytest.raises(StorageError):
            CompressedCohortStore(table, columns=["missing"])
        with pytest.raises(StorageError):
            CompressedCohortStore(table, columns=[])

    def test_validates_min_age(self):
        table = make_table([np.arange(10)])
        with pytest.raises(StorageError):
            CompressedCohortStore(table, min_age=0)

    def test_covers(self, store):
        assert store.covers("a")
        assert not store.covers("b")


class TestDemotion:
    def test_demote_cold_uses_age_rule(self):
        table = make_table([np.arange(10)] * 4)  # epochs 0..3
        s = CompressedCohortStore(table, min_age=2)
        assert s.demote_cold(current_epoch=3) == 2  # epochs 0 and 1
        assert s.demoted_count == 2
        # Re-running at the same epoch is a no-op.
        assert s.demote_cold(current_epoch=3) == 0
        assert s.demote_cold(current_epoch=4) == 1  # epoch 2 goes cold

    def test_demote_is_idempotent(self, store):
        generation = store.generation
        assert store.demote(0) is False
        assert store.generation == generation

    def test_demote_skips_empty_cohorts(self):
        table = make_table([np.arange(10), np.empty(0, dtype=np.int64)])
        s = CompressedCohortStore(table, min_age=1)
        assert s.demote_cold(current_epoch=5) == 1
        assert s.demoted_count == 1

    def test_generation_bumps_on_demotion(self):
        table = make_table([np.arange(10), np.arange(10)])
        s = CompressedCohortStore(table, min_age=1)
        g0 = s.generation
        s.demote_cold(current_epoch=2)
        assert s.generation > g0

    def test_demoted_rows(self, store):
        assert store.demoted_rows == 100 + 100 + 120

    def test_negative_ordinal_names_the_same_cohort(self):
        table = make_table([np.arange(10), np.arange(10)])
        s = CompressedCohortStore(table, min_age=1)
        assert s.demote(-1) is True
        assert s.demote(1) is False
        assert s.block_at(10, 20, "a")[0] == 1
        with pytest.raises(IndexError):
            s.demote(2)


class TestDemotionWatermark:
    def test_demote_cold_resumes_where_it_stopped(self, monkeypatch):
        table = make_table([np.arange(10)] * 6)  # epochs 0..5
        s = CompressedCohortStore(table, min_age=2)
        calls = []
        demote = CompressedCohortStore.demote
        monkeypatch.setattr(
            CompressedCohortStore,
            "demote",
            lambda self, k: calls.append(k) or demote(self, k),
        )
        assert s.demote_cold(current_epoch=3) == 2
        assert calls == [0, 1]
        assert s.demote_cold(current_epoch=3) == 0
        assert calls == [0, 1]  # nothing passed the watermark again
        assert s.demote_cold(current_epoch=5) == 2
        assert calls == [0, 1, 2, 3]

    def test_direct_demote_ahead_of_the_watermark(self):
        table = make_table([np.arange(10)] * 4)
        s = CompressedCohortStore(table, min_age=2)
        assert s.demote(2) is True  # warm, demoted by hand
        assert s.demote_cold(current_epoch=4) == 2  # 0 and 1; 2 is done
        assert s.demoted_count == 3

    def test_restored_store_demotes_like_the_live_one(self):
        """Same cohorts at the same epochs, before and after a round trip."""
        rng = np.random.default_rng(7)
        table = Table("t", ["a"])
        live = CompressedCohortStore(table, min_age=3)
        restored = None
        live_log, restored_log = [], []
        for epoch in range(30):
            rows = 0 if epoch % 7 == 3 else int(rng.integers(1, 40))
            table.insert_batch(epoch, {"a": rng.integers(0, 1000, rows)})
            if epoch == 12:
                live.demote(epoch)  # a direct demotion of a warm cohort
            if epoch == 14:
                restored = CompressedCohortStore(table, min_age=3)
                restored.load_state(live.state())
            stores = [(live, live_log)]
            if restored is not None:
                stores.append((restored, restored_log))
            for store, log in stores:
                before = set(_demoted(store))
                store.demote_cold(epoch)
                if epoch >= 14:
                    log.append((epoch, sorted(set(_demoted(store)) - before)))
        assert live_log == restored_log
        assert _demoted(live) == _demoted(restored)
        assert any(demoted for _, demoted in live_log)
        assert np.array_equal(
            live.decode_surcharge("a"), restored.decode_surcharge("a")
        )


def _demoted(store) -> list[int]:
    """Ordinals of the cohorts ``store`` holds in compressed form."""
    return [
        ordinal
        for ordinal, cohort in enumerate(store.table.cohorts)
        if store.block_at(cohort.start, cohort.stop, "a") is not None
    ]


class TestLookup:
    def test_block_at_exact_span(self, store):
        cohort = store.table.cohorts[1]
        found = store.block_at(cohort.start, cohort.stop, "a")
        assert found is not None
        ordinal, block = found
        assert ordinal == 1
        assert block.n_values == cohort.size

    def test_block_at_misses(self, store):
        cohort = store.table.cohorts[1]
        # Wrong stop, unknown start, uncovered column: all miss.
        assert store.block_at(cohort.start, cohort.stop - 1, "a") is None
        assert store.block_at(cohort.start + 1, cohort.stop, "a") is None
        assert store.block_at(cohort.start, cohort.stop, "b") is None

    def test_bounds_are_exact(self, store):
        for ordinal, cohort in enumerate(store.table.cohorts):
            window = store.table.values("a")[cohort.start : cohort.stop]
            assert store.bounds_at(ordinal, "a") == (
                int(window.min()),
                int(window.max()),
            )


class TestRangeMask:
    """Direct predicate evaluation must match the raw-window oracle."""

    PROBES = [
        (0, 1),                    # below every block
        (5, 10),                   # inside the rle block
        (9, 10),                   # single value
        (1_000_010, 1_000_050),    # inside the for block
        (3, 100),                  # covers the dict block
        (-(2**62), 2**62),         # huge span (full cover)
        (2**62, 2**63),            # above every block
    ]

    @pytest.mark.parametrize("low,high", PROBES)
    def test_matches_raw_oracle(self, store, low, high):
        for ordinal, cohort in enumerate(store.table.cohorts):
            window = store.table.values("a")[cohort.start : cohort.stop]
            expected = (window >= low) & (window < high)
            got = store.range_mask(ordinal, "a", low, high)
            assert got.dtype == bool
            assert np.array_equal(got, expected)

    def test_quick_reject_and_accept_skip_payload(self, store):
        before = store.stats()["blocks_pruned"]
        assert not store.range_mask(0, "a", 1_000, 2_000).any()  # reject
        assert store.range_mask(0, "a", 0, 1_000).all()          # accept
        assert store.stats()["blocks_pruned"] == before + 2

    def test_partial_probe_counts_direct(self, store):
        before = store.stats()["blocks_direct"]
        store.range_mask(0, "a", 6, 100)  # splits the {5, 9} rle block
        assert store.stats()["blocks_direct"] == before + 1

    def test_wide_domain_for_block(self):
        # A demoted cohort spanning the full int64 domain: the offset
        # shift must survive spreads >= 2**63 (the PR 9 bugfix) and the
        # upper bound may exceed the reference by the full span.
        table = make_table([[-(2**62), 0, 2**62]])
        s = CompressedCohortStore(table, min_age=1)
        s.demote_cold(current_epoch=2)
        window = table.values("a")
        for low, high in [
            (-(2**62), 2**62),
            (-(2**62), 2**62 + 1),
            (0, 2**62 + 1),
            (-(2**63), 2**63 - 1),
        ]:
            expected = (window >= low) & (window < high)
            assert np.array_equal(s.range_mask(0, "a", low, high), expected)


class TestDecode:
    def test_decode_round_trips(self, store):
        for ordinal, cohort in enumerate(store.table.cohorts):
            window = store.table.values("a")[cohort.start : cohort.stop]
            assert np.array_equal(store.decode(ordinal, "a"), window)


class TestDecodePenalty:
    def test_prices_demoted_ranges_only(self, store):
        cohort = store.table.cohorts[1]
        block = store.block_at(cohort.start, cohort.stop, "a")[1]
        factor = DECODE_FACTORS[block.codec_name]
        store.table.insert_batch(3, {"a": np.arange(100)})  # warm, raw
        surcharge = store.decode_surcharge("a")
        sizes = np.array([c.size for c in store.table.cohorts])
        priced = np.array([False, True, False, True])
        expected = cohort.size * (factor - 1.0)
        assert surcharge[3] == 0.0
        assert (sizes * surcharge)[priced].sum() == pytest.approx(expected)

    def test_zero_without_demotions(self):
        table = make_table([np.arange(10)])
        s = CompressedCohortStore(table)
        assert s.decode_surcharge("a").tolist() == [0.0]

    def test_every_codec_priced(self):
        cohorts = [(shape, 200) for shape in _SHAPES]
        table, _, store = _priced_store(cohorts, 0, range(4))
        codecs = {
            store.block_at(c.start, c.stop, "a")[1].codec_name
            for c in table.cohorts
        }
        assert codecs == set(DECODE_FACTORS)
        surcharge = store.decode_surcharge("a")
        assert sorted(surcharge.tolist()) == sorted(
            factor - 1.0 for factor in DECODE_FACTORS.values()
        )

    def test_none_for_uncompressed_column(self):
        table = Table("t", ["a", "b"])
        table.insert_batch(0, {"a": np.arange(10), "b": np.arange(10)})
        s = CompressedCohortStore(table, columns=["a"], min_age=1)
        s.demote_cold(current_epoch=1)
        assert s.decode_surcharge("b") is None
        assert s.decode_surcharge("a")[0] > 0.0


#: Cohort shapes ``best_codec`` encodes as rle, dict, for and raw once a
#: cohort holds 200 rows; smaller cohorts may pick another codec.
_SHAPES = ("rle", "dict", "for", "raw")
_INT64 = np.iinfo(np.int64)


def _shaped(rng, shape: str, rows: int) -> np.ndarray:
    if shape == "rle":
        runs = rng.integers(_INT64.min, _INT64.max, 2)
        return np.repeat(runs, -(-rows // 2))[:rows]
    if shape == "dict":
        return rng.choice(rng.integers(_INT64.min, _INT64.max, 3), rows)
    if shape == "for":
        return 10**15 + rng.integers(0, 100, rows)
    return rng.integers(_INT64.min, _INT64.max, rows, endpoint=True)


def _priced_store(cohorts, data_seed, demote):
    """A table of shaped cohorts, a slice forgotten, ``demote`` demoted."""
    rng = np.random.default_rng(data_seed)
    table = Table("t", ["a", "b"])
    zone_map = CohortZoneMap(table)
    for epoch, (shape, rows) in enumerate(cohorts):
        values = _shaped(rng, shape, rows)
        table.insert_batch(epoch, {"a": values, "b": values[::-1].copy()})
    if table.total_rows:
        forget = rng.random(table.total_rows) < rng.random()
        table.forget(np.flatnonzero(forget), epoch=len(cohorts))
    store = CompressedCohortStore(table, columns=["a"], min_age=1)
    for ordinal in demote:
        store.demote(ordinal)
    return table, zone_map, store


def _per_range_penalty(store, ranges, column: str) -> float:
    """The reference price: one ``block_at`` per candidate range."""
    penalty = 0.0
    for start, stop in ranges:
        found = store.block_at(start, stop, column)
        if found is not None:
            factor = DECODE_FACTORS.get(found[1].codec_name, 1.0)
            penalty += (stop - start) * (factor - 1.0)
    return penalty


class TestVectorizedSurcharge:
    @seed(20170108)
    @settings(max_examples=60, deadline=None)
    @given(
        cohorts=st.lists(
            st.tuples(st.sampled_from(_SHAPES), st.integers(0, 200)),
            min_size=1,
            max_size=12,
        ),
        data_seed=st.integers(0, 2**32 - 1),
        demote_bits=st.integers(0, 2**12 - 1),
        probes=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=6,
        ),
    )
    @example(
        cohorts=[(shape, 200) for shape in _SHAPES],
        data_seed=0,
        demote_bits=0b1111,
        probes=[(0.0, 1.0), (0.5, 0.7)],
    )
    def test_matches_per_range_block_lookup(
        self, cohorts, data_seed, demote_bits, probes
    ):
        """Vectorized decode surcharge == the per-range block_at sum, exactly.

        Over random cohort layouts (empty cohorts included), forget
        patterns and demotion sets, and again after a ``state()`` ->
        ``load_state`` round trip.
        """
        demote = [k for k in range(len(cohorts)) if demote_bits >> k & 1]
        table, zone_map, store = _priced_store(cohorts, data_seed, demote)
        restored = CompressedCohortStore(table, columns=["a"], min_age=1)
        restored.load_state(store.state())
        values = np.sort(table.values("a"))
        for lo_q, hi_q in probes:
            if values.size:
                low = int(values[int(lo_q * (values.size - 1))])
                high = int(values[int(hi_q * (values.size - 1))]) + 1
            else:
                low, high = 0, 1
            for column in ("a", "b"):
                ranges = zone_map.candidate_ranges(column, low, high)
                for s in (store, restored):
                    rows, count, decode = zone_map.walk_cost(
                        column, low, high, compressed=s
                    )
                    assert decode == _per_range_penalty(s, ranges, column)
                    assert rows == sum(stop - start for start, stop in ranges)
                    assert count == len(ranges)


class TestAccounting:
    def test_byte_report(self, store):
        report = store.byte_report()
        assert report["demoted_cohorts"] == 3
        assert report["demoted_rows"] == store.demoted_rows
        assert report["compressed_nbytes"] == store.compressed_nbytes()
        assert report["raw_nbytes_covered"] == store.demoted_rows * 8
        assert 0 < report["ratio"] < 1  # these shapes all compress
        assert report["bytes_per_row"] < 8

    def test_empty_report(self):
        table = make_table([np.arange(10)])
        report = CompressedCohortStore(table).byte_report()
        assert report["demoted_cohorts"] == 0
        assert report["ratio"] == 1.0
        assert report["bytes_per_row"] == 0.0

    def test_stats_counts_codecs(self, store):
        stats = store.stats()
        assert sum(stats["codecs"].values()) == 3
        assert stats["columns"] == ["a"]
        assert stats["min_age"] == 1


class TestPersistence:
    def test_state_round_trip(self, store):
        records = store.state()
        restored = CompressedCohortStore(store.table, min_age=1)
        restored.load_state(records)
        assert restored.demoted_count == store.demoted_count
        assert restored.demoted_rows == store.demoted_rows
        assert restored.compressed_nbytes() == store.compressed_nbytes()
        for ordinal, cohort in enumerate(store.table.cohorts):
            assert np.array_equal(
                restored.decode(ordinal, "a"), store.decode(ordinal, "a")
            )
            assert restored.bounds_at(ordinal, "a") == store.bounds_at(
                ordinal, "a"
            )
            found = restored.block_at(cohort.start, cohort.stop, "a")
            assert found is not None
            window = store.table.values("a")[cohort.start : cohort.stop]
            expected = (window >= 5) & (window < 1_000_050)
            assert np.array_equal(
                restored.range_mask(ordinal, "a", 5, 1_000_050), expected
            )

    def test_load_state_bumps_generation(self, store):
        restored = CompressedCohortStore(store.table, min_age=1)
        g0 = restored.generation
        restored.load_state(store.state())
        assert restored.generation > g0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("ordinal", 3),
            ("ordinal", -1),
            ("ordinal", 1),
            ("start", 1),
            ("stop", 99),
            ("n_values", 99),
        ],
        ids=[
            "ordinal-past-the-log",
            "negative-ordinal",
            "ordinal-of-another-cohort",
            "start",
            "stop",
            "n-values",
        ],
    )
    def test_load_state_refuses_a_record_off_its_cohort(self, store, field, value):
        """A block record must name a cohort of the replayed table and
        agree with its span and size; it is never installed as it is."""
        records = store.state()
        records[0]["scalars"][field] = value
        restored = CompressedCohortStore(store.table, min_age=1)
        with pytest.raises(StorageError, match="does not match cohort"):
            restored.load_state(records)
