"""Tests for table/store checkpointing (repro.storage.io)."""

from __future__ import annotations

import json
import re
import zipfile
import zlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AmnesiaDatabase
from repro._util.errors import StorageError
from repro.amnesia.registry import POLICY_NAMES, make_policy
from repro.partitioning import PartitionedAmnesiaDatabase
from repro.storage import (
    Catalog,
    Table,
    load_store,
    load_table,
    save_store,
    save_table,
)


def _make_policy(name):
    kwargs = {"column": "k"} if name in ("pair", "dist", "stratified") else {}
    return make_policy(name, **kwargs)


def _table_fingerprint(table):
    """Every persisted observable of a table, as comparable lists."""
    return {
        "name": table.name,
        "columns": table.column_names,
        "values": {
            name: table.values(name).tolist() for name in table.column_names
        },
        "active": table.active_mask().tolist(),
        "insert_epochs": table.insert_epochs().tolist(),
        "forgotten_epochs": table.forgotten_epochs().tolist(),
        "access_counts": table.access_counts().tolist(),
        "last_access": table.last_access_epochs().tolist(),
        "cohorts": table.cohorts.epochs(),
        "cohort_activity": table.cohort_activity(),
    }


@pytest.fixture
def rich_table(rng):
    """A table with several cohorts, forgets and access counts."""
    table = Table("events", ["k", "v"])
    for epoch in range(4):
        table.insert_batch(
            epoch,
            {
                "k": rng.integers(0, 100, 50),
                "v": rng.integers(0, 10_000, 50),
            },
        )
        active = table.active_positions()
        victims = rng.choice(active, 10, replace=False)
        table.forget(victims, epoch=epoch)
        table.record_access(rng.choice(table.active_positions(), 20), epoch)
    return table


class TestRoundTrip:
    def test_everything_survives(self, rich_table, tmp_path):
        path = save_table(rich_table, tmp_path / "t.npz")
        restored = load_table(path)

        assert restored.name == rich_table.name
        assert restored.column_names == rich_table.column_names
        assert restored.total_rows == rich_table.total_rows
        assert restored.active_count == rich_table.active_count
        for name in rich_table.column_names:
            assert np.array_equal(restored.values(name), rich_table.values(name))
        assert np.array_equal(restored.active_mask(), rich_table.active_mask())
        assert np.array_equal(
            restored.insert_epochs(), rich_table.insert_epochs()
        )
        assert np.array_equal(
            restored.forgotten_epochs(), rich_table.forgotten_epochs()
        )
        assert np.array_equal(
            restored.access_counts(), rich_table.access_counts()
        )
        assert np.array_equal(
            restored.last_access_epochs(), rich_table.last_access_epochs()
        )

    def test_cohorts_survive(self, rich_table, tmp_path):
        restored = load_table(save_table(rich_table, tmp_path / "t.npz"))
        assert restored.cohorts.epochs() == rich_table.cohorts.epochs()
        assert restored.cohort_activity() == rich_table.cohort_activity()

    def test_restored_table_is_usable(self, rich_table, tmp_path):
        """A restored table keeps simulating seamlessly."""
        restored = load_table(save_table(rich_table, tmp_path / "t.npz"))
        positions = restored.insert_batch(
            99, {"k": [1, 2], "v": [3, 4]}
        )
        assert positions.size == 2
        restored.forget(positions[:1], epoch=99)
        assert restored.forgotten_epochs()[positions[0]] == 99

    def test_fresh_table_roundtrip(self, tmp_path):
        table = Table("t", ["a"])
        table.insert_batch(0, {"a": [1]})
        restored = load_table(save_table(table, tmp_path / "f.npz"))
        assert restored.total_rows == 1
        assert restored.active_count == 1


@st.composite
def table_histories(draw):
    """A random cohort schedule: (size, forget seed/fraction, accesses)."""
    return draw(
        st.lists(
            st.tuples(
                st.integers(0, 40),       # cohort size (0 = empty batch skip)
                st.integers(0, 2**16),    # forget rng seed
                st.floats(0.0, 0.7),      # forget fraction
                st.floats(0.0, 0.9),      # access fraction
            ),
            min_size=0,
            max_size=6,
        )
    )


class TestRoundTripProperties:
    """Property tests: whatever history a table lived through — any mix
    of cohorts, forgets and access traffic, including the empty and
    single-cohort edges — the checkpoint restores it bit-identically."""

    @given(table_histories())
    @settings(
        max_examples=30,
        deadline=None,
        # tmp_path is function-scoped; the checkpoint file is unlinked
        # after every example, so reuse across examples is safe.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_history_roundtrips(self, tmp_path, history):
        table = Table("events", ["k", "v"])
        for epoch, (size, seed, forget_frac, access_frac) in enumerate(
            history
        ):
            step_rng = np.random.default_rng(seed)
            if size:
                table.insert_batch(
                    epoch,
                    {
                        "k": step_rng.integers(0, 100, size),
                        "v": step_rng.integers(0, 10_000, size),
                    },
                )
            if table.total_rows:
                victims = np.flatnonzero(
                    step_rng.random(table.total_rows) < forget_frac
                )
                table.forget(victims, epoch=epoch)
            active = table.active_positions()
            touched = np.flatnonzero(
                step_rng.random(active.size) < access_frac
            )
            if touched.size:
                table.record_access(active[touched], epoch)
        path = save_table(table, tmp_path / "prop.npz")
        restored = load_table(path)
        assert _table_fingerprint(restored) == _table_fingerprint(table)
        path.unlink()  # hypothesis reuses tmp_path across examples

    def test_empty_table_roundtrips(self, tmp_path):
        table = Table("empty", ["k"])
        restored = load_table(save_table(table, tmp_path / "e.npz"))
        assert _table_fingerprint(restored) == _table_fingerprint(table)
        assert restored.total_rows == 0

    def test_single_cohort_roundtrips(self, tmp_path):
        table = Table("one", ["k"])
        table.insert_batch(3, {"k": [5, 6, 7]})
        restored = load_table(save_table(table, tmp_path / "o.npz"))
        assert _table_fingerprint(restored) == _table_fingerprint(table)
        assert restored.cohorts.epochs() == [3]


class TestDatabaseRoundTrip:
    """save_store/load_store on the single-table amnesia facade."""

    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    def test_every_policy_state_roundtrips(self, policy_name, tmp_path):
        """Forgotten rows, access metadata and cohort history restore
        bit-identically whatever amnesia policy produced them."""
        db = AmnesiaDatabase(
            budget=60, policy=_make_policy(policy_name), columns=("k",), seed=11
        )
        rng = np.random.default_rng(5)
        for _ in range(4):
            db.insert({"k": rng.integers(0, 500, 25)})
            db.range_query("k", 100, 300)
        path = db.checkpoint(tmp_path / "db.npz")
        restored = load_store(
            path, policy_factory=lambda: _make_policy(policy_name)
        )
        assert isinstance(restored, AmnesiaDatabase)
        assert restored.epoch == db.epoch
        assert restored.budget == db.budget
        assert restored.policy.name == db.policy.name
        assert _table_fingerprint(restored.table) == _table_fingerprint(
            db.table
        )

    @pytest.mark.parametrize("policy_name", ("fifo", "rot", "uniform"))
    def test_restored_run_continues_bit_identically(
        self, policy_name, tmp_path
    ):
        """Stateless policies resume exactly — including randomized
        ones, whose victim-selection stream position is checkpointed:
        the restored database answers every later query like the
        uncheckpointed original."""

        def drive(db, rng):
            observed = []
            for _ in range(3):
                db.insert({"k": rng.integers(0, 500, 30)})
                for low in (0, 150, 350):
                    result = db.range_query("k", low, low + 100)
                    observed.append((result.rf, result.mf, result.precision))
            observed.append(_table_fingerprint(db.table))
            return observed

        db = AmnesiaDatabase(
            budget=50, policy=_make_policy(policy_name), columns=("k",), seed=3
        )
        warm = np.random.default_rng(9)
        for _ in range(3):
            db.insert({"k": warm.integers(0, 500, 30)})
            db.range_query("k", 50, 250)
        path = db.checkpoint(tmp_path / "mid.npz")
        restored = load_store(
            path, policy_factory=lambda: _make_policy(policy_name)
        )
        assert drive(restored, np.random.default_rng(77)) == drive(
            db, np.random.default_rng(77)
        )


class TestShardedRoundTrip:
    """save_store/load_store on the partitioned store (acceptance
    criterion: a checkpoint saved mid-run restores to a store whose
    subsequent query results are bit-identical)."""

    def _build(self, workers=2):
        return PartitionedAmnesiaDatabase(
            "k",
            (0, 250, 500, 1000),
            total_budget=120,
            policy_factory=lambda: _make_policy("fifo"),
            seed=9,
            workers=workers,
            rebalance="adaptive",
            split_threshold=1.5,
            stats="hist",
        )

    def _warm(self, store):
        rng = np.random.default_rng(3)
        for _ in range(4):
            store.insert({"k": rng.integers(-100, 1100, 60)})
            # Heavily skewed toward the low shard so the adaptive
            # rebalances below cut boundaries mid-run.
            for low, width in ((0, 200), (10, 80), (20, 60), (600, 50)):
                store.range_query(low, low + width)
            store.rebalance(floor=5)

    def test_mid_run_checkpoint_continues_bit_identically(self, tmp_path):
        store = self._build()
        self._warm(store)
        assert any("split shard" in e for e in store.adaptations)
        path = store.checkpoint(tmp_path / "store.npz")
        restored = load_store(
            path, policy_factory=lambda: _make_policy("fifo")
        )

        assert restored.boundaries == store.boundaries
        assert restored.adaptations == store.adaptations
        assert restored.ingest_epoch == store.ingest_epoch
        for got, want in zip(restored.partitions, store.partitions):
            assert (got.low, got.high, got.budget) == (
                want.low, want.high, want.budget,
            )
            assert (got.query_hits, got.query_rows) == (
                want.query_hits, want.query_rows,
            )
            assert _table_fingerprint(got.db.table) == _table_fingerprint(
                want.db.table
            )

        def drive(target):
            rng = np.random.default_rng(41)
            observed = []
            for _ in range(3):
                target.insert({"k": rng.integers(-100, 1100, 60)})
                for low, width in ((0, 150), (10, 80), (500, 400)):
                    result = target.range_query(low, low + width)
                    observed.append((result.rf, result.mf, result.precision))
                observed.append(target.rebalance(floor=5))
                observed.append(target.boundaries)
            observed.append(target.adaptations)
            for partition in target.partitions:
                observed.append(_table_fingerprint(partition.db.table))
            return observed

        assert drive(restored) == drive(store)
        store.close()
        restored.close()

    def test_checkpoint_publishes_pending_batches(self, tmp_path):
        """Queued-but-unflushed rows are flushed into the checkpoint —
        a restore never resurrects a half-submitted batch."""
        store = self._build()
        store.enqueue({"k": np.arange(100)})
        assert store.pending_batches == 1
        path = store.checkpoint(tmp_path / "pending.npz")
        assert store.pending_batches == 0
        restored = load_store(
            path, policy_factory=lambda: _make_policy("fifo")
        )
        result = restored.range_query(0, 1000)
        assert result.rf + result.mf == 100
        assert restored.ingest_epoch == store.ingest_epoch == 1
        store.close()
        restored.close()


class TestRebalanceReplay:
    """A rebalance replays migrated rows through the same path a load
    replays saved ones, so rebalancing a live store and rebalancing its
    restored checkpoint must save byte-identical members."""

    @staticmethod
    def _members(path):
        with zipfile.ZipFile(path) as bundle:
            return {name: bundle.read(name) for name in bundle.namelist()}

    @pytest.mark.parametrize("compress", ["off", "on"])
    def test_live_and_restored_rebalance_save_identically(
        self, tmp_path, compress
    ):
        store = PartitionedAmnesiaDatabase(
            "k",
            (0, 250, 500, 750, 1000),
            total_budget=160,
            policy_factory=lambda: _make_policy("rot"),
            seed=9,
            plan="cost",
            rebalance="adaptive",
            compress=compress,
        )
        rng = np.random.default_rng(3)
        for _ in range(6):
            store.insert({"k": rng.integers(-100, 1100, 80)})
            # Shard 0 runs hot and splits; the quiet middle pair
            # merges; shard 3 keeps its (queried) rows in place.
            for low, width in ((0, 200), (10, 80), (800, 50)):
                store.range_query(low, low + width)
        if compress == "on":
            assert sum(p.db.compressed.demoted_count for p in store.partitions)
        before = save_store(store, tmp_path / "before.npz")

        store.rebalance(floor=5)
        assert any("split shard" in e for e in store.adaptations)
        assert any("merged shards" in e for e in store.adaptations)
        live = save_store(store, tmp_path / "live.npz")

        restored = load_store(before, policy_factory=lambda: _make_policy("rot"))
        restored.rebalance(floor=5)
        replayed = save_store(restored, tmp_path / "replayed.npz")
        assert self._members(replayed) == self._members(live)
        store.close()
        restored.close()


def _compressed_sharded_store():
    store = PartitionedAmnesiaDatabase(
        "k",
        (0, 250, 500, 1000),
        total_budget=120,
        policy_factory=lambda: _make_policy("fifo"),
        seed=9,
        plan="cost",
        compress="on",
    )
    rng = np.random.default_rng(3)
    for _ in range(5):
        store.insert({"k": rng.integers(-100, 1100, 60)})
        store.range_query(0, 300)
    assert sum(p.db.compressed.demoted_count for p in store.partitions) > 0
    return store


def _compressed_db():
    db = AmnesiaDatabase(
        budget=60,
        policy=_make_policy("fifo"),
        columns=("k",),
        seed=11,
        plan="cost",
        compress="on",
    )
    rng = np.random.default_rng(5)
    for _ in range(5):
        db.insert({"k": rng.integers(0, 500, 25)})
        db.range_query("k", 100, 300)
    assert db.compressed.demoted_count > 0
    return db


class TestCompressedRoundTrip:
    """Checkpoint format v3: compressed blocks restore without
    re-encoding and the restored store answers bit-identically."""

    def test_database_blocks_survive(self, tmp_path):
        db = _compressed_db()
        assert db.compressed is not None and db.compressed.demoted_count > 0
        path = db.checkpoint(tmp_path / "c.npz")
        restored = load_store(
            path, policy_factory=lambda: _make_policy("fifo")
        )
        assert restored.compress_mode == "on"
        assert restored.compressed is not None
        got, want = restored.compressed, db.compressed
        assert got.demoted_count == want.demoted_count
        assert got.compressed_nbytes() == want.compressed_nbytes()
        assert got.byte_report() == want.byte_report()
        for ordinal in range(want.demoted_count):
            assert np.array_equal(
                got.decode(ordinal, "k"), want.decode(ordinal, "k")
            )
            assert got.bounds_at(ordinal, "k") == want.bounds_at(
                ordinal, "k"
            )

    def test_restored_run_continues_bit_identically(self, tmp_path):
        def drive(db, rng):
            observed = []
            for _ in range(3):
                db.insert({"k": rng.integers(0, 500, 25)})
                for low in (0, 150, 350):
                    result = db.range_query("k", low, low + 100)
                    observed.append((result.rf, result.mf, result.precision))
            observed.append(_table_fingerprint(db.table))
            observed.append(db.compressed.demoted_count)
            return observed

        db = _compressed_db()
        path = db.checkpoint(tmp_path / "mid.npz")
        restored = load_store(
            path, policy_factory=lambda: _make_policy("fifo")
        )
        assert drive(restored, np.random.default_rng(77)) == drive(
            db, np.random.default_rng(77)
        )

    def test_sharded_blocks_survive(self, tmp_path):
        store = _compressed_sharded_store()
        path = store.checkpoint(tmp_path / "s.npz")
        restored = load_store(
            path, policy_factory=lambda: _make_policy("fifo")
        )
        assert restored.compress_mode == "on"
        for got, want in zip(restored.partitions, store.partitions):
            g, w = got.db.compressed, want.db.compressed
            assert g.demoted_count == w.demoted_count
            assert g.compressed_nbytes() == w.compressed_nbytes()
        def probe(target):
            out = []
            for low, width in ((0, 150), (10, 80), (500, 400)):
                result = target.range_query(low, low + width)
                out.append((result.rf, result.mf, result.precision))
            return out
        assert probe(restored) == probe(store)
        store.close()
        restored.close()

    def test_compress_off_checkpoints_stay_lean(self, tmp_path):
        """A compress=off database writes no block payloads and
        restores with no store."""
        db = AmnesiaDatabase(
            budget=30, policy=_make_policy("fifo"), columns=("k",), seed=1
        )
        db.insert({"k": np.arange(20)})
        path = db.checkpoint(tmp_path / "off.npz")
        with np.load(path) as bundle:
            assert not [n for n in bundle.files if "cb" in n]
        restored = load_store(
            path, policy_factory=lambda: _make_policy("fifo")
        )
        assert restored.compress_mode == "off"
        assert restored.compressed is None


class TestCatalogRoundTrip:
    def test_catalog_with_sharded_member_roundtrips(self, tmp_path):
        catalog = Catalog(workers=2)
        events = catalog.create_table("events", ["k"])
        rng = np.random.default_rng(19)
        for epoch in range(3):
            events.insert_batch(epoch, {"k": rng.integers(0, 400, 25)})
        events.forget(np.arange(0, 60, 3), epoch=3)
        store = PartitionedAmnesiaDatabase(
            "k",
            (0, 200, 400),
            total_budget=80,
            policy_factory=lambda: _make_policy("fifo"),
            seed=7,
            workers=2,
        )
        catalog.register_sharded("s", store)
        store.insert({"k": rng.integers(0, 400, 50)})

        path = catalog.checkpoint(tmp_path / "cat.npz")
        restored = load_store(
            path, policy_factory=lambda: _make_policy("fifo")
        )
        assert isinstance(restored, Catalog)
        assert sorted(restored.names()) == sorted(catalog.names())
        assert restored.sharded_names() == catalog.sharded_names()
        assert _table_fingerprint(restored.get("events")) == (
            _table_fingerprint(events)
        )
        for spec in ("union:events,s", "join:events,s:on=value"):
            want = catalog.query(spec, epoch=5)
            got = restored.query(spec, epoch=5)
            assert got.rows.tolist() == want.rows.tolist()
            assert got.forgotten.tolist() == want.forgotten.tolist()
        store.close()
        catalog.close()
        restored.close()

    def test_tables_only_catalog_needs_no_factory(self, tmp_path):
        catalog = Catalog()
        t = catalog.create_table("t", ["k"])
        t.insert_batch(0, {"k": [1, 2, 3]})
        restored = load_store(catalog.checkpoint(tmp_path / "c.npz"))
        assert _table_fingerprint(restored.get("t")) == _table_fingerprint(t)
        catalog.close()
        restored.close()

    @staticmethod
    def _modes(catalog):
        return (catalog.plan_mode, catalog.stats_mode, catalog.workers)

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"plan": "cost", "stats": "hist", "workers": 2}],
        ids=["default-before-first-query", "explicit"],
    )
    def test_header_carries_concrete_modes(self, tmp_path, kwargs):
        """A catalog checkpoint records the modes in force at save time
        (a default-built catalog that never planned included)."""
        import json

        catalog = Catalog(**kwargs)
        catalog.create_table("t", ["k"]).insert_batch(0, {"k": [1, 2, 3]})
        path = catalog.checkpoint(tmp_path / "c.npz")
        with np.load(path) as bundle:
            header = json.loads(bytes(bundle["header"].tobytes()).decode())
        assert (header["plan"], header["stats"], header["workers"]) == (
            self._modes(catalog)
        )
        restored = load_store(path)
        assert self._modes(restored) == self._modes(catalog)
        catalog.close()
        restored.close()

    def test_null_modes_from_older_writers_load_as_defaults(self, tmp_path):
        """Format-4 files written before modes were always concrete hold
        ``null`` for an unresolved mode; those load as the literal
        constructor defaults."""
        import json

        catalog = Catalog()
        t = catalog.create_table("t", ["k"])
        t.insert_batch(0, {"k": [1, 2, 3]})
        path = catalog.checkpoint(tmp_path / "c.npz")
        with np.load(path) as bundle:
            arrays = {name: bundle[name] for name in bundle.files}
        header = json.loads(bytes(arrays.pop("header").tobytes()).decode())
        header.update(plan=None, stats=None, workers=None)
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh,
                header=np.frombuffer(json.dumps(header).encode(), np.uint8),
                **arrays,
            )
        restored = load_store(path)
        assert self._modes(restored) == self._modes(Catalog())
        assert _table_fingerprint(restored.get("t")) == _table_fingerprint(t)
        catalog.close()
        restored.close()


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            load_table(tmp_path / "nope.npz")

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, stuff=np.arange(3))
        with pytest.raises(StorageError):
            load_table(path)

    def test_truncated_file_raises_storage_error(self, rich_table, tmp_path):
        """A torn write surfaces as StorageError, not a numpy traceback."""
        path = save_table(rich_table, tmp_path / "torn.npz")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 3])
        with pytest.raises(StorageError, match="not a readable checkpoint"):
            load_store(path)

    def test_corrupt_bytes_raise_storage_error(self, tmp_path):
        path = tmp_path / "noise.npz"
        path.write_bytes(b"\x00\x01garbage" * 40)
        with pytest.raises(StorageError):
            load_store(path)

    def test_old_format_version_is_refused_clearly(self, tmp_path):
        import json

        header = json.dumps({"format_version": 1, "kind": "table"})
        path = tmp_path / "v1.npz"
        np.savez(
            path, header=np.frombuffer(header.encode(), dtype=np.uint8)
        )
        with pytest.raises(StorageError, match="format 1"):
            load_store(path)

    def test_format_2_is_refused_clearly(self, tmp_path):
        """Format 2 predates compressed-block payloads; a v2 file must
        be refused with a re-create hint, not half-restored."""
        import json

        header = json.dumps({"format_version": 2, "kind": "database"})
        path = tmp_path / "v2.npz"
        np.savez(
            path, header=np.frombuffer(header.encode(), dtype=np.uint8)
        )
        with pytest.raises(StorageError, match="format 2"):
            load_store(path)

    def test_load_table_refuses_store_checkpoints(self, tmp_path):
        db = AmnesiaDatabase(
            budget=20, policy=_make_policy("fifo"), columns=("k",), seed=1
        )
        db.insert({"k": [1, 2, 3]})
        path = db.checkpoint(tmp_path / "db.npz")
        with pytest.raises(StorageError):
            load_table(path)

    def test_database_restore_requires_policy_factory(self, tmp_path):
        db = AmnesiaDatabase(
            budget=20, policy=_make_policy("fifo"), columns=("k",), seed=1
        )
        db.insert({"k": [1, 2, 3]})
        path = db.checkpoint(tmp_path / "db.npz")
        with pytest.raises(StorageError, match="policy_factory"):
            load_store(path)

    def test_unknown_store_type_is_refused(self, tmp_path):
        with pytest.raises(StorageError, match="cannot checkpoint"):
            save_store(object(), tmp_path / "x.npz")


class TestSimulatorCheckpoint:
    def test_checkpointed_simulation_state(self, tmp_path):
        """Save mid-run, restore, and verify the amnesia state is intact."""
        from repro import AmnesiaSimulator, SimulationConfig
        from repro.amnesia import RotAmnesia
        from repro.datagen import UniformDistribution

        simulator = AmnesiaSimulator(
            SimulationConfig(dbsize=100, epochs=4, queries_per_epoch=20),
            UniformDistribution(1000),
            RotAmnesia(),
        )
        simulator.load_initial()
        simulator.step()
        simulator.step()

        restored = load_table(save_table(simulator.table, tmp_path / "sim.npz"))
        assert restored.active_count == 100
        assert np.array_equal(
            restored.access_counts(), simulator.table.access_counts()
        )


class TestDurability:
    """Format 4: atomic writes, checksummed manifest, recovery."""

    def _two_state_table(self):
        first = Table("obs", ["a"])
        first.insert_batch(0, {"a": list(range(50))})
        return first

    def test_crash_mid_save_leaves_previous_checkpoint_byte_identical(
        self, tmp_path
    ):
        """The atomic-write regression: a crash injected mid-save (tmp
        written, nothing renamed) must leave the previous checkpoint
        loadable byte-for-byte."""
        from repro import faults

        table = self._two_state_table()
        path = save_table(table, tmp_path / "ck.npz")
        before = path.read_bytes()
        table.insert_batch(1, {"a": list(range(50, 90))})
        with faults.armed("checkpoint.tmp:crash"):
            with pytest.raises(faults.FaultInjected):
                save_table(table, path, rotate=True)
        assert path.read_bytes() == before
        assert load_table(path).total_rows == 50

    @pytest.mark.parametrize(
        "point", ["checkpoint.tmp", "checkpoint.rotate", "checkpoint.done"]
    )
    def test_crash_at_every_checkpoint_point_recovers(self, tmp_path, point):
        """No injected crash can leave a state recover_store refuses to
        load — and what it loads is a complete snapshot (the old or the
        new), never a torn mixture."""
        from repro import faults
        from repro.storage import recover_store

        table = self._two_state_table()
        path = save_table(table, tmp_path / "ck.npz", rotate=True)
        table.insert_batch(1, {"a": list(range(50, 90))})
        with faults.armed(f"{point}:crash"):
            with pytest.raises(faults.FaultInjected):
                save_table(table, path, rotate=True)
        recovered, used = recover_store(path)
        assert recovered.total_rows in (50, 90)
        if point == "checkpoint.tmp":
            # Nothing renamed yet: the primary still holds the old state.
            assert used == path and recovered.total_rows == 50
        if point == "checkpoint.done":
            # Replace happened: the primary holds the new state.
            assert used == path and recovered.total_rows == 90
        if point == "checkpoint.rotate":
            # Between the two renames only .prev is valid — and it is.
            assert used == Path(str(path) + ".prev")
            assert recovered.total_rows == 50

    def test_checksum_mismatch_is_detected_before_replay(self, tmp_path):
        """A silently corrupted array fails the manifest check with a
        'corrupt' diagnostic instead of restoring garbage."""
        import json

        table = self._two_state_table()
        path = save_table(table, tmp_path / "ck.npz")
        with np.load(path) as bundle:
            members = {name: bundle[name] for name in bundle.files}
        members["active"] = ~members["active"]  # bit-flip, header kept
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **members)
        with pytest.raises(StorageError, match="corrupt"):
            load_store(path)

    def test_missing_and_stray_arrays_are_detected(self, tmp_path):
        table = self._two_state_table()
        path = save_table(table, tmp_path / "ck.npz")
        with np.load(path) as bundle:
            members = {name: bundle[name] for name in bundle.files}
        del members["active"]
        members["smuggled"] = np.arange(3)
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **members)
        with pytest.raises(StorageError, match="corrupt"):
            load_store(path)

    def test_recover_falls_back_to_prev_on_torn_primary(self, tmp_path):
        from repro.storage import recover_store

        table = self._two_state_table()
        path = save_table(table, tmp_path / "ck.npz")
        table.insert_batch(1, {"a": [1, 2]})
        save_table(table, path, rotate=True)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # tear the primary
        recovered, used = recover_store(path)
        assert used == Path(str(path) + ".prev")
        assert recovered.total_rows == 50

    def test_recover_falls_back_on_a_short_forgotten_epoch(self, tmp_path):
        """A CRC-valid primary whose ``forgotten_epoch`` member is one
        row short is refused by the replay, so recovery uses ``.prev``
        instead of restoring it."""
        from repro.storage import recover_store

        table = self._two_state_table()
        table.forget(np.arange(10), epoch=1)
        path = save_table(table, tmp_path / "ck.npz")
        table.insert_batch(2, {"a": [1, 2]})
        save_table(table, path, rotate=True)
        _rewrite_member(path, "forgotten_epoch", lambda stamps: stamps[:-1])
        with pytest.raises(StorageError, match="per-row values"):
            load_store(path)
        recovered, used = recover_store(path)
        assert used == Path(str(path) + ".prev")
        assert recovered.total_rows == 50 and recovered.forgotten_count == 10

    def test_recover_failure_lists_every_attempt(self, tmp_path):
        from repro.storage import recover_store

        with pytest.raises(StorageError, match=r"ck\.npz.*ck\.npz\.prev"):
            recover_store(tmp_path / "ck.npz")

    def test_format_3_is_refused_clearly(self, tmp_path):
        """v3 files predate the durability manifest and must be refused
        with a re-create hint, not half-restored."""
        import json

        header = json.dumps({"format_version": 3, "kind": "table"})
        path = tmp_path / "v3.npz"
        np.savez(
            path, header=np.frombuffer(header.encode(), dtype=np.uint8)
        )
        with pytest.raises(StorageError, match="format 3"):
            load_store(path)

    def test_manifest_covers_every_saved_array(self, tmp_path):
        import json

        table = self._two_state_table()
        path = save_table(table, tmp_path / "ck.npz")
        with np.load(path) as bundle:
            header = json.loads(bytes(bundle["header"].tobytes()).decode())
            members = set(bundle.files) - {"header"}
        assert header["format_version"] == 6
        assert set(header["manifest"]) == members

    def test_no_tmp_file_left_behind_on_success(self, tmp_path):
        table = self._two_state_table()
        path = save_table(table, tmp_path / "ck.npz", rotate=True)
        save_table(table, path, rotate=True)
        leftovers = {p.name for p in tmp_path.iterdir()}
        assert leftovers == {"ck.npz", "ck.npz.prev"}

    def test_sharded_store_rotating_save_recovers(self, tmp_path):
        from repro.storage import recover_store

        store = PartitionedAmnesiaDatabase(
            "v", [0, 50, 100], 500, lambda: _make_policy("fifo"), seed=3
        )
        store.insert({"v": np.arange(100)})
        path = save_store(store, tmp_path / "shards.npz", rotate=True)
        store.insert({"v": np.arange(100)})
        save_store(store, path, rotate=True)
        recovered, used = recover_store(
            path, lambda: _make_policy("fifo")
        )
        assert used == path
        assert recovered.total_rows == 200
        assert recovered.ingest_epoch == store.ingest_epoch


def _catalog_with_compressed_shards():
    catalog = Catalog(workers=2)
    events = catalog.create_table("events", ["k"])
    events.insert_batch(0, {"k": np.arange(40)})
    events.forget(np.arange(0, 40, 3), epoch=1)
    catalog.register_sharded("s", _compressed_sharded_store())
    return catalog


def _rewrite_member(path, name, change):
    """Rewrite one checkpoint member as ``change(member)`` with a
    matching CRC in the manifest, so only the replay can refuse it."""
    with np.load(path) as bundle:
        members = {member: bundle[member] for member in bundle.files}
    header = json.loads(bytes(members["header"].tobytes()).decode())
    members[name] = change(members[name])
    header["manifest"][name] = zlib.crc32(np.ascontiguousarray(members[name]))
    members["header"] = np.frombuffer(json.dumps(header).encode(), np.uint8)
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **members)

def _table_arrays_of(table):
    arrays = {name: table.values(name) for name in table.column_names}
    arrays.update(
        insert_epochs=table.insert_epochs(),
        forgotten_epochs=table.forgotten_epochs(),
        access_counts=table.access_counts(),
        last_access=table.last_access_epochs(),
    )
    return arrays


class TestFormat5:
    """Format 5: narrowed table arrays, level-1 deflate for everything
    but the already-encoded codec payloads, and read-once loads."""

    @pytest.mark.parametrize(
        "values",
        [[-(2**63), 2**63 - 1], [-1, 2**62], [0, 0, 0], [7]],
        ids=["int64-extremes", "minus-one-and-2**62", "zeros", "one-row"],
    )
    def test_narrowing_round_trips_every_int64(self, tmp_path, values):
        """Columns and stamps restore as int64, bit-identical, however
        wide their range.  ``(-1, 2**62)`` is the pair a float-typed
        narrowing rule would lose bits on."""
        table = Table("wide", ["a", "b"])
        values = np.array(values, dtype=np.int64)
        active = np.ones(values.size, dtype=bool)
        active[0] = False
        stamps = np.where(active, -1, values[-1])
        table.replay_history(
            [(0, 0, values.size)],
            {"a": values, "b": values[::-1]},
            active,
            stamps,
            values,
            values[::-1],
            None,
        )
        restored = load_table(save_table(table, tmp_path / "w.npz"))
        got, want = _table_arrays_of(restored), _table_arrays_of(table)
        assert got.keys() == want.keys()
        for name, array in want.items():
            assert got[name].dtype == np.int64, name
            assert got[name].tobytes() == array.tobytes(), name

    def test_empty_table_restores_int64_arrays(self, tmp_path):
        table = Table("empty", ["a"])
        restored = load_table(save_table(table, tmp_path / "e.npz"))
        for name, array in _table_arrays_of(restored).items():
            assert array.dtype == np.int64 and array.size == 0, name

    def test_table_arrays_are_saved_narrow(self, tmp_path):
        table = Table("t", ["small", "wide"])
        table.insert_batch(0, {"small": [-3, 100], "wide": [0, 2**40]})
        with np.load(save_table(table, tmp_path / "n.npz")) as bundle:
            assert bundle["column:small"].dtype == np.int8
            assert bundle["column:wide"].dtype == np.int64
            assert "insert_epoch" not in bundle.files

    def test_non_integer_table_array_is_refused(self, tmp_path):
        """A float member fails loudly instead of truncating to int64."""
        table = Table("t", ["a"])
        table.insert_batch(0, {"a": [1, 2, 3]})
        path = save_table(table, tmp_path / "f.npz")
        _rewrite_member(path, "column:a", lambda a: a.astype(np.float64))
        with pytest.raises(StorageError, match="signed integer"):
            load_store(path)

    @pytest.mark.parametrize(
        "kind", ["table", "database", "sharded", "catalog"]
    )
    def test_load_reads_each_member_once(
        self, tmp_path, monkeypatch, rich_table, kind
    ):
        """Structural read count: a load opens every zip member exactly
        once, whatever the checkpoint kind and however many cohorts the
        replay slices out of it."""
        stores = {
            "table": lambda: rich_table,
            "database": _compressed_db,
            "sharded": _compressed_sharded_store,
            "catalog": _catalog_with_compressed_shards,
        }
        store = stores[kind]()
        path = save_store(store, tmp_path / f"{kind}.npz")
        with zipfile.ZipFile(path) as bundle:
            names = set(bundle.namelist())
        reads = Counter()
        real_open = zipfile.ZipFile.open

        def counting_open(self, name, mode="r", *args, **kwargs):
            if mode == "r":
                reads[getattr(name, "filename", name)] += 1
            return real_open(self, name, mode, *args, **kwargs)

        monkeypatch.setattr(zipfile.ZipFile, "open", counting_open)
        restored = load_store(
            path, policy_factory=lambda: _make_policy("fifo")
        )
        monkeypatch.undo()
        assert set(reads) == names
        assert max(reads.values()) == 1, reads.most_common(3)
        if kind == "catalog":
            # Vacuity guard: the catalog nests stored codec payloads.
            assert any(":cb" in name for name in names)
        for target in (store, restored):
            if hasattr(target, "close"):
                target.close()

    def test_codec_payloads_are_stored_and_the_rest_deflated(self, tmp_path):
        catalog = _catalog_with_compressed_shards()
        path = catalog.checkpoint(tmp_path / "zip.npz")
        block = re.compile(r"(^|:)cb\d+:[^:]*\.npy$")
        with zipfile.ZipFile(path) as bundle:
            infos = bundle.infolist()
        stored = [i.filename for i in infos if block.search(i.filename)]
        assert stored, "no codec payloads written"
        for info in infos:
            want = (
                zipfile.ZIP_STORED
                if info.filename in stored
                else zipfile.ZIP_DEFLATED
            )
            assert info.compress_type == want, info.filename
        catalog.close()

    def test_format_4_is_refused_clearly(self, tmp_path):
        """v4 files predate narrowed table arrays and must be refused
        with a re-create hint, not half-restored."""
        header = json.dumps({"format_version": 4, "kind": "table"})
        path = tmp_path / "v4.npz"
        np.savez(
            path, header=np.frombuffer(header.encode(), dtype=np.uint8)
        )
        with pytest.raises(StorageError, match="format 4"):
            load_store(path)

    @pytest.mark.parametrize(
        "point", ["checkpoint.tmp", "checkpoint.rotate", "checkpoint.done"]
    )
    def test_crash_at_every_point_recovers_codec_payloads(
        self, tmp_path, point
    ):
        """Stored (undeflated) codec payloads survive a crash at any
        checkpoint point: recovery yields the old or the new blocks."""
        from repro import faults
        from repro.storage import recover_store

        db = _compressed_db()
        path = save_store(db, tmp_path / "c.npz", rotate=True)
        before = db.compressed.byte_report()
        rng = np.random.default_rng(8)
        for _ in range(3):
            db.insert({"k": rng.integers(0, 500, 25)})
            db.range_query("k", 100, 300)
        after = db.compressed.byte_report()
        assert after != before
        with faults.armed(f"{point}:crash"):
            with pytest.raises(faults.FaultInjected):
                save_store(db, path, rotate=True)
        recovered, _ = recover_store(
            path, policy_factory=lambda: _make_policy("fifo")
        )
        assert recovered.compressed.byte_report() in (before, after)


@st.composite
def compressed_histories(draw):
    """A compress-on history: cohort sizes from 1 to a few hundred rows,
    a demotion age, reads and explicit forgets after each insert, and
    whether to demote one warm cohort out of the cold prefix."""
    return {
        "sizes": draw(
            st.lists(
                st.one_of(st.integers(1, 4), st.integers(60, 400)),
                min_size=1,
                max_size=7,
            )
        ),
        "min_age": draw(st.integers(1, 4)),
        "budget": draw(st.integers(30, 900)),
        "reads": draw(st.integers(0, 3)),
        "forget_fraction": draw(st.sampled_from([0.0, 0.1, 0.4])),
        "demote_warm": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
    }


def _drive_compressed(dbs, insert, read, history):
    """Run ``history``: one ``insert`` per size, each followed by its
    ``read(low, high)`` calls and explicit forgets on every database of
    ``dbs()``, the compress-on databases behind the target."""
    rng = np.random.default_rng(history["seed"])
    for db in dbs():
        db.compressed.min_age = history["min_age"]
    for size in history["sizes"]:
        insert(rng, size)
        for _ in range(history["reads"]):
            low = int(rng.integers(-50, 1_000))
            read(low, low + int(rng.integers(1, 400)))
        for db in dbs():
            active = db.table.active_positions()
            victims = active[rng.random(active.size) < history["forget_fraction"]]
            db.table.forget(victims, epoch=db.epoch)
    if history["demote_warm"]:
        for db in dbs():
            log, store = db.table.cohorts, db.compressed
            warm = [
                k for k in range(len(log))
                if log[k].size and store.block_at(log[k].start, log[k].stop, "k") is None
            ]
            if warm:
                assert store.demote(warm[-1])


def _block_state(store):
    """A compressed store's blocks, as comparable scalars and bytes."""
    return [
        (
            record["scalars"],
            {f: (a.dtype.str, a.tobytes()) for f, a in record["arrays"].items()},
        )
        for record in store.state()
    ]


def _database_fingerprint(db):
    return {
        "table": _table_fingerprint(db.table),
        "arrays": {
            name: array.tobytes() for name, array in _table_arrays_of(db.table).items()
        },
        "blocks": _block_state(db.compressed),
        "bytes": db.compressed.byte_report(),
        "rng": db._policy_rng.bit_generator.state,
        "epoch": db.epoch,
    }


def _rewrite_header(path, change):
    """Rewrite a checkpoint's JSON header as ``change(header)``; the
    manifest covers arrays only, so nothing else needs fixing up."""
    with np.load(path) as bundle:
        members = {member: bundle[member] for member in bundle.files}
    header = json.loads(bytes(members["header"].tobytes()).decode())
    change(header)
    members["header"] = np.frombuffer(json.dumps(header).encode(), np.uint8)
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **members)


def _flip_packed(packed):
    flipped = packed.copy()
    flipped[len(flipped) // 2] ^= 0x5A
    return flipped


def _lies(kind):
    """Header edits that each make one block record lie; ``kind`` picks
    the database's state inside the header."""
    def state_of(header):
        return header if kind == "database" else header["partitions"][0]

    def first_block(header, key="param_bits"):
        return next(b for b in state_of(header)["compressed_blocks"] if key in b)

    def bits(header):
        first_block(header)["param_bits"] += 1

    def reference(header):
        first_block(header, "param_reference")["param_reference"] += 1

    def span(header):
        block = first_block(header)
        block["start"] += 1
        block["stop"] += 1

    def duplicate(header):
        blocks = state_of(header)["compressed_blocks"]
        blocks[1] = {**blocks[0], "arrays": blocks[1]["arrays"]}

    return {"bits": bits, "reference": reference, "span": span, "duplicate": duplicate}


class TestFormat6:
    """Format 6: a demoted cohort's values are saved only as its codec
    block; a load rebuilds each covered column from the blocks and the
    saved uncovered rows, checked against the column's CRC-32, before
    the table replays a row."""

    @given(compressed_histories())
    @settings(
        max_examples=25,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_database_round_trips_bit_for_bit(self, tmp_path, history):
        db = AmnesiaDatabase(
            budget=history["budget"],
            policy=_make_policy("uniform"),
            columns=("k", "v"),
            seed=history["seed"],
            plan="cost",
            compress="on",
        )

        def insert(rng, size):
            db.insert(
                {
                    "k": rng.integers(-(2**40), 2**40, size),
                    "v": np.sort(rng.integers(0, 4, size)),
                }
            )

        _drive_compressed(
            lambda: [db], insert, lambda low, high: db.range_query("k", low, high),
            history,
        )
        path = save_store(db, tmp_path / "db.npz")
        restored = load_store(path, policy_factory=lambda: _make_policy("uniform"))
        assert _database_fingerprint(restored) == _database_fingerprint(db)
        uncovered = db.table.total_rows - db.compressed.demoted_rows
        with np.load(path) as bundle:
            for name in ("k", "v"):
                assert bundle[f"column:{name}"].size == uncovered
        path.unlink()  # hypothesis reuses tmp_path across examples

    @given(compressed_histories())
    @settings(
        max_examples=15,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_sharded_store_round_trips_bit_for_bit(self, tmp_path, history):
        store = PartitionedAmnesiaDatabase(
            "k",
            (-50, 300, 600, 1_000),
            total_budget=history["budget"],
            policy_factory=lambda: _make_policy("rot"),
            seed=history["seed"],
            plan="cost",
            compress="on",
        )
        dbs = lambda: [p.db for p in store.partitions]
        _drive_compressed(
            dbs, lambda rng, size: store.insert({"k": rng.integers(-50, 1_000, size)}),
            store.range_query, history,
        )
        path = save_store(store, tmp_path / "sharded.npz")
        restored = load_store(path, policy_factory=lambda: _make_policy("rot"))
        assert [_database_fingerprint(p.db) for p in restored.partitions] == [
            _database_fingerprint(db) for db in dbs()
        ]
        with np.load(path) as bundle:
            for i, db in enumerate(dbs()):
                assert bundle[f"p{i}:column:k"].size == (
                    db.table.total_rows - db.compressed.demoted_rows
                )
        store.close()
        restored.close()
        path.unlink()

    def test_fully_demoted_column_saves_no_rows(self, tmp_path):
        db = _compressed_db()
        for k in range(len(db.table.cohorts)):
            db.compressed.demote(k)
        path = save_store(db, tmp_path / "all.npz")
        with np.load(path) as bundle:
            assert bundle["column:k"].size == 0
        restored = load_store(path, policy_factory=lambda: _make_policy("fifo"))
        assert _database_fingerprint(restored) == _database_fingerprint(db)

    @pytest.mark.parametrize("kind", ["database", "sharded"])
    @pytest.mark.parametrize("lie", ["packed", "bits", "reference", "span", "duplicate"])
    def test_a_lying_block_is_refused_before_replay(
        self, tmp_path, monkeypatch, kind, lie
    ):
        """A corrupt codec payload (its manifest CRC fixed up, so only
        the column checksum can tell) or a header record that lies about
        its codec parameters or its span raises StorageError before the
        database it belongs to replays a row, and recovery falls back
        to the previous checkpoint."""
        from repro.storage import recover_store

        build = {"database": _compressed_db, "sharded": _compressed_sharded_store}[kind]
        store = build()
        path = save_store(store, tmp_path / "c.npz", rotate=True)
        want = save_store(store, tmp_path / "want.npz")
        store.insert({"k": np.arange(0, 500, 7)})
        save_store(store, path, rotate=True)
        prefix = "" if kind == "database" else "p0:"
        if lie == "packed":
            _rewrite_member(path, f"{prefix}cb0:packed", _flip_packed)
        else:
            _rewrite_header(path, _lies(kind)[lie])

        replays = []
        replay = Table.replay_history
        monkeypatch.setattr(
            Table, "replay_history",
            lambda table, *args: replays.append(table) or replay(table, *args),
        )
        factory = lambda: _make_policy("fifo")
        with pytest.raises(StorageError):
            load_store(path, policy_factory=factory)
        assert replays == []
        recovered, used = recover_store(path, policy_factory=factory)
        assert used == Path(str(path) + ".prev")
        monkeypatch.undo()
        assert self._members(save_store(recovered, tmp_path / "got.npz")) == (
            self._members(want)
        )
        for target in (store, recovered):
            if hasattr(target, "close"):
                target.close()

    @staticmethod
    def _members(path):
        with np.load(path) as bundle:
            return {name: bundle[name].tobytes() for name in bundle.files}

    def test_short_saved_rows_are_refused(self, tmp_path):
        """A saved tail that does not fill exactly the uncovered rows is
        refused even when its own manifest CRC matches."""
        db = _compressed_db()
        path = save_store(db, tmp_path / "short.npz")
        _rewrite_member(path, "column:k", lambda tail: tail[:-1])
        with pytest.raises(StorageError, match="uncovered"):
            load_store(path, policy_factory=lambda: _make_policy("fifo"))

    def test_format_5_is_refused_clearly(self, tmp_path):
        """v5 files save demoted cohorts twice and must be refused with
        a re-create hint, not half-restored."""
        header = json.dumps({"format_version": 5, "kind": "database"})
        path = tmp_path / "v5.npz"
        np.savez(
            path, header=np.frombuffer(header.encode(), dtype=np.uint8)
        )
        with pytest.raises(StorageError, match="format 5"):
            load_store(path)
