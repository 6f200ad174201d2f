"""Tests for table/store checkpointing (repro.storage.io)."""

from __future__ import annotations

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


class TestCompressedRoundTrip:
    """Checkpoint format v3: compressed blocks restore without
    re-encoding and the restored store answers bit-identically."""

    def _build_db(self):
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
        return db

    def test_database_blocks_survive(self, tmp_path):
        db = self._build_db()
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

        db = self._build_db()
        path = db.checkpoint(tmp_path / "mid.npz")
        restored = load_store(
            path, policy_factory=lambda: _make_policy("fifo")
        )
        assert drive(restored, np.random.default_rng(77)) == drive(
            db, np.random.default_rng(77)
        )

    def test_sharded_blocks_survive(self, tmp_path):
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
        demoted = [
            p.db.compressed.demoted_count for p in store.partitions
        ]
        assert sum(demoted) > 0
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
        assert header["format_version"] == 4
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
