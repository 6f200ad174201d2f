"""Property-based tests (hypothesis) for the storage substrate."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import TableHistogramStats
from repro.storage import CohortZoneMap, Table

positions_lists = st.lists(st.integers(0, 199), min_size=0, max_size=120)


def _table(n: int) -> Table:
    table = Table("t", ["a"])
    table.insert_batch(0, {"a": np.arange(n)})
    return table


class TestBitmapProperties:
    """A table's activity array: its count, mask and position lists."""

    @given(clear=positions_lists)
    @settings(max_examples=60)
    def test_popcount_matches_ground_truth(self, clear):
        """The maintained active count == the mask's brute-force count."""
        table = _table(200)
        reference = np.ones(200, dtype=bool)
        if clear:
            table.forget(np.array(clear), epoch=1)
            reference[np.array(clear)] = False
        assert table.active_count == int(table.active_mask().sum())
        assert table.active_count == int(reference.sum())
        assert np.array_equal(table.active_mask(), reference)

    @given(st.lists(st.booleans(), min_size=1, max_size=50))
    @settings(max_examples=40)
    def test_extend_patterns(self, pattern):
        table = Table("t", ["a"])
        for epoch, bit in enumerate(pattern):
            (position,) = table.insert_batch(epoch, {"a": [epoch]})
            if not bit:
                table.forget(np.array([position]), epoch)
        assert table.total_rows == len(pattern)
        assert table.active_count == sum(pattern)
        assert table.active_mask().tolist() == pattern

    @given(clear=positions_lists)
    @settings(max_examples=40)
    def test_set_clear_partition(self, clear):
        """Active and forgotten positions always partition [0, n)."""
        table = _table(200)
        if clear:
            table.forget(np.array(clear), epoch=1)
        active = set(table.active_positions().tolist())
        forgotten = set(table.forgotten_positions().tolist())
        assert active | forgotten == set(range(200))
        assert not (active & forgotten)
        assert len(forgotten) == table.forgotten_count


class TestColumnProperties:
    @given(
        st.lists(
            st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=3),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=40)
    def test_append_many_concatenates(self, chunks):
        """Many small batches grow every row array together: values
        round-trip and each metadata array holds its fill."""
        table = Table("t", ["a"])
        expected: list[int] = []
        epochs: list[int] = []
        for epoch, chunk in enumerate(chunks):
            table.insert_batch(epoch, {"a": chunk})
            expected.extend(chunk)
            epochs.extend([epoch] * len(chunk))
        n = len(expected)
        assert table.values("a").tolist() == expected
        assert table.insert_epochs().tolist() == epochs
        assert table.access_counts().tolist() == [0] * n
        assert table.last_access_epochs().tolist() == [-1] * n
        assert table.forgotten_epochs().tolist() == [-1] * n
        assert table.active_mask().all() and table.active_count == n


class TestTableProperties:
    @given(
        batches=st.lists(
            st.integers(1, 30), min_size=1, max_size=8
        ),
        forget_seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40)
    def test_counts_always_consistent(self, batches, forget_seed):
        """active + forgotten == total after any insert/forget mix, and
        the observers' totals agree with the table's.

        Victims are drawn with replacement from every position, so one
        call may repeat a row or name one already forgotten.
        """
        rng = np.random.default_rng(forget_seed)
        table = Table("t", ["a"])
        stats = TableHistogramStats(table, bins=8)
        zone_map = CohortZoneMap(table)
        for epoch, n in enumerate(batches):
            table.insert_batch(epoch, {"a": rng.integers(0, 100, n)})
            k = int(rng.integers(0, table.total_rows + 1))
            if k:
                table.forget(rng.choice(table.total_rows, k), epoch)
            assert table.active_count + table.forgotten_count == table.total_rows
            assert table.active_positions().size == table.active_count
            # Cohort activity re-aggregates to the active count.
            sizes = {c.epoch: c.size for c in table.cohorts}
            weighted = sum(
                frac * sizes[e] for e, frac in table.cohort_activity().items()
            )
            assert round(weighted) == table.active_count
            active, forgotten = stats.histograms("a")
            assert (active.total, forgotten.total) == (
                table.active_count,
                table.forgotten_count,
            )
            assert int(zone_map.active_counts().sum()) == table.active_count

    @given(forget_seed=st.integers(0, 2**31))
    @settings(max_examples=30)
    def test_oracle_values_never_change(self, forget_seed):
        """Forgetting never mutates the value history."""
        rng = np.random.default_rng(forget_seed)
        table = Table("t", ["a"])
        values = rng.integers(0, 1000, 100)
        table.insert_batch(0, {"a": values})
        before = table.values("a").copy()
        victims = rng.choice(100, int(rng.integers(1, 100)), replace=False)
        table.forget(victims, epoch=1)
        assert np.array_equal(table.values("a"), before)


class TestCheckpointProperties:
    @given(
        batch_sizes=st.lists(st.integers(1, 25), min_size=1, max_size=5),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=20, deadline=None)
    def test_save_load_roundtrip(self, batch_sizes, seed, tmp_path_factory):
        """Any reachable table state round-trips through a checkpoint."""
        from repro.storage import load_table, save_table

        rng = np.random.default_rng(seed)
        table = Table("t", ["a", "b"])
        for epoch, n in enumerate(batch_sizes):
            table.insert_batch(
                epoch,
                {"a": rng.integers(0, 50, n), "b": rng.integers(0, 9, n)},
            )
            active = table.active_positions()
            k = int(rng.integers(0, active.size + 1))
            if k:
                table.forget(rng.choice(active, k, replace=False), epoch)
            touched = table.active_positions()
            if touched.size:
                table.record_access(
                    rng.choice(touched, min(5, touched.size)), epoch
                )

        path = tmp_path_factory.mktemp("ckpt") / "t.npz"
        restored = load_table(save_table(table, path))
        assert np.array_equal(restored.active_mask(), table.active_mask())
        assert np.array_equal(restored.values("a"), table.values("a"))
        assert np.array_equal(restored.values("b"), table.values("b"))
        assert np.array_equal(
            restored.forgotten_epochs(), table.forgotten_epochs()
        )
        assert np.array_equal(
            restored.access_counts(), table.access_counts()
        )
        assert restored.cohorts.epochs() == table.cohorts.epochs()
