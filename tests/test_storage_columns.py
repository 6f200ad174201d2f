"""Tests for a table's value columns and per-row metadata arrays.

``TestIntColumn`` covers the append-only ``int64`` value arrays;
``TestGrowableIntVector`` the four metadata arrays (insert epoch,
access count, last-access epoch, forgotten-at epoch) that grow with
them and are updated in place.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._util.errors import ConfigError, SchemaError, StorageError
from repro.storage import Table


class TestIntColumn:
    def test_empty(self):
        table = Table("t", ["a"])
        assert table.values("a").size == 0
        assert table.active_values("a").size == 0

    def test_requires_name(self):
        with pytest.raises(SchemaError):
            Table("t", [""])

    def test_append_returns_position(self):
        table = Table("t", ["a"])
        assert table.insert_batch(0, {"a": [5]}).tolist() == [0]
        assert table.insert_batch(1, {"a": [7]}).tolist() == [1]
        assert table.values("a").tolist() == [5, 7]

    def test_append_many(self):
        table = Table("t", ["a"])
        table.insert_batch(0, {"a": [3, 1, 2]})
        table.insert_batch(1, {"a": np.array([9])})
        assert table.values("a").tolist() == [3, 1, 2, 9]

    def test_append_many_empty(self):
        table = Table("t", ["a"])
        table.insert_batch(0, {"a": []})
        assert len(table.values("a")) == 0

    def test_append_rejects_fractional(self):
        table = Table("t", ["a"])
        with pytest.raises(ConfigError):
            table.insert_batch(0, {"a": np.array([1.5])})

    def test_growth(self):
        table = Table("t", ["a"])
        table.insert_batch(0, {"a": np.arange(10_000)})
        table.insert_batch(1, {"a": [-1]})
        assert len(table.values("a")) == 10_001
        assert table.values("a")[-2] == 9_999

    def test_values_view_readonly(self):
        table = Table("t", ["a"])
        table.insert_batch(0, {"a": [1, 2]})
        with pytest.raises(ValueError):
            table.values("a")[0] = 9

    def test_getitem_bounds(self):
        """A view ends at the row count, not at the allocated capacity."""
        table = Table("t", ["a"])
        table.insert_batch(0, {"a": [1]})
        with pytest.raises(IndexError):
            table.values("a")[1]

    def test_take(self):
        table = Table("t", ["a"])
        table.insert_batch(0, {"a": [10, 20, 30]})
        table.forget(np.array([1]), epoch=1)
        assert table.active_values("a").tolist() == [10, 30]

    def test_take_empty(self):
        table = Table("t", ["a"])
        table.insert_batch(0, {"a": [1]})
        table.forget(np.array([0]), epoch=1)
        assert table.active_values("a").size == 0


class TestGrowableIntVector:
    def test_extend_with_fill(self):
        table = Table("t", ["a"])
        table.insert_batch(0, {"a": [1, 2, 3]})
        assert table.access_counts().tolist() == [0, 0, 0]
        assert table.last_access_epochs().tolist() == [-1, -1, -1]
        assert table.forgotten_epochs().tolist() == [-1, -1, -1]

    def test_extend_with_value(self):
        table = Table("t", ["a"])
        table.insert_batch(3, {"a": [1, 2]})
        table.insert_batch(5, {"a": [3]})
        assert table.insert_epochs().tolist() == [3, 3, 5]

    def test_extend_with_array(self):
        table = Table("t", ["a"])
        table.replay_history(
            [(0, 0, 3)],
            {"a": np.array([1, 2, 3])},
            np.ones(3, dtype=bool),
            np.full(3, -1),
            [4, 0, 7],
            [8, -1, 9],
            None,
        )
        assert table.access_counts().tolist() == [4, 0, 7]
        assert table.last_access_epochs().tolist() == [8, -1, 9]

    def test_extend_with_rejects_2d(self):
        table = Table("t", ["a"])
        with pytest.raises(SchemaError):
            table.insert_batch(0, {"a": np.zeros((2, 2), dtype=np.int64)})
        with pytest.raises(StorageError):
            table.replay_history(
                [(0, 0, 2)],
                {"a": np.array([1, 2])},
                np.ones(2, dtype=bool),
                np.full(2, -1),
                [[1, 2]],
                [3, 4],
                None,
            )
        # The shape check runs before any row is inserted.
        assert table.total_rows == 0

    def test_set_at(self):
        table = Table("t", ["a"])
        table.insert_batch(0, {"a": [1, 2, 3, 4]})
        table.forget(np.array([1, 3]), epoch=9)
        assert table.forgotten_epochs().tolist() == [-1, 9, -1, 9]

    def test_add_at_accumulates_duplicates(self):
        table = Table("t", ["a"])
        table.insert_batch(0, {"a": [1, 2, 3]})
        table.record_access(np.array([1, 1, 2]), epoch=4)
        assert table.access_counts().tolist() == [0, 2, 1]
        assert table.last_access_epochs().tolist() == [-1, 4, 4]

    def test_out_of_range_updates(self):
        table = Table("t", ["a"])
        table.insert_batch(0, {"a": [1, 2]})
        with pytest.raises(IndexError):
            table.record_access(np.array([2]), epoch=1)
        assert table.access_counts().tolist() == [0, 0]

    def test_growth_preserves_fill(self):
        table = Table("t", ["a"])
        for epoch in range(100):
            table.insert_batch(epoch, {"a": [epoch]})
        assert (table.last_access_epochs() == -1).all()
        assert (table.forgotten_epochs() == -1).all()
        assert table.insert_epochs().tolist() == list(range(100))
