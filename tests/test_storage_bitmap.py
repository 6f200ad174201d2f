"""Tests for a table's activity marking: counts, forgets and views.

Activity is one ``bool`` per row in the table's row store; forgetting
clears a row's flag and never destroys its values.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.storage import Table


def _table(n: int, forgotten=()) -> Table:
    table = Table("t", ["a"])
    table.insert_batch(0, {"a": np.arange(n)})
    if len(forgotten):
        table.forget(np.asarray(forgotten), epoch=1)
    return table


class TestGrowth:
    def test_empty(self):
        table = Table("t", ["a"])
        assert table.total_rows == 0
        assert table.active_count == 0
        assert table.forgotten_count == 0
        assert table.active_mask().size == 0

    def test_extend_set(self):
        table = _table(10)
        assert table.total_rows == 10
        assert table.active_count == 10
        assert table.active_mask().all()

    def test_extend_clear(self):
        table = _table(10, forgotten=np.arange(10))
        assert table.active_count == 0
        assert table.forgotten_count == 10

    def test_extend_zero_is_noop(self):
        table = Table("t", ["a"])
        assert table.insert_batch(0, {"a": []}).size == 0
        assert table.total_rows == 0
        assert table.active_count == 0

    def test_growth_beyond_capacity(self):
        table = Table("t", ["a"])
        for epoch in range(1000):
            table.insert_batch(epoch, {"a": [epoch]})
        assert table.total_rows == 1000
        assert table.active_count == 1000
        assert table.values("a").tolist() == list(range(1000))


class TestPointOps:
    def test_getitem(self):
        table = _table(3, forgotten=[1])
        assert bool(table.is_active(0)) is True
        assert bool(table.is_active(1)) is False
        assert bool(table.is_active(2)) is True

    def test_getitem_out_of_range(self):
        table = _table(3)
        with pytest.raises(IndexError):
            table.is_active(3)
        with pytest.raises(IndexError):
            table.is_active(-1)

    def test_set_clear_idempotent(self):
        table = _table(2)
        assert table.forget(np.array([0]), epoch=1) == 1
        assert table.forget(np.array([0]), epoch=2) == 0
        assert table.active_count == 1


class TestBulkOps:
    def test_clear_many_counts_flips(self):
        table = _table(10)
        flipped = table.forget(np.array([1, 3, 3, 5]), epoch=1)
        # Position 3 flips once; duplicates in one call are harmless.
        assert flipped == 3
        assert table.active_count == 7

    def test_bulk_empty_is_noop(self):
        table = _table(5)
        assert table.forget(np.empty(0, dtype=np.int64), epoch=1) == 0
        assert table.active_count == 5

    def test_bulk_out_of_range(self):
        table = _table(5)
        with pytest.raises(IndexError):
            table.forget(np.array([5]), epoch=1)
        with pytest.raises(IndexError):
            table.forget(np.array([-1]), epoch=1)
        assert table.active_count == 5

    def test_test_many(self):
        table = _table(4, forgotten=[2])
        assert table.is_active(np.array([0, 2])).tolist() == [True, False]


class TestViews:
    def test_view_is_readonly(self):
        view = _table(4).active_mask()
        with pytest.raises(ValueError):
            view[0] = False

    def test_view_reflects_changes(self):
        table = _table(4)
        view = table.active_mask()
        table.forget(np.array([0]), epoch=1)
        assert view[0] == np.False_

    def test_to_array_is_copy(self):
        table = _table(4)
        positions = table.active_positions()
        flags = table.is_active(np.array([0]))
        table.forget(np.array([0]), epoch=1)
        assert positions.tolist() == [0, 1, 2, 3]
        assert flags[0] == np.True_

    def test_positions(self):
        table = _table(6, forgotten=[0, 2, 4])
        assert table.active_positions().tolist() == [1, 3, 5]
        assert table.forgotten_positions().tolist() == [0, 2, 4]

    def test_repr(self):
        text = repr(_table(3, forgotten=[1]))
        assert "total=3" in text and "active=2" in text
