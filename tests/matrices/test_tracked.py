"""Tests for TrackedMatrix and BlockRef."""

import numpy as np
import pytest

from repro.layouts import BlockedLayout, ColumnMajorLayout, MortonLayout, PackedLayout
from repro.machine import CapacityError, SequentialMachine
from repro.matrices import TrackedMatrix, footprint
from repro.matrices.generators import random_spd


def make(n=8, M=10_000, layout=None, data=None):
    machine = SequentialMachine(M)
    lay = layout or ColumnMajorLayout(n)
    a = TrackedMatrix(data if data is not None else random_spd(n), lay, machine)
    return machine, a


class TestTrackedMatrix:
    def test_basic(self):
        machine, a = make(6)
        assert a.n == 6
        assert a.base == 0

    def test_distinct_address_spaces(self):
        machine = SequentialMachine(10_000)
        lay = ColumnMajorLayout(4)
        a = TrackedMatrix(np.eye(4), lay, machine)
        b = TrackedMatrix(np.eye(4), ColumnMajorLayout(4), machine)
        assert b.base == a.base + 16
        assert a.whole().intervals.isdisjoint(b.whole().intervals)

    def test_dimension_mismatch(self):
        machine = SequentialMachine(100)
        with pytest.raises(ValueError):
            TrackedMatrix(np.eye(4), ColumnMajorLayout(5), machine)

    def test_data_copied(self):
        src = np.eye(3)
        machine, a = make(3, data=src)
        a.data[0, 0] = 99.0
        assert src[0, 0] == 1.0

    def test_lower(self):
        machine, a = make(4)
        low = a.lower()
        assert np.allclose(low, np.tril(a.data))

    def test_repr(self):
        machine, a = make(4)
        assert "column-major" in repr(a)


class TestBlockRefGeometry:
    def test_shape(self):
        _, a = make(8)
        b = a.block(2, 6, 1, 4)
        assert b.shape == (4, 3)
        assert b.T.shape == (3, 4)

    def test_out_of_range(self):
        _, a = make(4)
        with pytest.raises(ValueError):
            a.block(0, 5, 0, 4)

    def test_sub_and_splits(self):
        _, a = make(8)
        b = a.block(0, 8, 0, 8)
        top, bottom = b.split_rows(3)
        assert top.shape == (3, 8) and bottom.shape == (5, 8)
        left, right = b.split_cols(2)
        assert left.shape == (8, 2) and right.shape == (8, 6)
        q11, q12, q21, q22 = b.quadrants(4, 4)
        assert q22.r0 == 4 and q22.c0 == 4

    def test_sub_transposed_coords(self):
        _, a = make(8)
        bt = a.block(2, 6, 0, 8).T  # logical 8x4
        s = bt.sub(0, 3, 1, 4)  # logical 3x3
        assert s.shape == (3, 3)
        # addresses come from the un-transposed region rows 3..6, cols 0..3
        expect = a.block(3, 6, 0, 3).intervals
        assert s.intervals == expect

    @pytest.mark.parametrize("transposed", [False, True])
    def test_splits_equal_sub(self, transposed):
        """The recursions' unchecked cuts pick the blocks ``sub`` does."""
        _, a = make(8)
        b = a.block(1, 8, 2, 6)
        b = b.T if transposed else b
        rows, cols = b.shape

        def key(ref):
            return (ref.r0, ref.r1, ref.c0, ref.c1, ref.transposed)

        assert [key(x) for x in b.split_rows(3)] == [
            key(b.sub(0, 3, 0, cols)), key(b.sub(3, rows, 0, cols))
        ]
        assert [key(x) for x in b.split_cols(1)] == [
            key(b.sub(0, rows, 0, 1)), key(b.sub(0, rows, 1, cols))
        ]
        assert [key(x) for x in b.quadrants(3, 1)] == [
            key(b.sub(0, 3, 0, 1)), key(b.sub(0, 3, 1, cols)),
            key(b.sub(3, rows, 0, 1)), key(b.sub(3, rows, 1, cols)),
        ]
        with pytest.raises(ValueError):
            b.split_rows(rows + 1)
        with pytest.raises(ValueError):
            b.quadrants(0, cols + 1)

    def test_sub_out_of_range(self):
        _, a = make(8)
        b = a.block(0, 4, 0, 4)
        with pytest.raises(ValueError):
            b.sub(0, 5, 0, 4)
        with pytest.raises(ValueError):
            b.sub(0, 4, 0, 5)

    def test_words_packed(self):
        machine = SequentialMachine(1000)
        a = TrackedMatrix(random_spd(6), PackedLayout(6), machine)
        diag = a.block(0, 3, 0, 3)
        assert diag.words == 6  # lower triangle of 3x3


class TestBlockRefAccess:
    def test_peek_matches_data(self):
        _, a = make(6)
        b = a.block(1, 4, 2, 5)
        assert np.allclose(b.peek(), a.data[1:4, 2:5])

    def test_peek_transposed(self):
        _, a = make(6)
        b = a.block(1, 4, 2, 5).T
        assert np.allclose(b.peek(), a.data[1:4, 2:5].T)

    def test_poke(self):
        _, a = make(4)
        v = np.arange(4.0).reshape(2, 2)
        a.block(0, 2, 0, 2).poke(v)
        assert np.allclose(a.data[:2, :2], v)

    def test_poke_transposed(self):
        _, a = make(4)
        v = np.arange(6.0).reshape(3, 2)
        a.block(0, 2, 0, 3).T.poke(v)
        assert np.allclose(a.data[:2, :3], v.T)

    def test_poke_shape_mismatch(self):
        _, a = make(4)
        with pytest.raises(ValueError):
            a.block(0, 2, 0, 2).poke(np.zeros((3, 3)))

    def test_load_charges(self):
        machine, a = make(6)
        arr = a.block(0, 3, 0, 1).load()
        assert machine.counters.words_read == 3
        assert arr.shape == (3, 1)

    def test_release(self):
        machine, a = make(6, M=12)
        blk = a.block(0, 3, 0, 3)
        blk.load()
        blk.release()
        a.block(3, 6, 0, 2).load()  # fits only if released

    def test_capacity_enforced_through_blocks(self):
        machine, a = make(6, M=4)
        with pytest.raises(CapacityError):
            a.block(0, 3, 0, 3).load()

    def test_footprint_union(self):
        machine, a = make(8)
        f = footprint([a.block(0, 2, 0, 2), a.block(0, 2, 0, 2), a.block(4, 6, 0, 2)])
        assert f.words == 8

    def test_repr(self):
        _, a = make(4)
        assert "A[0:2,0:2]" in repr(a.block(0, 2, 0, 2))
        assert repr(a.block(0, 2, 0, 2).T).endswith(".T)")


class TestLayoutInteraction:
    def test_message_counts_by_layout(self):
        n = 16
        for lay, runs in [
            (ColumnMajorLayout(n), 4),
            (BlockedLayout(n, 4), 1),
            (MortonLayout(n), 1),
        ]:
            machine = SequentialMachine(10_000)
            a = TrackedMatrix(random_spd(n), lay, machine)
            a.block(4, 8, 4, 8).load()
            assert machine.counters.messages_read == runs, lay.name

    def test_same_numbers_any_layout(self):
        n = 8
        data = random_spd(n)
        values = []
        for lay in (ColumnMajorLayout(n), MortonLayout(n), BlockedLayout(n, 3)):
            machine = SequentialMachine(10_000)
            a = TrackedMatrix(data, lay, machine)
            values.append(a.block(1, 5, 2, 7).load())
        assert np.allclose(values[0], values[1])
        assert np.allclose(values[0], values[2])
