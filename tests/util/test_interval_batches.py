"""Edge cases and properties of the batched interval machinery.

Covers the fast-path constructors the simulator hot loop relies on:
``IntervalSet.from_strided`` (closed-form panel footprints),
``RunBatch`` (struct-of-arrays transfer sequences), the stacked-run
helpers a charge plan builds its batch with (``stack_runs``,
``gather_runs``, ``union_groups``), and the NumPy merge — each checked
against the brute-force element-wise construction it replaces.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.intervals import (
    EMPTY,
    IntervalSet,
    RunBatch,
    _merge_intervals_np,
    _merge_sorted_runs,
    gather_runs,
    merge_intervals,
    stack_runs,
    union_all,
    union_groups,
)


def _batch(sets, is_write=False) -> RunBatch:
    return RunBatch.from_runs(*stack_runs(sets), is_write=is_write)


def _transfers(batch: RunBatch) -> list:
    """``(IntervalSet, is_write)`` per transfer, in order."""
    runs = (batch.starts, batch.stops, batch.offsets)
    return list(zip(_unstack(runs), batch.is_write.tolist()))


def brute_strided(rows, col_range, ld):
    """Element-wise reference for a strided panel footprint."""
    r0, r1 = rows
    c0, c1 = col_range
    return IntervalSet(
        [(r0 + c * ld, r1 + c * ld) for c in range(c0, c1)]
    )


class TestFromStrided:
    def test_empty_rows(self):
        assert IntervalSet.from_strided((3, 3), (0, 4), 8) == EMPTY

    def test_empty_cols(self):
        assert IntervalSet.from_strided((0, 3), (2, 2), 8) == EMPTY

    def test_full_height_panel_coalesces_across_columns(self):
        """Adjacent per-column runs merge across the panel boundary:
        a full-height panel is one contiguous run."""
        s = IntervalSet.from_strided((0, 8), (2, 5), 8)
        assert s.intervals == ((16, 40),)
        assert s.runs == 1

    def test_partial_height_keeps_per_column_runs(self):
        s = IntervalSet.from_strided((1, 5), (0, 3), 8)
        assert s.intervals == ((1, 5), (9, 13), (17, 21))

    def test_adjacency_at_column_seam_only_when_touching(self):
        # r1 == ld touches the next column's r0 == 0 start
        touching = IntervalSet.from_strided((0, 8), (0, 2), 8)
        assert touching.runs == 1
        gap = IntervalSet.from_strided((0, 7), (0, 2), 8)
        assert gap.runs == 2

    @given(
        st.integers(1, 12),  # ld
        st.data(),
    )
    def test_matches_brute_force(self, ld, data):
        r0 = data.draw(st.integers(0, ld))
        r1 = data.draw(st.integers(r0, ld))
        c0 = data.draw(st.integers(0, 6))
        c1 = data.draw(st.integers(c0, c0 + 6))
        fast = IntervalSet.from_strided((r0, r1), (c0, c1), ld)
        assert fast == brute_strided((r0, r1), (c0, c1), ld)
        assert fast.words == (r1 - r0) * (c1 - c0)

    def test_rejects_rows_outside_ld(self):
        with pytest.raises(ValueError):
            IntervalSet.from_strided((0, 9), (0, 1), 8)


class TestRunBatch:
    def test_empty_sets_dropped(self):
        batch = _batch(
            [EMPTY, IntervalSet([(0, 3)]), EMPTY], is_write=[True, False, True]
        )
        assert batch.nsets == 1
        [(ivs, w)] = _transfers(batch)
        assert ivs == IntervalSet([(0, 3)]) and w is False

    def test_empty_batch(self):
        batch = _batch([])
        assert batch.nsets == 0
        assert batch.words == 0
        assert batch.direction_words() == (0, 0)
        assert batch.direction_messages() == (0, 0)
        assert _transfers(batch) == []

    def test_transfers_round_trip_in_order(self):
        sets = [
            IntervalSet([(0, 4), (10, 12)]),
            IntervalSet([(4, 10)]),
            IntervalSet([(20, 21)]),
        ]
        flags = [False, True, False]
        batch = _batch(sets, is_write=flags)
        assert _transfers(batch) == list(zip(sets, flags))

    def test_no_cross_set_merging(self):
        """Adjacent runs in *different* transfers stay separate — each
        set is one transfer, exactly like the element-wise path."""
        batch = _batch([IntervalSet([(0, 4)]), IntervalSet([(4, 8)])])
        assert batch.nsets == 2
        assert batch.direction_messages() == (2, 0)

    def test_direction_totals_match_per_set(self):
        sets = [
            IntervalSet([(0, 5)]),
            IntervalSet([(7, 9), (11, 20)]),
            IntervalSet([(30, 31)]),
        ]
        flags = [False, True, True]
        batch = _batch(sets, is_write=flags)
        rw = sum(s.words for s, f in zip(sets, flags) if not f)
        ww = sum(s.words for s, f in zip(sets, flags) if f)
        assert batch.direction_words() == (rw, ww)
        for cap in (None, 1, 3, 100):
            rm = sum(
                s.messages(cap) for s, f in zip(sets, flags) if not f
            )
            wm = sum(s.messages(cap) for s, f in zip(sets, flags) if f)
            assert batch.direction_messages(cap) == (rm, wm)


class TestMergeFastPath:
    @given(
        st.lists(
            st.tuples(st.integers(0, 300), st.integers(0, 40)).map(
                lambda t: (t[0], t[0] + t[1])
            ),
            max_size=150,
        )
    )
    def test_numpy_merge_matches_python_merge(self, raw):
        python = _merge_sorted_runs(sorted(p for p in raw if p[1] > p[0]))
        assert _merge_intervals_np(raw) == python
        assert merge_intervals(raw) == python

    def test_large_union_all_both_paths(self):
        sets = [IntervalSet([(i * 3, i * 3 + 2)]) for i in range(200)]
        raw = [iv for s in sets for iv in s.intervals]
        fast = union_all(sets)
        assert fast == IntervalSet(raw)
        assert fast.intervals == _merge_sorted_runs(sorted(raw))
        assert fast.words == 400

    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 300), st.integers(0, 40)).map(
                    lambda t: (t[0], t[0] + t[1])
                ),
                max_size=30,
            ),
            max_size=8,
        )
    )
    def test_union_all_matches_the_general_merge(self, raws):
        sets = [IntervalSet(raw) for raw in raws]
        assert union_all(sets) == IntervalSet(
            [iv for s in sets for iv in s.intervals]
        )

    def test_words_vectorized_path(self):
        # >= the NumPy threshold of disjoint runs
        s = IntervalSet([(i * 5, i * 5 + 2) for i in range(100)])
        assert s.words == 200


def _unstack(runs) -> list:
    starts, stops, offsets = (np.asarray(a).tolist() for a in runs)
    return [
        IntervalSet._from_normalized(tuple(zip(starts[lo:hi], stops[lo:hi])))
        for lo, hi in zip(offsets, offsets[1:])
    ]


_sets = st.lists(
    st.lists(st.tuples(st.integers(0, 60), st.integers(0, 8)), max_size=5).map(
        lambda pairs: IntervalSet((a, a + w) for a, w in pairs)
    ),
    max_size=8,
)


class TestStackedRuns:
    @given(_sets)
    def test_stack_runs_round_trips(self, sets):
        assert _unstack(stack_runs(sets)) == sets

    @given(_sets, st.data())
    def test_gather_runs_picks_sets_in_order(self, sets, data):
        ids = data.draw(
            st.lists(st.integers(0, max(len(sets) - 1, 0)), max_size=10)
            if sets
            else st.just([])
        )
        got = _unstack(gather_runs(*stack_runs(sets), ids))
        assert got == [sets[i] for i in ids]

    @given(_sets, st.data())
    def test_union_groups_equals_union_all(self, sets, data):
        """Overlapping and adjacent runs coalesce inside a group, never
        across groups; an empty group stays an empty slot."""
        cuts = sorted(
            data.draw(st.lists(st.integers(0, len(sets)), max_size=6))
        )
        bounds = [0, *cuts, len(sets)]
        sizes = [b - a for a, b in zip(bounds, bounds[1:])]
        got = _unstack(union_groups(*stack_runs(sets), sizes))
        expected = []
        pos = 0
        for k in sizes:
            expected.append(union_all(sets[pos : pos + k]))
            pos += k
        assert got == expected

    def test_from_runs_drops_empty_sets_and_their_flags(self):
        sets = [EMPTY, IntervalSet([(0, 3)]), EMPTY, IntervalSet([(5, 6)])]
        batch = RunBatch.from_runs(*stack_runs(sets), is_write=[1, 0, 1, 1])
        assert [(s.intervals, w) for s, w in _transfers(batch)] == [
            (((0, 3),), False),
            (((5, 6),), True),
        ]
