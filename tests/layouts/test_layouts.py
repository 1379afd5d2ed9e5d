"""Property tests shared by every layout.

Two invariants define layout correctness:

1. the address map is a bijection from stored entries onto a set of
   ``storage_words`` distinct addresses (onto ``[0, storage_words)``
   for un-padded layouts);
2. ``intervals(rect)`` covers exactly the addresses of the stored
   entries of the rectangle.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layouts import (
    BlockedLayout,
    ColumnMajorLayout,
    Layout,
    LayoutError,
    MortonLayout,
    PackedLayout,
    RecursivePackedLayout,
    RFPLayout,
    RowMajorLayout,
    available_layouts,
    make_layout,
)


def all_layouts(n):
    return [
        ColumnMajorLayout(n),
        RowMajorLayout(n),
        PackedLayout(n),
        RFPLayout(n),
        BlockedLayout(n, 3),
        BlockedLayout(n, 4),
        MortonLayout(n),
        RecursivePackedLayout(n, "recursive"),
        RecursivePackedLayout(n, "column"),
    ]


LAYOUT_IDS = [
    "colmajor",
    "rowmajor",
    "packed",
    "rfp",
    "blocked3",
    "blocked4",
    "morton",
    "recpacked",
    "recpacked-hybrid",
]


@pytest.fixture(params=range(len(LAYOUT_IDS)), ids=LAYOUT_IDS)
def layout_factory(request):
    idx = request.param
    return lambda n: all_layouts(n)[idx]


class TestBijection:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 11, 16])
    def test_addresses_distinct_and_in_range(self, layout_factory, n):
        lay = layout_factory(n)
        addrs = [
            lay.address(i, j)
            for j in range(n)
            for i in range(n)
            if lay.stores(i, j)
        ]
        stored = sum(
            1 for j in range(n) for i in range(n) if lay.stores(i, j)
        )
        assert len(addrs) == stored
        assert len(set(addrs)) == stored
        assert all(0 <= a < lay.storage_words for a in addrs)

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 13])
    def test_unpadded_layouts_are_onto(self, layout_factory, n):
        lay = layout_factory(n)
        if isinstance(lay, MortonLayout):
            pytest.skip("Morton pads to a power of two")
        addrs = {
            lay.address(i, j)
            for j in range(n)
            for i in range(n)
            if lay.stores(i, j)
        }
        assert addrs == set(range(lay.storage_words))

    def test_packed_counts(self):
        for n in (1, 4, 7):
            assert PackedLayout(n).storage_words == n * (n + 1) // 2
            assert RFPLayout(n).storage_words == n * (n + 1) // 2
            assert RecursivePackedLayout(n).storage_words == n * (n + 1) // 2

    def test_out_of_range_raises(self, layout_factory):
        lay = layout_factory(4)
        with pytest.raises(LayoutError):
            lay.address(4, 0)
        with pytest.raises(LayoutError):
            lay.address(0, -1)

    def test_packed_rejects_upper(self):
        for lay in (PackedLayout(5), RFPLayout(5), RecursivePackedLayout(5)):
            with pytest.raises(LayoutError):
                lay.address(1, 3)


class TestIntervals:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 12),
        rect=st.tuples(
            st.integers(0, 12), st.integers(0, 12),
            st.integers(0, 12), st.integers(0, 12),
        ),
        which=st.integers(0, len(LAYOUT_IDS) - 1),
    )
    def test_intervals_cover_exact_addresses(self, n, rect, which):
        lay = all_layouts(n)[which]
        r0, dr, c0, dc = rect
        r0, c0 = min(r0, n), min(c0, n)
        r1, c1 = min(r0 + dr, n), min(c0 + dc, n)
        ivs = lay.intervals(r0, r1, c0, c1)
        expected = {
            lay.address(i, j) for i, j in lay.stored_cells(r0, r1, c0, c1)
        }
        assert set(ivs.addresses()) == expected
        assert ivs.words == len(expected) == lay.rect_words(r0, r1, c0, c1)

    def test_rect_outside_matrix_raises(self, layout_factory):
        lay = layout_factory(4)
        with pytest.raises(LayoutError):
            lay.intervals(0, 5, 0, 4)
        with pytest.raises(LayoutError):
            lay.intervals(2, 1, 0, 1)

    def test_full_intervals_words(self, layout_factory):
        lay = layout_factory(6)
        stored = sum(
            1 for j in range(6) for i in range(6) if lay.stores(i, j)
        )
        assert lay.full_intervals().words == stored

    def test_column_intervals(self, layout_factory):
        lay = layout_factory(6)
        ivs = lay.column_intervals(2, 2, 6)
        assert ivs.words == 4


class TestMessageGeometry:
    """The latency-relevant shape facts Table 1 relies on."""

    def test_column_major_block_costs_b_messages(self):
        lay = ColumnMajorLayout(16)
        assert lay.intervals(4, 8, 4, 8).runs == 4

    def test_row_major_block_costs_b_messages(self):
        lay = RowMajorLayout(16)
        assert lay.intervals(4, 8, 4, 8).runs == 4

    def test_blocked_aligned_tile_is_one_run(self):
        lay = BlockedLayout(16, 4)
        assert lay.intervals(4, 8, 4, 8).runs == 1
        assert lay.intervals(8, 12, 0, 4).runs == 1

    def test_morton_aligned_block_is_one_run(self):
        lay = MortonLayout(16)
        for size in (2, 4, 8, 16):
            for bi in range(0, 16 // size):
                ivs = lay.intervals(
                    bi * size, (bi + 1) * size, 0, size
                )
                assert ivs.runs == 1, (size, bi)

    def test_morton_column_is_scattered(self):
        # reading one column of a 2^k matrix touches Θ(n) runs —
        # the latency lower-bound argument for Toledo's base case
        lay = MortonLayout(16)
        ivs = lay.column_intervals(3, 0, 16)
        assert ivs.runs >= 8

    def test_full_column_in_column_major_is_one_run(self):
        lay = ColumnMajorLayout(16)
        assert lay.column_intervals(5, 0, 16).runs == 1

    def test_adjacent_full_columns_merge(self):
        lay = ColumnMajorLayout(8)
        assert lay.intervals(0, 8, 2, 5).runs == 1

    def test_recursive_packed_aligned_triangle_one_run(self):
        lay = RecursivePackedLayout(16)
        # the leading k x k triangle is stored first, contiguously
        assert lay.intervals(0, 8, 0, 8).runs == 1
        # and the A21 rectangle is contiguous as well
        assert lay.intervals(8, 16, 0, 8).runs == 1

    def test_hybrid_rect_is_column_major(self):
        lay = RecursivePackedLayout(16, "column")
        # sub-block of the A21 rectangle: one run per column
        ivs = lay.intervals(10, 14, 2, 6)
        assert ivs.runs == 4

    def test_recursive_rect_subblock_few_runs(self):
        lay = RecursivePackedLayout(16, "recursive")
        ivs = lay.intervals(12, 16, 0, 4)
        assert ivs.runs <= 2


def _every_rectangle(n):
    for r0 in range(n + 1):
        for r1 in range(r0, n + 1):
            for c0 in range(n + 1):
                for c1 in range(c0, n + 1):
                    yield r0, r1, c0, c1


def _sampled_rectangles(n, count=150):
    rng = random.Random(n)
    for _ in range(count):
        r0, r1 = sorted(rng.randint(0, n) for _ in range(2))
        c0, c1 = sorted(rng.randint(0, n) for _ in range(2))
        yield r0, r1, c0, c1


def _assert_runs_match_enumeration(lay, rects):
    """A layout's runs against the base class's enumeration, cell by
    cell through ``address()``: the reference they must reproduce."""
    for rect in rects:
        assert tuple(lay.intervals(*rect)) == tuple(
            Layout.intervals(lay, *rect)
        ), rect


class TestMortonSpecifics:
    def test_interleave(self):
        from repro.layouts.morton import interleave_bits

        assert interleave_bits(0, 0) == 0
        assert interleave_bits(0, 1) == 1
        assert interleave_bits(1, 0) == 2
        assert interleave_bits(1, 1) == 3
        assert interleave_bits(2, 0) == 8

    def test_padding(self):
        lay = MortonLayout(5)
        assert lay.padded == 8
        assert lay.storage_words == 64
        # requests never count padding words
        assert lay.full_intervals().words == 25

    @pytest.mark.parametrize("n", range(1, 13))
    def test_runs_match_enumeration_on_every_rectangle(self, n):
        # the sorted-address runs, empty rectangles included
        _assert_runs_match_enumeration(MortonLayout(n), _every_rectangle(n))

    @pytest.mark.parametrize("n", [13, 31, 33, 100, 160])
    def test_runs_match_enumeration_on_sampled_rectangles(self, n):
        # padded dimensions: runs must break at the padding holes
        _assert_runs_match_enumeration(MortonLayout(n), _sampled_rectangles(n))


@pytest.mark.parametrize(
    "make", [ColumnMajorLayout, RowMajorLayout], ids=["colmajor", "rowmajor"]
)
class TestDenseClosedForms:
    """The strided closed forms: one run per column (row), or one run
    for a full-height (full-width) rectangle."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_runs_match_enumeration_on_every_rectangle(self, make, n):
        _assert_runs_match_enumeration(make(n), _every_rectangle(n))

    @pytest.mark.parametrize("n", [13, 31, 33, 100, 160])
    def test_runs_match_enumeration_on_sampled_rectangles(self, make, n):
        _assert_runs_match_enumeration(make(n), _sampled_rectangles(n))


class TestBlockedSpecifics:
    def test_block_clipped_to_n(self):
        lay = BlockedLayout(4, 100)
        assert lay.block == 4
        assert lay.storage_words == 16

    def test_edge_tiles(self):
        lay = BlockedLayout(5, 2)  # 3x3 tile grid with clipped edges
        assert lay.storage_words == 25
        assert lay.full_intervals() .words == 25

    def test_bad_block(self):
        with pytest.raises(ValueError):
            BlockedLayout(4, 0)


class TestRegistry:
    def test_available(self):
        names = available_layouts()
        assert "column-major" in names and "morton" in names

    def test_make_each(self):
        for name in available_layouts():
            block = 4 if name == "blocked" else None
            lay = make_layout(name, 8, block=block)
            assert lay.n == 8

    def test_blocked_needs_block(self):
        with pytest.raises(ValueError):
            make_layout("blocked", 8)

    def test_others_reject_block(self):
        with pytest.raises(ValueError):
            make_layout("morton", 8, block=4)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_layout("zigzag", 8)

    def test_rect_order_validation(self):
        with pytest.raises(ValueError):
            RecursivePackedLayout(4, "diagonal")

    def test_repr(self):
        assert "block=3" in repr(BlockedLayout(8, 3))
        assert "rect_order" in repr(RecursivePackedLayout(8))
        assert "n=8" in repr(ColumnMajorLayout(8))
