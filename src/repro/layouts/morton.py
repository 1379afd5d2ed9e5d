"""Recursive (Morton / bit-interleaved / space-filling-curve) storage.

The cache-*oblivious* member of the block-contiguous class: the matrix
is stored along a Z-order curve, so *every* power-of-two-aligned
square sub-block of every size is contiguous — no block-size parameter
to tune.  This is the 'recursive format' of Figure 2 and the storage
that makes the Ahmed–Pingali algorithm latency-optimal at every level
of the hierarchy (Conclusion 5).

The dimension is padded to the next power of two; padding addresses
exist but are never stored entries (``stores`` is false there), so the
words of an interval request count only real entries.  A rectangle's
runs come straight from its addresses: the address of ``(i, j)`` is
``spread(i) << 1 | spread(j)``, where ``spread`` moves bit ``k`` to bit
``2k`` (a table built once per layout), so the rectangle's addresses
are one broadcast OR of two table slices.  Sorted, they split into runs
wherever consecutive addresses differ by more than one.  Padding cells
never enter the address array, so a Z-order run over a quadrant that
contains padding breaks at the holes and word counts stay exact.
"""

from __future__ import annotations

import numpy as np

from repro.layouts.base import Layout, LayoutError
from repro.util.intervals import IntervalSet, gather_runs
from repro.util.imath import next_pow2


def interleave_bits(i: int, j: int) -> int:
    """Z-order key: bit ``k`` of ``i`` goes to bit ``2k+1``, of ``j`` to ``2k``."""
    out = 0
    k = 0
    while i or j:
        out |= ((j & 1) << (2 * k)) | ((i & 1) << (2 * k + 1))
        i >>= 1
        j >>= 1
        k += 1
    return out


def _spread_bits(n: int) -> np.ndarray:
    """``interleave_bits(0, j)`` for ``j`` in ``0 … n-1``, as int64."""
    idx = np.arange(n, dtype=np.int64)
    out = np.zeros(n, dtype=np.int64)
    for k in range(max(1, (n - 1).bit_length())):
        out |= ((idx >> k) & 1) << (2 * k)
    return out


class MortonLayout(Layout):
    """Bit-interleaved recursive full storage."""

    name = "morton"
    block_contiguous = True
    packed = False
    vectorized_runs = True

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self.padded = next_pow2(n)
        self._spread = _spread_bits(n)

    @property
    def storage_words(self) -> int:
        # address space including padding holes; stored entries are n*n
        return self.padded * self.padded

    def address(self, i: int, j: int) -> int:
        if not self.stores(i, j):
            raise LayoutError(f"({i},{j}) outside {self.n}x{self.n} matrix")
        return interleave_bits(i, j)

    def intervals(self, r0: int, r1: int, c0: int, c1: int) -> IntervalSet:
        self._check_rect(r0, r1, c0, c1)
        if r1 <= r0 or c1 <= c0:
            return IntervalSet()
        spread = self._spread
        addrs = ((spread[r0:r1] << 1)[:, None] | spread[c0:c1]).ravel()
        addrs.sort()
        # addresses are distinct, so a gap is any step larger than one
        cut = np.flatnonzero(addrs[1:] - addrs[:-1] > 1)
        starts = np.concatenate((addrs[:1], addrs[cut + 1]))
        stops = np.concatenate((addrs[cut], addrs[-1:])) + 1
        return IntervalSet._from_normalized(
            tuple(zip(starts.tolist(), stops.tolist()))
        )

    def rect_runs(self, rects):
        """One sorted address array for the whole batch.

        Each distinct rectangle is expanded once; its addresses are
        keyed by ``rectangle · span + address`` (``span`` one more than
        the address space, so two rectangles never touch), one sort
        orders every rectangle at once, and runs split wherever
        consecutive keys differ by more than one.  Repeated rectangles
        then share their runs.
        """
        index: dict = {}
        inverse = [index.setdefault(tuple(r), len(index)) for r in rects]
        r0, r1, c0, c1 = np.array(list(index), dtype=np.int64).reshape(-1, 4).T
        n = self.n
        ok = (0 <= r0) & (r0 <= r1) & (r1 <= n) & (0 <= c0) & (c0 <= c1) & (c1 <= n)
        if not ok.all():
            bad = int(np.argmin(ok))
            self._check_rect(*(int(x[bad]) for x in (r0, r1, c0, c1)))
        width = c1 - c0
        area = (r1 - r0) * width
        rect = np.repeat(np.arange(len(area)), area)
        local = np.arange(len(rect)) - np.repeat(np.cumsum(area) - area, area)
        rows = r0[rect] + local // width[rect]
        cols = c0[rect] + local % width[rect]
        span = self.padded * self.padded + 1
        spread = self._spread
        keys = rect * span + ((spread[rows] << 1) | spread[cols])
        keys.sort()
        offsets = np.zeros(len(area) + 1, dtype=np.int64)
        if len(keys):
            cut = np.flatnonzero(keys[1:] - keys[:-1] > 1)
            first = np.concatenate(([0], cut + 1))
            last = np.concatenate((cut, [len(keys) - 1]))
            owner = keys[first] // span
            starts = keys[first] - owner * span
            stops = keys[last] - owner * span + 1
            np.cumsum(np.bincount(owner, minlength=len(area)), out=offsets[1:])
        else:
            starts = stops = keys
        return gather_runs(starts, stops, offsets, inverse)
