"""Full (dense) column-major and row-major layouts.

These are the formats the paper calls "Column-Major Storage": best for
the naïve one-column-at-a-time algorithms, but a ``b × b`` block is
``b`` separate runs, which is where LAPACK's latency loses a factor of
``b ≈ sqrt(M)`` (Conclusion 3).
"""

from __future__ import annotations

import numpy as np

from repro.layouts.base import Layout, LayoutError
from repro.util.intervals import IntervalSet


class ColumnMajorLayout(Layout):
    """Fortran-order full storage: ``address(i, j) = i + j * n``."""

    name = "column-major"
    block_contiguous = False
    packed = False
    vectorized_runs = True

    @property
    def storage_words(self) -> int:
        return self.n * self.n

    def address(self, i: int, j: int) -> int:
        if not self.stores(i, j):
            raise LayoutError(f"({i},{j}) outside {self.n}x{self.n} matrix")
        return i + j * self.n

    def intervals(self, r0: int, r1: int, c0: int, c1: int) -> IntervalSet:
        self._check_rect(r0, r1, c0, c1)
        if r1 <= r0 or c1 <= c0:
            return IntervalSet()
        if r0 == 0 and r1 == self.n:
            # full columns are one contiguous run
            return IntervalSet.single(c0 * self.n, c1 * self.n)
        # partial-height columns never touch: the per-column runs are
        # already sorted, disjoint and non-adjacent
        return IntervalSet.from_strided((r0, r1), (c0, c1), self.n)

    def rect_runs(self, rects):
        """Closed form: one run per column, or one for a full-height
        rectangle (whose columns abut); no per-rectangle set is built."""
        n = self.n
        R = np.asarray(rects, dtype=np.int64).reshape(-1, 4)
        r0, r1, c0, c1 = R.T
        bad = ~((0 <= r0) & (r0 <= r1) & (r1 <= n) & (0 <= c0) & (c0 <= c1) & (c1 <= n))
        if bad.any():
            self._check_rect(*R[bad.argmax()].tolist())
        full = r1 - r0 == n
        runs = np.where((r1 > r0) & (c1 > c0), np.where(full, 1, c1 - c0), 0)
        offsets = np.zeros(len(runs) + 1, dtype=np.int64)
        np.cumsum(runs, out=offsets[1:])
        rect = np.repeat(np.arange(len(runs)), runs)
        col = c0[rect] + np.arange(offsets[-1]) - offsets[:-1][rect]
        full = full[rect]
        starts = np.where(full, c0[rect] * n, r0[rect] + col * n)
        stops = np.where(full, c1[rect] * n, r1[rect] + col * n)
        return starts, stops, offsets


class RowMajorLayout(Layout):
    """C-order full storage: ``address(i, j) = i * n + j``.

    The mirror image of column-major; the paper notes every algorithm
    has a row-wise twin with identical counts, and the tests verify
    that symmetry.
    """

    name = "row-major"
    block_contiguous = False
    packed = False

    @property
    def storage_words(self) -> int:
        return self.n * self.n

    def address(self, i: int, j: int) -> int:
        if not self.stores(i, j):
            raise LayoutError(f"({i},{j}) outside {self.n}x{self.n} matrix")
        return i * self.n + j

    def intervals(self, r0: int, r1: int, c0: int, c1: int) -> IntervalSet:
        self._check_rect(r0, r1, c0, c1)
        if r1 <= r0 or c1 <= c0:
            return IntervalSet()
        if c0 == 0 and c1 == self.n:
            return IntervalSet.single(r0 * self.n, r1 * self.n)
        # transposed geometry: rows are the strided "columns"
        return IntervalSet.from_strided((c0, c1), (r0, r1), self.n)
