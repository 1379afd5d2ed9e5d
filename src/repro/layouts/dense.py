"""Full (dense) column-major and row-major layouts.

These are the formats the paper calls "Column-Major Storage": best for
the naïve one-column-at-a-time algorithms, but a ``b × b`` block is
``b`` separate runs, which is where LAPACK's latency loses a factor of
``b ≈ sqrt(M)`` (Conclusion 3).
"""

from __future__ import annotations

import numpy as np

from repro.layouts.base import Layout, LayoutError
from repro.util.fastpath import fastpath_enabled
from repro.util.intervals import IntervalSet, merge_intervals


class ColumnMajorLayout(Layout):
    """Fortran-order full storage: ``address(i, j) = i + j * n``."""

    name = "column-major"
    block_contiguous = False
    packed = False
    vectorized_runs = True

    @property
    def storage_words(self) -> int:
        return self.n * self.n

    @property
    def column_stride(self) -> int:
        return self.n

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
        if fastpath_enabled():
            # partial-height columns never touch: the per-column runs
            # are already sorted, disjoint and non-adjacent
            return IntervalSet.from_strided((r0, r1), (c0, c1), self.n)
        n = self.n
        return IntervalSet(
            merge_intervals(
                (r0 + c * n, r1 + c * n) for c in range(c0, c1)
            )
        )

    def rect_runs(self, rects):
        """Closed form: one run per column, or one for a full-height
        rectangle (whose columns abut); no per-rectangle set is built."""
        n = self.n
        starts: list[int] = []
        stops: list[int] = []
        offsets = [0]
        for r0, r1, c0, c1 in rects:
            if not (0 <= r0 <= r1 <= n and 0 <= c0 <= c1 <= n):
                self._check_rect(r0, r1, c0, c1)
            if r1 > r0 and c1 > c0:
                if r1 - r0 == n:
                    starts.append(c0 * n)
                    stops.append(c1 * n)
                else:
                    starts.extend(range(r0 + c0 * n, r0 + c1 * n, n))
                    stops.extend(range(r1 + c0 * n, r1 + c1 * n, n))
            offsets.append(len(starts))
        return (
            np.array(starts, dtype=np.int64),
            np.array(stops, dtype=np.int64),
            np.array(offsets, dtype=np.int64),
        )


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
        if fastpath_enabled():
            # transposed geometry: rows are the strided "columns"
            return IntervalSet.from_strided((c0, c1), (r0, r1), self.n)
        n = self.n
        return IntervalSet(
            merge_intervals(
                (r * n + c0, r * n + c1) for r in range(r0, r1)
            )
        )
