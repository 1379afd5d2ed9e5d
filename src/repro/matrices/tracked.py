"""Machine-bound matrices and block references.

:class:`TrackedMatrix` is the slow-memory resident operand: a dense
NumPy array (the numerical truth) plus a storage layout (the address
truth) plus the machine that gets charged for every access.  The NumPy
array always holds the matrix in natural ``(i, j)`` indexing — the
layout affects *addresses and therefore messages*, never the numbers —
which is what lets one algorithm run unchanged over every layout of
Figure 2 while producing layout-dependent latency, exactly as in
Table 1.

:class:`BlockRef` is a rectangular view ``[r0, r1) × [c0, c1)`` of a
tracked matrix (optionally transposed).  It is the operand type of all
the blocked and recursive algorithms and offers two access styles:

* **free**: :meth:`BlockRef.view` / :meth:`BlockRef.peek` /
  :meth:`BlockRef.poke` touch only the numbers — the algorithms charge
  their transfers through the run's charging object
  (:mod:`repro.sequential.charge_plan`) and compute on the values in
  between;
* **charged**: :meth:`BlockRef.load` / :meth:`BlockRef.release` issue
  an explicit machine read and eviction directly — used by the
  triangular solves of :mod:`repro.sequential.solve`.

For packed (triangular) layouts the charged words of a block are the
*stored* entries only; numerically the dense rectangle is returned
(the upper mirror of a symmetric operand), matching how packed BLAS
kernels treat symmetric data.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.layouts.base import Layout
from repro.machine.core import HierarchicalMachine
from repro.util.intervals import IntervalSet, stack_runs, union_all
from repro.util.validation import check_square

#: Entry cap on the per-matrix interval memo (dropped wholesale past it).
_INTERVAL_CACHE_MAX = 1 << 16

_new_ref = object.__new__


class TrackedMatrix:
    """A matrix in slow memory, bound to a layout and a machine.

    Parameters
    ----------
    data:
        Square float64 array holding the values (copied).
    layout:
        Storage layout; must have the same dimension as ``data``.
    machine:
        The machine charged for accesses.
    base:
        Slow-memory base address; by default a fresh region is
        reserved from the machine so multiple matrices never alias.
    name:
        Label used in error messages and reports.
    """

    def __init__(
        self,
        data: np.ndarray,
        layout: Layout,
        machine: HierarchicalMachine,
        *,
        base: int | None = None,
        name: str = "A",
    ) -> None:
        self.data = check_square("data", data).copy()
        if layout.n != self.data.shape[0]:
            raise ValueError(
                f"layout dimension {layout.n} != matrix dimension "
                f"{self.data.shape[0]}"
            )
        self.layout = layout
        self.machine = machine
        self.base = (
            machine.reserve_address_space(layout.storage_words)
            if base is None
            else int(base)
        )
        self.name = name
        self._interval_cache: "dict[tuple[int, int, int, int], IntervalSet]" = {}

    @property
    def n(self) -> int:
        return self.layout.n

    # -- geometry --------------------------------------------------------

    def intervals(self, r0: int, r1: int, c0: int, c1: int) -> IntervalSet:
        """Global (base-shifted) address runs of a rectangle.

        Memoized per rectangle: the recursive algorithms ask for the
        same block footprints at every node of their recursion, and the
        sets are immutable.
        """
        key = (r0, r1, c0, c1)
        cache = self._interval_cache
        ivs = cache.get(key)
        if ivs is None:
            ivs = self.layout.intervals(r0, r1, c0, c1).shift(self.base)
            if len(cache) >= _INTERVAL_CACHE_MAX:
                cache.clear()
            cache[key] = ivs
        return ivs

    # -- batched runs ----------------------------------------------------

    def rect_runs(
        self, rects: "np.ndarray | Sequence[tuple[int, int, int, int]]"
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Global runs of every ``(r0, r1, c0, c1)`` rectangle, stacked.

        ``(starts, stops, offsets)`` as
        :meth:`~repro.layouts.base.Layout.rect_runs` returns them,
        shifted to this matrix's base.  Layouts that set
        :attr:`~repro.layouts.base.Layout.vectorized_runs` build the
        whole batch at once; on the others each rectangle comes from the
        :meth:`intervals` memo.
        """
        if self.layout.vectorized_runs:
            starts, stops, offsets = self.layout.rect_runs(rects)
            return starts + self.base, stops + self.base, offsets
        rects = np.asarray(rects, dtype=np.int64).reshape(-1, 4).tolist()
        return stack_runs([self.intervals(*rect) for rect in rects])

    def block(
        self, r0: int, r1: int, c0: int, c1: int
    ) -> "BlockRef":
        """A :class:`BlockRef` for ``[r0, r1) × [c0, c1)``."""
        return BlockRef(self, r0, r1, c0, c1)

    def whole(self) -> "BlockRef":
        """A reference to the entire matrix."""
        return BlockRef(self, 0, self.n, 0, self.n)

    # -- results -----------------------------------------------------------

    def lower(self) -> np.ndarray:
        """The lower triangle of the current values (the factor L)."""
        return np.tril(self.data)

    def __repr__(self) -> str:
        return (
            f"TrackedMatrix({self.name!r}, n={self.n}, "
            f"layout={self.layout.name}, base={self.base})"
        )


class BlockRef:
    """A (possibly transposed) rectangular view of a tracked matrix."""

    __slots__ = ("matrix", "r0", "r1", "c0", "c1", "transposed")

    def __init__(
        self,
        matrix: TrackedMatrix,
        r0: int,
        r1: int,
        c0: int,
        c1: int,
        transposed: bool = False,
    ) -> None:
        n = matrix.layout.n
        if not (0 <= r0 <= r1 <= n and 0 <= c0 <= c1 <= n):
            raise ValueError(
                f"block [{r0},{r1})x[{c0},{c1}) outside "
                f"{matrix.n}x{matrix.n} matrix {matrix.name!r}"
            )
        self.matrix = matrix
        self.r0, self.r1, self.c0, self.c1 = r0, r1, c0, c1
        self.transposed = transposed

    # -- shape -------------------------------------------------------------

    @property
    def rows(self) -> int:
        """Logical row count (after transposition)."""
        return (self.c1 - self.c0) if self.transposed else (self.r1 - self.r0)

    @property
    def cols(self) -> int:
        """Logical column count (after transposition)."""
        return (self.r1 - self.r0) if self.transposed else (self.c1 - self.c0)

    @property
    def shape(self) -> tuple[int, int]:
        r, c = self.r1 - self.r0, self.c1 - self.c0
        return (c, r) if self.transposed else (r, c)

    @property
    def T(self) -> "BlockRef":
        """The transposed view of the same storage region."""
        v = self._rect(self.r0, self.r1, self.c0, self.c1)
        v.transposed = not self.transposed
        return v

    @property
    def intervals(self) -> IntervalSet:
        """Global address runs of the stored entries of this block."""
        return self.matrix.intervals(self.r0, self.r1, self.c0, self.c1)

    @property
    def words(self) -> int:
        """Number of stored entries (what a transfer of this block costs)."""
        return self.matrix.layout.rect_words(self.r0, self.r1, self.c0, self.c1)

    # -- splitting -----------------------------------------------------------

    def _rect(self, r0: int, r1: int, c0: int, c1: int) -> "BlockRef":
        """Storage rectangle ``[r0, r1) × [c0, c1)`` in this orientation.

        Skips the constructor's bounds check: every caller cuts inside
        ``self``, which passed it.  The recursions split once per node,
        so this is their hot path.
        """
        v = _new_ref(BlockRef)
        v.matrix, v.transposed = self.matrix, self.transposed
        v.r0, v.r1, v.c0, v.c1 = r0, r1, c0, c1
        return v

    def sub(self, r0: int, r1: int, c0: int, c1: int) -> "BlockRef":
        """Sub-block in *logical* (post-transpose) local coordinates."""
        if self.transposed:
            r0, r1, c0, c1 = c0, c1, r0, r1
        if not (0 <= r0 <= r1 <= self.r1 - self.r0):
            raise ValueError("row range outside block")
        if not (0 <= c0 <= c1 <= self.c1 - self.c0):
            raise ValueError("column range outside block")
        return self._rect(
            self.r0 + r0, self.r0 + r1, self.c0 + c0, self.c0 + c1
        )

    def _cut(self, k: int, rows: bool) -> tuple["BlockRef", "BlockRef"]:
        """The two parts of a cut ``k`` storage rows (or columns) in."""
        r0, r1, c0, c1 = self.r0, self.r1, self.c0, self.c1
        if not 0 <= k <= (r1 - r0 if rows else c1 - c0):
            raise ValueError(f"split point {k} outside block")
        if rows:
            return self._rect(r0, r0 + k, c0, c1), self._rect(r0 + k, r1, c0, c1)
        return self._rect(r0, r1, c0, c0 + k), self._rect(r0, r1, c0 + k, c1)

    def split_rows(self, k: int) -> tuple["BlockRef", "BlockRef"]:
        """Split logically at row ``k`` into (top, bottom)."""
        return self._cut(k, not self.transposed)

    def split_cols(self, k: int) -> tuple["BlockRef", "BlockRef"]:
        """Split logically at column ``k`` into (left, right)."""
        return self._cut(k, self.transposed)

    def quadrants(
        self, kr: int, kc: int
    ) -> tuple["BlockRef", "BlockRef", "BlockRef", "BlockRef"]:
        """Split into (11, 12, 21, 22) at logical row ``kr`` / col ``kc``."""
        t = self.transposed
        kr, kc = (kc, kr) if t else (kr, kc)  # now storage row / column
        r0, r1, c0, c1 = self.r0, self.r1, self.c0, self.c1
        if not (0 <= kr <= r1 - r0 and 0 <= kc <= c1 - c0):
            raise ValueError(f"split point ({kr}, {kc}) outside block")
        rm, cm, rect = r0 + kr, c0 + kc, self._rect
        q12, q21 = rect(r0, rm, cm, c1), rect(rm, r1, c0, cm)
        if t:  # storage quadrant 12 is the logical 21, and vice versa
            q12, q21 = q21, q12
        return rect(r0, rm, c0, cm), q12, q21, rect(rm, r1, cm, c1)

    # -- numerical access (free) ----------------------------------------------

    def view(self) -> np.ndarray:
        """The values in place, uncharged: a writable NumPy view (use
        inside fitted scopes)."""
        a = self.matrix.data[self.r0 : self.r1, self.c0 : self.c1]
        return a.T if self.transposed else a

    def peek(self) -> np.ndarray:
        """Copy of the values, uncharged (use inside fitted scopes)."""
        a = self.matrix.data[self.r0 : self.r1, self.c0 : self.c1]
        return np.array(a.T if self.transposed else a, copy=True)

    def poke(self, values: np.ndarray) -> None:
        """Write values, uncharged (use inside fitted scopes)."""
        v = np.asarray(values, dtype=np.float64)
        if self.transposed:
            v = v.T
        target = self.matrix.data[self.r0 : self.r1, self.c0 : self.c1]
        if v.shape != target.shape:
            raise ValueError(
                f"value shape {v.shape} != block shape {target.shape}"
            )
        target[...] = v

    # -- charged access ----------------------------------------------------------

    def load(self) -> np.ndarray:
        """Explicitly transfer the block into fast memory; returns values."""
        self.matrix.machine.read(self.intervals)
        return self.peek()

    def release(self) -> None:
        """Evict the block from fast memory (no traffic)."""
        self.matrix.machine.release(self.intervals)

    def __repr__(self) -> str:
        t = ".T" if self.transposed else ""
        return (
            f"BlockRef({self.matrix.name}[{self.r0}:{self.r1},"
            f"{self.c0}:{self.c1}]{t})"
        )


def footprint(refs: Sequence[BlockRef]) -> IntervalSet:
    """Union of the address runs of several blocks (scope footprints)."""
    if len(refs) == 1:
        return refs[0].intervals
    return union_all([ref.intervals for ref in refs])
