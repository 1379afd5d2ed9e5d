"""Layout base class.

A layout describes how an ``n × n`` matrix is serialized into slow
memory.  Algorithms never compute addresses themselves: they ask the
layout for the :class:`~repro.util.intervals.IntervalSet` of a
rectangle, and the machine turns those runs into words and messages.

Full layouts store every entry; triangular (packed) layouts store only
``i >= j`` (lower).  Requests are always *clipped to the stored
region*: asking a packed layout for a block that straddles the
diagonal yields the runs of the stored (lower) part, which is how the
paper's algorithms access symmetric matrices ("only half of the matrix
is referenced").  Asking for entries that are entirely outside the
stored region is an error — it would mean the algorithm reads data
that does not exist.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator, Sequence

import numpy as np

from repro.util.intervals import IntervalSet, merge_intervals, stack_runs
from repro.util.validation import check_positive_int


class LayoutError(ValueError):
    """An access fell outside a layout's stored region."""


class Layout(ABC):
    """Maps matrix entries to linear addresses; see the module docstring.

    Parameters
    ----------
    n:
        Matrix dimension.
    """

    #: short machine-readable identifier (subclasses override)
    name: str = "abstract"
    #: whether an aligned block of any size is O(1) contiguous runs
    block_contiguous: bool = False
    #: whether only the lower triangle is stored
    packed: bool = False
    #: whether :meth:`rect_runs` builds a batch without one
    #: :meth:`intervals` call per rectangle
    vectorized_runs: bool = False

    def __init__(self, n: int) -> None:
        self.n = check_positive_int("n", n)

    # -- abstract interface -------------------------------------------

    @property
    @abstractmethod
    def storage_words(self) -> int:
        """Total words of slow memory the layout occupies."""

    @abstractmethod
    def address(self, i: int, j: int) -> int:
        """Linear address of entry ``(i, j)``; raises LayoutError if
        the entry is not stored."""

    # -- stored-region geometry -----------------------------------------

    def stores(self, i: int, j: int) -> bool:
        """Whether entry ``(i, j)`` is represented in storage."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            return False
        return (i >= j) if self.packed else True

    def _check_rect(self, r0: int, r1: int, c0: int, c1: int) -> None:
        if not (0 <= r0 <= r1 <= self.n and 0 <= c0 <= c1 <= self.n):
            raise LayoutError(
                f"rectangle [{r0},{r1})x[{c0},{c1}) is outside a "
                f"{self.n}x{self.n} matrix"
            )

    def _clip_column(self, c: int, r0: int, r1: int) -> tuple[int, int]:
        """Clip a column's row range to the stored region."""
        if self.packed:
            r0 = max(r0, c)
        return r0, r1

    def stored_cells(
        self, r0: int, r1: int, c0: int, c1: int
    ) -> Iterator[tuple[int, int]]:
        """All stored entries within the rectangle (column order)."""
        self._check_rect(r0, r1, c0, c1)
        for c in range(c0, c1):
            lo, hi = self._clip_column(c, r0, r1)
            for i in range(lo, hi):
                yield i, c

    def rect_words(self, r0: int, r1: int, c0: int, c1: int) -> int:
        """Number of stored entries within the rectangle."""
        self._check_rect(r0, r1, c0, c1)
        if self.packed:
            return lower_words(r0, r1, c0, c1)
        return (r1 - r0) * (c1 - c0)

    # -- interval computation --------------------------------------------

    def intervals(self, r0: int, r1: int, c0: int, c1: int) -> IntervalSet:
        """Address runs of the stored entries of ``[r0,r1) × [c0,c1)``.

        The base implementation enumerates entries; subclasses override
        with analytic versions (and the tests check they agree).
        """
        self._check_rect(r0, r1, c0, c1)
        return IntervalSet(
            (a, a + 1)
            for a in (self.address(i, j) for i, j in self.stored_cells(r0, r1, c0, c1))
        )

    def rect_runs(
        self, rects: "Sequence[tuple[int, int, int, int]]"
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Address runs of every rectangle of ``rects``, stacked.

        Returns ``(starts, stops, offsets)``: rectangle ``i`` owns runs
        ``offsets[i]:offsets[i + 1]``, which equal
        ``self.intervals(*rects[i])`` (an empty rectangle owns none).
        An out-of-range rectangle raises :class:`LayoutError`, as
        :meth:`intervals` does.  The base implementation stacks one
        :meth:`intervals` call per rectangle; layouts that set
        :attr:`vectorized_runs` build the whole batch at once.
        """
        return stack_runs([self.intervals(*r) for r in rects])

    def column_intervals(self, c: int, r0: int, r1: int) -> IntervalSet:
        """Address runs of rows ``[r0, r1)`` of column ``c``."""
        return self.intervals(r0, r1, c, c + 1)

    def full_intervals(self) -> IntervalSet:
        """Address runs of the entire stored matrix."""
        return self.intervals(0, self.n, 0, self.n)

    # -- helpers shared by column-major-style subclasses ------------------

    def _column_run_intervals(
        self, r0: int, r1: int, c0: int, c1: int
    ) -> IntervalSet:
        """Build intervals from one contiguous run per (clipped) column.

        Valid for any layout in which each column's stored rows are
        consecutive addresses (column-major, old packed, parts of RFP).
        Subclasses using this must guarantee that property.
        """
        self._check_rect(r0, r1, c0, c1)
        runs = []
        for c in range(c0, c1):
            lo, hi = self._clip_column(c, r0, r1)
            if hi > lo:
                start = self.address(lo, c)
                runs.append((start, start + (hi - lo)))
        return IntervalSet(merge_intervals(runs))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"


def lower_words(r0: int, r1: int, c0: int, c1: int) -> int:
    """Entries ``i >= j`` of ``[r0, r1) × [c0, c1)``, in closed form.

    The stored words of a rectangle on a packed (lower-triangular)
    layout: columns left of the row range hold ``r1 - r0`` entries
    each, column ``j`` inside it holds ``r1 - j``, columns right of it
    none.
    """
    if r1 <= r0 or c1 <= c0:
        return 0
    words = max(0, min(c1, r0) - c0) * (r1 - r0)
    a, b = max(c0, r0), min(c1, r1)
    if b > a:
        words += (b - a) * r1 - (a + b - 1) * (b - a) // 2
    return words


def lower_words_of(r0, r1, c0, c1) -> np.ndarray:
    """:func:`lower_words` of many nonempty rectangles, given as integer
    arrays of their bounds."""
    a, b = np.maximum(c0, r0), np.minimum(c1, r1)
    d = np.maximum(b - a, 0)
    words = np.maximum(np.minimum(c1, r0) - c0, 0) * (r1 - r0)
    return words + d * r1 - (a + b - 1) * d // 2
