"""Machine-bound matrices of masked values.

The reduction (Algorithm 1) is not just a correctness construction —
its *communication* is the content of Theorem 1.  ``StarredMatrix``
binds an object-array matrix to a machine and a layout exactly like
:class:`repro.matrices.TrackedMatrix` does for floats, so the starred
Cholesky runs of the reduction produce measured word/message counts
comparable against the ITT04 matmul lower bound.

The paper notes the masked flag costs at most one extra bit per word
("increases the bandwidth by at most a constant factor", or zero extra
bits with signalling NaNs); the counters here charge one word per
entry, i.e. the signalling-NaN encoding.
"""

from __future__ import annotations

import numpy as np

from repro.layouts.base import Layout
from repro.machine.core import HierarchicalMachine
from repro.util.intervals import IntervalSet


class StarredMatrix:
    """A slow-memory matrix of masked values bound to a machine."""

    def __init__(
        self,
        data: np.ndarray,
        layout: Layout,
        machine: HierarchicalMachine,
        *,
        name: str = "T",
    ) -> None:
        arr = np.asarray(data, dtype=object)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"need a square matrix, got shape {arr.shape}")
        if layout.n != arr.shape[0]:
            raise ValueError(
                f"layout dimension {layout.n} != matrix dimension {arr.shape[0]}"
            )
        self.data = arr.copy()
        self.layout = layout
        self.machine = machine
        self.base = machine.reserve_address_space(layout.storage_words)
        self.name = name

    @property
    def n(self) -> int:
        return self.layout.n

    def intervals(self, r0: int, r1: int, c0: int, c1: int) -> IntervalSet:
        """Global (base-shifted) address runs of a rectangle."""
        return self.layout.intervals(r0, r1, c0, c1).shift(self.base)

    # -- charged column access (what the naïve schedules need) ------------

    def load_column(self, c: int, r0: int, r1: int) -> np.ndarray:
        """Charged read of rows ``[r0, r1)`` of column ``c``."""
        ivs = self.intervals(r0, r1, c, c + 1)
        self.machine.read(ivs)
        return self.data[r0:r1, c].copy()

    def store_column(self, c: int, r0: int, r1: int, values: np.ndarray) -> None:
        """Charged write of rows ``[r0, r1)`` of column ``c``."""
        vals = np.asarray(values, dtype=object)
        if vals.shape != (r1 - r0,):
            raise ValueError(
                f"column values shape {vals.shape} != ({r1 - r0},)"
            )
        self.data[r0:r1, c] = vals
        self.machine.write(self.intervals(r0, r1, c, c + 1))

    def release_column(self, c: int, r0: int, r1: int) -> None:
        """Evict a column segment from fast memory (no traffic)."""
        self.machine.release(self.intervals(r0, r1, c, c + 1))

    def __repr__(self) -> str:
        return (
            f"StarredMatrix({self.name!r}, n={self.n}, "
            f"layout={self.layout.name})"
        )
