"""LRU stack-distance analysis.

For a fully associative LRU cache, an access hits in a cache of
capacity M exactly when its *stack distance* — the number of distinct
addresses touched since the previous access to the same address — is
less than M.  One pass over a trace therefore yields the miss count
for **every** capacity simultaneously, which is how the multilevel
cross-validation (Corollary 3.2 experiments) checks all hierarchy
levels from a single replay.

The classic Bennett–Kruskal / Olken algorithm is used: keep the time
of each address's previous access, and a Fenwick (binary indexed)
tree over time slots marking which slots are the *most recent* access
to their address; the stack distance is then a suffix sum.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np


class _Fenwick:
    """Fenwick tree over ``n`` slots supporting point update / prefix sum."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.tree = [0] * (n + 1)

    def add(self, i: int, delta: int) -> None:
        i += 1
        while i <= self.n:
            self.tree[i] += delta
            i += i & (-i)

    def prefix(self, i: int) -> int:
        """Sum of slots ``[0, i)``."""
        total = 0
        while i > 0:
            total += self.tree[i]
            i -= i & (-i)
        return total

    def range_sum(self, lo: int, hi: int) -> int:
        """Sum of slots ``[lo, hi)``."""
        return self.prefix(hi) - self.prefix(lo)


class StackDistanceAnalyzer:
    """Computes the stack-distance histogram of an address trace.

    Distances are recorded per access; cold (first-touch) accesses are
    counted separately as compulsory misses.
    """

    def __init__(self) -> None:
        self.distances: List[int] = []
        self.cold_misses: int = 0
        self._sorted: "np.ndarray | None" = None

    def analyze(self, addresses: Iterable[int]) -> "StackDistanceAnalyzer":
        """Process a trace (any iterable of integer addresses)."""
        trace = list(addresses)
        n = len(trace)
        tree = _Fenwick(n)
        last_seen: Dict[int, int] = {}
        for t, addr in enumerate(trace):
            prev = last_seen.get(addr)
            if prev is None:
                self.cold_misses += 1
            else:
                # distinct addresses touched strictly after prev:
                # exactly the "most recent" markers in (prev, t).
                self.distances.append(tree.range_sum(prev + 1, t))
                tree.add(prev, -1)
            tree.add(t, +1)
            last_seen[addr] = t
        self._sorted = None
        return self

    @property
    def accesses(self) -> int:
        return self.cold_misses + len(self.distances)

    def _sorted_distances(self) -> np.ndarray:
        if self._sorted is None:
            self._sorted = np.sort(np.asarray(self.distances, dtype=np.int64))
        return self._sorted

    def misses(self, capacity: int) -> int:
        """Miss count for an LRU cache of the given capacity.

        An access with stack distance ``d`` hits iff ``d < capacity``;
        cold accesses always miss.
        """
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        arr = self._sorted_distances()
        # number of recorded distances >= capacity
        idx = int(np.searchsorted(arr, capacity, side="left"))
        return self.cold_misses + (len(arr) - idx)

    def miss_curve(self, capacities: Iterable[int]) -> Dict[int, int]:
        """Miss counts for several capacities from the one histogram.

        One vectorized ``searchsorted`` over the sorted histogram
        serves every capacity at once.
        """
        caps = list(capacities)
        for m in caps:
            if m < 1:
                raise ValueError(f"capacity must be >= 1, got {m}")
        arr = self._sorted_distances()
        idx = np.searchsorted(arr, np.asarray(caps, dtype=np.int64), "left")
        return {
            m: self.cold_misses + int(len(arr) - i) for m, i in zip(caps, idx)
        }
