"""Element-granularity LRU cache simulator.

The explicit machine (`repro.machine.core`) counts the transfers an
algorithm *issues*; a real cache counts the *misses* an address
stream incurs.  For the algorithms in the paper the two agree up to
constants (that is what makes the DAM analyses meaningful), and this
module lets the test suite check that agreement on small instances:
replay an algorithm's traced address stream through a fully
associative LRU cache of capacity M and compare miss traffic against
the machine's word counters.

The simulator is deliberately simple — word-granularity lines
(B = 1, as in the paper's footnote 1), fully associative, true LRU —
because that is the model the lower bounds are stated in.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

from repro.util.validation import check_positive_int


@dataclass
class LRUStats:
    """Counters produced by an LRU replay."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def traffic_words(self) -> int:
        """Words crossing the boundary: fills (misses) + write-backs."""
        return self.misses + self.writebacks


class LRUCache:
    """Fully associative LRU cache over word addresses.

    Parameters
    ----------
    capacity:
        Number of words the cache holds (the model's M).
    write_allocate:
        Whether a write miss first fills the line (default true,
        matching a cache that must hold a word to update it).
    """

    def __init__(self, capacity: int, *, write_allocate: bool = True) -> None:
        self.capacity = check_positive_int("capacity", capacity)
        self.write_allocate = bool(write_allocate)
        self._lines: OrderedDict[int, bool] = OrderedDict()  # addr -> dirty
        self.stats = LRUStats()

    def __len__(self) -> int:
        return len(self._lines)

    def __contains__(self, address: int) -> bool:
        return address in self._lines

    def access(self, address: int, is_write: bool = False) -> bool:
        """Touch one word; returns ``True`` on a hit."""
        self.stats.accesses += 1
        lines = self._lines
        if address in lines:
            self.stats.hits += 1
            dirty = lines.pop(address)
            lines[address] = dirty or is_write
            return True
        self.stats.misses += 1
        if is_write and not self.write_allocate:
            # write-around: goes straight to slow memory
            self.stats.writebacks += 1
            return False
        if len(lines) >= self.capacity:
            _victim, victim_dirty = lines.popitem(last=False)
            if victim_dirty:
                self.stats.writebacks += 1
        lines[address] = is_write
        return False

    def replay(self, stream: Iterable[tuple[int, bool]]) -> LRUStats:
        """Replay an ``(address, is_write)`` stream; returns the stats."""
        for address, is_write in stream:
            self.access(address, is_write)
        return self.stats

    def flush(self) -> int:
        """Write back all dirty lines and empty the cache.

        Returns the number of write-backs performed.  Algorithms end
        with their output in slow memory, so comparisons against the
        explicit machine should flush first.
        """
        dirty = sum(1 for d in self._lines.values() if d)
        self.stats.writebacks += dirty
        self._lines.clear()
        return dirty
