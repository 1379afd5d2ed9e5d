"""Communication counters and memory-level bookkeeping.

Terminology follows the paper exactly:

* **bandwidth** (a count, not a rate): total number of *words* moved
  between a pair of adjacent memory levels;
* **latency** (a count): total number of *messages* moved, where a
  message is a bundle of consecutively stored words of size at most
  the receiving memory's capacity.

Reads (slow → fast) and writes (fast → slow) are tracked separately
because several of the paper's exact counts (e.g. the naïve
algorithms in §3.1.4–3.1.5) distinguish them; ``words`` and
``messages`` report the totals used in Tables 1 and 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CommCounters:
    """Mutable word/message counters for one memory boundary."""

    words_read: int = 0
    words_written: int = 0
    messages_read: int = 0
    messages_written: int = 0

    @property
    def words(self) -> int:
        """Total bandwidth cost (read + write), in words."""
        return self.words_read + self.words_written

    @property
    def messages(self) -> int:
        """Total latency cost (read + write), in messages."""
        return self.messages_read + self.messages_written

    def add_read(self, words: int, messages: int) -> None:
        """Charge a slow-to-fast transfer of ``words`` in ``messages``."""
        if words < 0 or messages < 0:
            raise ValueError("counter increments must be non-negative")
        self.words_read += words
        self.messages_read += messages

    def add_write(self, words: int, messages: int) -> None:
        """Charge a fast-to-slow transfer of ``words`` in ``messages``."""
        if words < 0 or messages < 0:
            raise ValueError("counter increments must be non-negative")
        self.words_written += words
        self.messages_written += messages

    def add_batch(
        self,
        read_words: int,
        read_messages: int,
        write_words: int,
        write_messages: int,
    ) -> None:
        """Charge a whole transfer batch's totals in one call.

        Equivalent to one :meth:`add_read` plus one :meth:`add_write`;
        exists so a charge plan's batch of any size costs O(1)
        counter work.
        """
        if min(read_words, read_messages, write_words, write_messages) < 0:
            raise ValueError("counter increments must be non-negative")
        self.words_read += read_words
        self.messages_read += read_messages
        self.words_written += write_words
        self.messages_written += write_messages

    def merge(self, other: "CommCounters") -> None:
        """Accumulate another counter set into this one."""
        self.words_read += other.words_read
        self.words_written += other.words_written
        self.messages_read += other.messages_read
        self.messages_written += other.messages_written

    def snapshot(self) -> "CommCounters":
        """An independent copy (used by benches to diff phases)."""
        return CommCounters(
            self.words_read,
            self.words_written,
            self.messages_read,
            self.messages_written,
        )

    def __sub__(self, other: "CommCounters") -> "CommCounters":
        return CommCounters(
            self.words_read - other.words_read,
            self.words_written - other.words_written,
            self.messages_read - other.messages_read,
            self.messages_written - other.messages_written,
        )


@dataclass
class MemoryLevel:
    """One fast-memory level of the hierarchy.

    ``capacity`` is the level's size M in words.  ``counters`` counts
    the traffic crossing the boundary between this level and the next
    slower one.  ``peak_resident`` records the largest explicit
    working set the algorithm ever held, so benches can report
    capacity violations (the LAPACK tuning dilemma of §3.2.2) instead
    of silently under-counting.
    """

    capacity: int
    name: str = ""
    counters: CommCounters = field(default_factory=CommCounters)
    peak_resident: int = 0
    fitted_scope_depth: int | None = None  # internal: ideal-cache cutoff marker

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"level capacity must be >= 1, got {self.capacity}")
        if not self.name:
            self.name = f"M={self.capacity}"

    @property
    def words(self) -> int:
        return self.counters.words

    @property
    def messages(self) -> int:
        return self.counters.messages

    @property
    def capacity_violated(self) -> bool:
        """Whether the explicit working set ever exceeded this level."""
        return self.peak_resident > self.capacity

    def note_resident(self, words: int) -> None:
        """Record a working-set size (tracks the peak)."""
        if words > self.peak_resident:
            self.peak_resident = words
