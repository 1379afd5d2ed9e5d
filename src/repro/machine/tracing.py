"""Event recording for machine runs.

A :class:`MachineTrace` is an append-only list of the transfers and
scopes a machine performed.  Traces exist for three reasons:

1. debugging an algorithm's communication pattern;
2. feeding the LRU cross-validation (`repro.machine.lru`) with the
   exact address stream an explicit algorithm produced;
3. rendering the quantitative counterparts of the paper's Figures
   (which slow-memory runs a layout turns a block access into).

Tracing is off by default — the counters alone are O(1) memory, while
a trace grows with the run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterator, Sequence

from repro.util.intervals import IntervalSet


@dataclass(frozen=True)
class ReadEvent:
    """An explicit slow→fast transfer."""

    intervals: IntervalSet

    @property
    def words(self) -> int:
        return self.intervals.words


@dataclass(frozen=True)
class WriteEvent:
    """An explicit fast→slow transfer."""

    intervals: IntervalSet

    @property
    def words(self) -> int:
        return self.intervals.words


@dataclass(frozen=True)
class ScopeEvent:
    """Entry into an ideal-cache scope (cache-oblivious subproblem)."""

    footprint: IntervalSet
    fitted: Sequence[str] = ()

    @property
    def words(self) -> int:
        return self.footprint.words


@dataclass
class TraceOverflow:
    """Marker standing in for events dropped past ``max_events``.

    Appended once, in place, when a capped trace fills up; ``dropped``
    then counts every event that would have followed.  Transfer
    iteration (:meth:`MachineTrace.transfers`) skips it, so consumers
    of the *recorded* prefix keep working — but an overflowed trace is
    no longer the complete address stream, which
    :meth:`MachineTrace.address_stream` callers (the LRU
    cross-validator) must check via :attr:`MachineTrace.dropped`.
    """

    dropped: int = 0


Event = ReadEvent | WriteEvent | ScopeEvent | TraceOverflow


class MachineTrace:
    """Record of machine events, optionally capped.

    ``max_events`` bounds memory: a long run with tracing enabled
    historically grew the event list without limit.  With a cap, the
    first ``max_events`` events are kept verbatim in a bounded deque,
    then a single :class:`TraceOverflow` marker absorbs (and counts)
    the rest in constant time — no per-append scan, no growth.
    """

    __slots__ = ("events", "max_events", "_overflow", "_room")

    def __init__(
        self,
        events: "Sequence[Event] | None" = None,
        max_events: int | None = None,
    ) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError(
                f"max_events must be >= 1 or None, got {max_events}"
            )
        self.max_events = max_events
        # +1 leaves room for the overflow marker itself
        self.events: Deque[Event] = deque(
            maxlen=None if max_events is None else max_events + 1
        )
        self._overflow: TraceOverflow | None = None
        self._room = float("inf") if max_events is None else max_events
        for ev in events or ():
            self.append(ev)

    def append(self, event: Event) -> None:
        """Record one event (or count it as dropped past the cap)."""
        if self._room > 0:
            self.events.append(event)
            self._room -= 1
            return
        if self._overflow is None:
            self._overflow = TraceOverflow()
            self.events.append(self._overflow)
        self._overflow.dropped += 1

    def clear(self) -> None:
        """Drop all recorded events (reuse the trace between phases)."""
        self.events.clear()
        self._overflow = None
        self._room = float("inf") if self.max_events is None else self.max_events

    @property
    def dropped(self) -> int:
        """How many events were dropped past ``max_events`` (0 if none)."""
        return 0 if self._overflow is None else self._overflow.dropped

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def transfers(self) -> Iterator[ReadEvent | WriteEvent]:
        """Only the explicit transfer events, in order.

        A traced machine is observed, so its runs charge every transfer
        live: the trace holds the whole stream.
        """
        for ev in self.events:
            if isinstance(ev, (ReadEvent, WriteEvent)):
                yield ev

    def address_stream(self) -> Iterator[tuple[int, bool]]:
        """Flatten explicit transfers into ``(address, is_write)`` pairs.

        This is the stream the LRU cross-validator replays.  Scope
        events are skipped: scopes describe charging frontiers, not
        individual word touches.
        """
        for ev in self.transfers():
            is_write = isinstance(ev, WriteEvent)
            for addr in ev.intervals.addresses():
                yield addr, is_write

    def total_words(self) -> int:
        """Total explicit words transferred (reads + writes)."""
        return sum(ev.words for ev in self.transfers())
