"""Shard telemetry bus: structured events from shards to the front door.

The cluster's shards already talk to the front door over duplex pipes
(results, heartbeats, health) — but everything *interesting* that
happens inside a shard (a job shed at admission, a breaker tripping, a
store lookup served from the shared tier, a retry) was only visible as
whichever metric the shard's own registry incremented, and in process
mode that registry lives in the child and dies with it.  This module
gives those moments a first-class representation:

* :class:`TelemetryEvent` — one structured occurrence on one shard
  (``kind``, shard name, injected-clock timestamp, frozen attrs) with
  an exact JSON wire round-trip.
* :class:`TelemetryBus` — a bounded in-memory ring the emitting side
  appends to; in process mode the shard main loop drains it
  (:meth:`TelemetryBus.drain_wire`) into ``{"op": "telemetry"}``
  batches piggybacked on the existing pipe, flushed after each result
  and on every heartbeat tick.
* :class:`ClusterTelemetry` — the front door's aggregator: ingests
  events from every shard (inline callbacks or pipe batches), keeps a
  bounded recent-events window for ``repro top``, and publishes
  per-shard-labeled series into the shared metrics registry
  (``repro_telemetry_events_total{shard,kind}``,
  ``repro_shard_queue_wait_seconds{shard}``,
  ``repro_shard_store_events_total{shard,tier}``,
  ``repro_cluster_breaker_state{shard,algorithm}``).

Event kinds emitted by the serving layer:

=================  ========================================================
kind               meaning / attrs
=================  ========================================================
``queue_wait``     job left the queue; ``seconds``, ``job_id``, ``priority``
``shed``           admission refused a job; ``reason``, ``job_id``
``degraded``       degradation ladder served a job; ``reason``, ``job_id``
``done``           job served exactly; ``job_id``, ``cached`` (bool)
``failed``         job failed terminally; ``reason``, ``job_id``
``retry``          one attempt failed and will be retried; ``algorithm``
``breaker``        breaker transition; ``algorithm``, ``to`` (state name)
``canary``         half-open probe outcome; ``algorithm``, ``outcome``
``store``          store-view lookup; ``tier`` (memory/shared/disk/miss)
``heartbeat``      shard liveness tick (process mode); ``inflight``
``warm``           respawned shard pre-warmed from the store; ``count``
``respawn``        supervisor restarted a dead shard; ``restarts``
``recovered``      journal replay resubmitted jobs; replay counts
=================  ========================================================

Zero cost when disabled: services emit through an optional ``on_event``
callable that defaults to ``None`` — no event object is ever built,
matching the null-profiler discipline PR 2 established (and the golden
equality suite enforces).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.observability.metrics import METRICS, MetricsRegistry

#: Bucket bounds for ``repro_shard_queue_wait_seconds`` (seconds).
QUEUE_WAIT_BUCKETS = (
    0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0
)

#: Breaker state name -> gauge value (mirrors repro_service_breaker_state).
BREAKER_STATES = {"closed": 0, "half-open": 1, "open": 2}


@dataclass(frozen=True)
class TelemetryEvent:
    """One structured occurrence on one shard at one (injected) clock time."""

    kind: str
    shard: str
    t: float = 0.0
    attrs: "tuple[tuple[str, Any], ...]" = ()

    def attr(self, key: str, default: Any = None) -> Any:
        """One attribute value by key."""
        for k, v in self.attrs:
            if k == key:
                return v
        return default

    def to_wire(self) -> dict:
        """JSON-ready form shipped over the shard pipe."""
        return {
            "kind": self.kind,
            "shard": self.shard,
            "t": float(self.t),
            "attrs": [[k, v] for k, v in self.attrs],
        }

    @classmethod
    def from_wire(cls, d: Mapping[str, Any]) -> "TelemetryEvent":
        """Rebuild from :meth:`to_wire` output."""
        return cls(
            kind=str(d["kind"]),
            shard=str(d["shard"]),
            t=float(d.get("t", 0.0)),
            attrs=tuple((str(k), v) for k, v in (d.get("attrs") or ())),
        )


def make_event(
    kind: str, shard: str, t: float, attrs: "Mapping[str, Any] | None" = None
) -> TelemetryEvent:
    """Build an event with deterministically ordered attrs."""
    frozen = (
        () if not attrs else tuple(sorted((str(k), v) for k, v in attrs.items()))
    )
    return TelemetryEvent(kind=str(kind), shard=str(shard), t=float(t),
                          attrs=frozen)


class TelemetryBus:
    """Bounded event ring for one emitting process (shard side).

    ``emit`` appends and fans out to subscribers; ``drain_wire`` hands
    the pending batch to the pipe flusher exactly once.  Thread-safe:
    a shard's worker threads emit while the ops loop drains.
    """

    def __init__(self, shard: str, *, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.shard = str(shard)
        self._recent: "deque[TelemetryEvent]" = deque(maxlen=capacity)
        self._outbox: "deque[TelemetryEvent]" = deque(maxlen=capacity)
        self._subscribers: "list[Callable[[TelemetryEvent], None]]" = []
        self._counts: "dict[str, int]" = {}
        self._lock = threading.Lock()

    def emit(
        self, kind: str, t: float, attrs: "Mapping[str, Any] | None" = None
    ) -> TelemetryEvent:
        """Record one event; returns it (mostly for tests)."""
        event = make_event(kind, self.shard, t, attrs)
        with self._lock:
            self._recent.append(event)
            self._outbox.append(event)
            self._counts[event.kind] = self._counts.get(event.kind, 0) + 1
            subscribers = tuple(self._subscribers)
        for fn in subscribers:
            fn(event)
        return event

    def subscribe(self, fn: "Callable[[TelemetryEvent], None]") -> None:
        """Register a callback invoked synchronously on every emit."""
        with self._lock:
            self._subscribers.append(fn)

    def counts(self) -> "dict[str, int]":
        """Exact per-kind totals since construction."""
        with self._lock:
            return dict(self._counts)

    def recent(self, limit: "int | None" = None) -> "tuple[TelemetryEvent, ...]":
        """The most recent retained events, oldest first."""
        with self._lock:
            events = tuple(self._recent)
        return events if limit is None else events[-limit:]

    def drain_wire(self) -> "list[dict]":
        """Remove and return all pending events in wire form.

        The process-mode shard loop calls this after each result and on
        every heartbeat tick, shipping the batch as one
        ``{"op": "telemetry", "events": [...]}`` pipe message.
        """
        with self._lock:
            batch = [e.to_wire() for e in self._outbox]
            self._outbox.clear()
        return batch


class ClusterTelemetry:
    """Front-door aggregator over every shard's events.

    One instance per cluster; shard reader threads and inline pumps
    both feed :meth:`ingest`, so all state is lock-guarded and all
    registry publishing goes through the (now thread-safe) metrics
    instruments.
    """

    def __init__(
        self,
        *,
        registry: "MetricsRegistry | None" = None,
        capacity: int = 4096,
    ) -> None:
        self.registry = registry if registry is not None else METRICS
        self._recent: "deque[TelemetryEvent]" = deque(maxlen=capacity)
        self._counts: "dict[tuple[str, str], int]" = {}
        self._lock = threading.Lock()

    # -- ingestion ---------------------------------------------------------

    def ingest(self, event: TelemetryEvent) -> None:
        """Account one event and publish its per-shard metrics."""
        with self._lock:
            self._recent.append(event)
            key = (event.shard, event.kind)
            self._counts[key] = self._counts.get(key, 0) + 1
        reg = self.registry
        reg.counter(
            "repro_telemetry_events_total", shard=event.shard, kind=event.kind
        ).inc()
        if event.kind == "queue_wait":
            reg.histogram(
                "repro_shard_queue_wait_seconds",
                buckets=QUEUE_WAIT_BUCKETS,
                shard=event.shard,
            ).observe(float(event.attr("seconds", 0.0)))
        elif event.kind == "store":
            reg.counter(
                "repro_shard_store_events_total",
                shard=event.shard,
                tier=str(event.attr("tier", "unknown")),
            ).inc()
        elif event.kind == "breaker":
            state = str(event.attr("to", "closed"))
            reg.gauge(
                "repro_cluster_breaker_state",
                shard=event.shard,
                algorithm=str(event.attr("algorithm", "")),
            ).set(BREAKER_STATES.get(state, -1))

    # -- reads -------------------------------------------------------------

    def counts(self) -> "dict[str, dict[str, int]]":
        """Exact per-shard per-kind totals (shard -> kind -> count)."""
        out: "dict[str, dict[str, int]]" = {}
        with self._lock:
            items = sorted(self._counts.items())
        for (shard, kind), n in items:
            out.setdefault(shard, {})[kind] = n
        return out

    def recent(self, limit: "int | None" = None) -> "tuple[TelemetryEvent, ...]":
        """The most recent retained events across all shards, oldest first."""
        with self._lock:
            events = tuple(self._recent)
        return events if limit is None else events[-limit:]

    @property
    def total(self) -> int:
        """All events ever ingested."""
        with self._lock:
            return sum(self._counts.values())


__all__ = [
    "BREAKER_STATES",
    "QUEUE_WAIT_BUCKETS",
    "ClusterTelemetry",
    "TelemetryBus",
    "TelemetryEvent",
    "make_event",
]
