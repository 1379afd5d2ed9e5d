"""Distributed tracing: one served job as one span tree, client to leaf phase.

The phase profiler (:mod:`repro.observability.spans`) attributes every
simulated word, message and flop to an algorithm phase inside one
process.  A served job crosses client → front door → shard subprocess →
engine → shared store; this module follows it across those hops with
the *same* span type.  A traced job is one
:class:`~repro.observability.spans.SpanProfile` tree::

    job                     front door (or a standalone service)
    ├── route               which shard took the job (zero width)
    ├── queue               shard: submission → worker pop
    ├── execute | cache | degrade | failed | admission
    │   └── <phase tree>    observed runs: the engine's SpanProfile
    └── resolve             response transit back to the front door

The terminal stage carries the job's counters; the phase tree of an
observed run hangs under ``execute``, shifted to start where
``execute`` starts, and only when its leaf totals equal ``execute``'s
counters.  Each span stores what its position in the tree cannot
give: ``status``, the recording ``process``, and (on the root) the
``trace_id``.

* :class:`TraceContext` — the W3C-trace-context-shaped triple minted at
  submission and carried in the job's wire document.
* :func:`trace_records` / :func:`trace_from_records` — the response
  wire form: one flat record per span, ids minted from tree position.
* :func:`validate_trace` — the leaf-reconciliation invariant: the leaf
  spans' counters sum exactly to the job's measured totals.
* :func:`trace_coverage` and :func:`canonical_trace` — how much of the
  client-observed window the stages explain, and the placement- and
  time-free form the determinism suite compares.

Chrome export of job traces is
:func:`repro.observability.export.write_chrome_trace`, the exporter
``repro trace`` uses for phase profiles.

Determinism
-----------

Trace ids are **content-derived**: :func:`mint_trace_id` hashes the
job's spec cache key (:meth:`SpecPoint.key`), and a span's id hashes
``(trace_id, parent span id, name, occurrence)`` where the occurrence
is the span's index among its same-named siblings.  Ids are computed
only where a trace leaves memory — the wire, :func:`canonical_trace`
and the Chrome export.  With the inline cluster's shared
:class:`~repro.serving.clock.ManualClock`, two runs of the same workload
— at *any* shard count — produce byte-identical :func:`canonical_trace`
forms.  The canonical form excludes the ``process`` label, the clock
readings, the placement attributes and the schedule-cache state
(:data:`VOLATILE_ATTRS`).

Zero cost when disabled
-----------------------

Nothing here runs unless a job carries a :class:`TraceContext`
(``tracing=True`` on the service or cluster front door).  An untraced
job records no span and gains no wire field — the golden equality
suite asserts counters, span trees and fault schedules are unchanged
either way.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping

from repro.observability.spans import SpanProfile

#: Length of a trace id / span id in hex characters (W3C sizes).
TRACE_ID_HEX = 32
SPAN_ID_HEX = 16

#: Name of the root span every traced job gets (front door / service).
ROOT_SPAN = "job"

#: Attribute keys excluded from :func:`canonical_trace`: placement is
#: configuration (which shard owns a key changes with the ring), not
#: trace structure, ``job_id`` comes from a process-global counter, and
#: ``schedule`` (capture/replay/off) depends on what the schedule
#: cache already holds — none may break cross-run / cross-shard-count
#: determinism.
VOLATILE_ATTRS = frozenset({"shard", "from_shard", "job_id", "schedule"})

#: The three simulated counters a job trace attributes (headline fields
#: of :class:`~repro.results.Measurement`).
COUNTER_KEYS = ("words", "messages", "flops")


def mint_trace_id(key: str) -> str:
    """Derive the 32-hex trace id for a job from its spec cache key.

    Content-derived on purpose: the same spec always yields the same
    trace id, across runs, shard counts and processes — the property
    the inline determinism suite pins down.  Two jobs for an identical
    spec share a trace (they are the same logical work; the Chrome
    export disambiguates instances by ``job_id`` in the event args).
    """
    digest = hashlib.sha256(b"repro-trace:" + key.encode("ascii"))
    return digest.hexdigest()[:TRACE_ID_HEX]


def derive_span_id(
    trace_id: str, parent_span_id: "str | None", name: str, occurrence: int = 0
) -> str:
    """Deterministic 16-hex span id for one named child of a parent."""
    material = f"{trace_id}/{parent_span_id or '-'}/{name}/{occurrence}"
    return hashlib.sha256(material.encode("ascii")).hexdigest()[:SPAN_ID_HEX]


@dataclass(frozen=True)
class TraceContext:
    """The propagated context: where in which trace am I?

    ``span_id`` names the span that owns the context — for the context
    a job carries over the wire, that is the *root* span the front
    door minted; shard-side spans parent themselves under it.
    """

    trace_id: str
    span_id: str
    parent_span_id: "str | None" = None

    def child(self, name: str, occurrence: int = 0) -> "TraceContext":
        """The context a child span of this one would carry."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=derive_span_id(
                self.trace_id, self.span_id, name, occurrence
            ),
            parent_span_id=self.span_id,
        )

    def traceparent(self) -> str:
        """W3C ``traceparent`` header rendering (version 00, sampled)."""
        return f"00-{self.trace_id}-{self.span_id}-01"

    def to_dict(self) -> dict:
        """JSON-ready wire form (rides in the schema-v2 job document)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "TraceContext":
        """Rebuild from :meth:`to_dict` output."""
        parent = d.get("parent_span_id")
        return cls(
            trace_id=str(d["trace_id"]),
            span_id=str(d["span_id"]),
            parent_span_id=None if parent is None else str(parent),
        )


def root_context(point_key: str) -> TraceContext:
    """Mint the root context for a job from its spec cache key."""
    trace_id = mint_trace_id(point_key)
    return TraceContext(
        trace_id=trace_id,
        span_id=derive_span_id(trace_id, None, ROOT_SPAN, 0),
        parent_span_id=None,
    )


# -- building a job's trace ------------------------------------------------


def job_span(
    name: str,
    t_start: float,
    t_end: float,
    *,
    process: str,
    status: str = "",
    counts: "Mapping[str, int] | None" = None,
    children: "Iterable[SpanProfile]" = (),
    trace_id: str = "",
    **attrs: Any,
) -> SpanProfile:
    """One span of a job trace; ``counts`` are its inclusive counters."""
    return SpanProfile(
        name=name,
        attrs=tuple(sorted(attrs.items())),
        t_start=float(t_start),
        t_end=float(t_end),
        status=status,
        process=process,
        trace_id=trace_id,
        children=tuple(children),
        **{k: int(v) for k, v in (counts or {}).items()},
    )


def measured_counts(measurement) -> "dict[str, int]":
    """A measurement's traced counters (all zero when nothing ran)."""
    return {
        k: 0 if measurement is None else int(getattr(measurement, k))
        for k in COUNTER_KEYS
    }


def job_trace(
    job, response, stages: "Iterable[SpanProfile]", *,
    process: str, t_start: float, t_end: float,
) -> SpanProfile:
    """The ``job`` root over ``stages`` for one terminal response.

    The root's counters are the job's inclusive totals; its leaves
    account for them exactly.
    """
    return job_span(
        ROOT_SPAN,
        t_start,
        t_end,
        process=process,
        status=response.status,
        counts=measured_counts(response.measurement),
        children=stages,
        trace_id=job.trace.trace_id,
        algorithm=job.point.algorithm,
        job_id=job.job_id,
    )


def attach_phases(
    stage: SpanProfile, profile: "Mapping[str, Any] | None"
) -> SpanProfile:
    """Hang an observed run's phase tree under its ``execute`` span.

    ``profile`` is the serialized
    :class:`~repro.observability.spans.SpanProfile`
    (``Measurement.profile``), timed from its own recorder's start; it
    is shifted to start at ``stage``'s start, takes ``stage``'s process
    and keeps only the traced counters.  A profile whose leaf totals
    differ from ``stage``'s counters (partial instrumentation) is left
    out rather than breaking the reconciliation invariant.
    """
    if not profile:
        return stage
    phases = SpanProfile.from_dict(profile)
    if any(phases.leaf_total(k) != getattr(stage, k) for k in COUNTER_KEYS):
        return stage
    phases = phases.shifted(
        stage.t_start - phases.t_start,
        process=stage.process,
        words_read=0,
        words_written=0,
    )
    return replace(stage, children=(phases,))


# -- leaving memory: ids, wire records, canonical form ---------------------


class TraceInvariantError(AssertionError):
    """A trace violates a structural or reconciliation invariant."""


def trace_records(trace: SpanProfile) -> "list[dict]":
    """A job trace's wire form: one JSON-ready record per span, root first.

    Ids come from tree position: a child's occurrence is its index
    among the same-named children of its parent.
    """
    records: "list[dict]" = []

    def rec(span: SpanProfile, span_id: str, parent_id: "str | None") -> None:
        records.append({
            "trace_id": trace.trace_id,
            "span_id": span_id,
            "parent_span_id": parent_id,
            "name": span.name,
            "process": span.process,
            "t_start": float(span.t_start),
            "t_end": float(span.t_end),
            "status": span.status,
            "words": int(span.words),
            "messages": int(span.messages),
            "flops": int(span.flops),
            "attrs": [[k, v] for k, v in span.attrs],
        })
        seen: "dict[str, int]" = {}
        for child in span.children:
            occurrence = seen.get(child.name, 0)
            seen[child.name] = occurrence + 1
            rec(
                child,
                derive_span_id(trace.trace_id, span_id, child.name, occurrence),
                span_id,
            )

    rec(trace, derive_span_id(trace.trace_id, None, trace.name), None)
    return records


def trace_from_records(records: "Iterable[Mapping[str, Any]]") -> SpanProfile:
    """Rebuild a job trace from :func:`trace_records` output (any order).

    Raises :class:`TraceInvariantError` on structural breakage: no
    records, several trace ids, zero or several roots, a duplicate span
    id, or a span that does not descend from the root.
    """
    records = list(records)
    if not records:
        raise TraceInvariantError("empty trace")
    trace_ids = {str(r["trace_id"]) for r in records}
    if len(trace_ids) != 1:
        raise TraceInvariantError(f"mixed trace ids: {sorted(trace_ids)}")
    if len({str(r["span_id"]) for r in records}) != len(records):
        raise TraceInvariantError("duplicate span id")
    children: "dict[str | None, list]" = {}
    for r in records:
        parent = r.get("parent_span_id")
        children.setdefault(None if parent is None else str(parent), []).append(r)
    roots = children.get(None, [])
    if len(roots) != 1:
        raise TraceInvariantError(
            f"expected exactly one root span, got {len(roots)}"
        )

    built = 0

    def build(r: Mapping[str, Any], trace_id: str = "") -> SpanProfile:
        nonlocal built
        built += 1
        return SpanProfile(
            name=str(r["name"]),
            attrs=tuple((str(k), v) for k, v in (r.get("attrs") or ())),
            words=int(r.get("words", 0)),
            messages=int(r.get("messages", 0)),
            flops=int(r.get("flops", 0)),
            t_start=float(r.get("t_start", 0.0)),
            t_end=float(r.get("t_end", 0.0)),
            status=str(r.get("status", "")),
            process=str(r.get("process", "")),
            trace_id=trace_id,
            children=tuple(
                build(c) for c in children.get(str(r["span_id"]), ())
            ),
        )

    root = build(roots[0], trace_ids.pop())
    if built != len(records):
        raise TraceInvariantError("spans reference unknown parents")
    return root


def validate_trace(
    trace: SpanProfile, totals: "Mapping[str, int] | None" = None
) -> "dict[str, int]":
    """Check a terminal trace's reconciliation; returns the leaf sums.

    The **leaf** spans' simulated counters must sum exactly to the
    job's totals (pass the terminal response's measurement counts as
    ``totals``; sheds and failures reconcile against zero).  Raises
    :class:`TraceInvariantError` on a mismatch.
    """
    leaf_sums = {k: trace.leaf_total(k) for k in COUNTER_KEYS}
    if totals is not None:
        expect = {k: int(totals.get(k, 0)) for k in COUNTER_KEYS}
        if leaf_sums != expect:
            raise TraceInvariantError(
                f"leaf counter sums {leaf_sums} != job totals {expect}"
            )
    return leaf_sums


def trace_coverage(
    trace: SpanProfile, observed_seconds: "float | None" = None
) -> float:
    """Fraction of the client-observed window covered by non-root spans.

    The union of every *non-root* span interval is measured against
    ``observed_seconds`` (the client-observed latency); when omitted,
    the root span's own duration is the window, since the front door
    opens it at submission and closes it at resolution — the same
    boundary the client observes.  The root itself is excluded from
    the union (it spans the whole window by construction); what is
    measured is how much of that window the recorded *stages* —
    queueing, execution, response transit — actually explain.  Returns
    1.0 for a zero-length window (inline mode's frozen clock).
    """
    window = trace.duration if observed_seconds is None else float(observed_seconds)
    if window <= 0.0:
        return 1.0
    intervals = sorted(
        (s.t_start, s.t_end)
        for child in trace.children
        for s in child
        if s.t_end > s.t_start
    )
    covered = 0.0
    cur_start: "float | None" = None
    cur_end = 0.0
    for start, end in intervals:
        if cur_start is None:
            cur_start, cur_end = start, end
        elif start <= cur_end:
            cur_end = max(cur_end, end)
        else:
            covered += cur_end - cur_start
            cur_start, cur_end = start, end
    if cur_start is not None:
        covered += cur_end - cur_start
    return min(1.0, covered / window)


def canonical_trace(trace: SpanProfile) -> "list[dict]":
    """The placement- and time-free canonical form of one job's trace.

    This is the form the determinism suite compares byte-for-byte
    across runs and across shard counts: span identity, structure,
    status and simulated counters — everything except which process
    recorded a span (``process``), the wall-clock stamps, and the
    :data:`VOLATILE_ATTRS` placement and schedule-cache attributes.
    """
    out = []
    for r in trace_records(trace):
        for key in ("process", "t_start", "t_end"):
            del r[key]
        r["attrs"] = [[k, v] for k, v in r["attrs"] if k not in VOLATILE_ATTRS]
        out.append(r)
    return sorted(out, key=lambda r: (r["span_id"], r["name"]))


__all__ = [
    "COUNTER_KEYS",
    "ROOT_SPAN",
    "SPAN_ID_HEX",
    "TRACE_ID_HEX",
    "VOLATILE_ATTRS",
    "TraceContext",
    "TraceInvariantError",
    "attach_phases",
    "canonical_trace",
    "derive_span_id",
    "job_span",
    "job_trace",
    "measured_counts",
    "mint_trace_id",
    "root_context",
    "trace_coverage",
    "trace_from_records",
    "trace_records",
    "validate_trace",
]
