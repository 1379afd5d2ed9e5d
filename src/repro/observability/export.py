"""Profile exporters: Chrome ``trace_event`` JSON and text reports.

Two consumers of a :class:`~repro.observability.spans.SpanProfile`:

* :func:`write_chrome_trace` emits the Trace Event Format understood
  by ``chrome://tracing`` and Perfetto — one ``"X"`` (complete) event
  per span, with the counter deltas riding in ``args`` so hovering a
  slice shows its words/messages/flops attribution.  It writes one
  phase profile (``repro trace``) or many served-job traces at once
  (``ServingCluster.write_trace``, ``repro serve --trace-out``);
* :func:`phase_report` renders the span tree as an indented text
  table, and :func:`phase_totals` aggregates the *exclusive* counter
  share per span name (the per-phase attribution the paper's closed
  forms are compared against).

Every emitted trace event carries the schema's required keys ``ph``,
``ts``, ``pid``, ``tid`` and ``name`` (CI validates this on a real
run).  Timestamps are microseconds from the earliest span's start.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.observability.spans import SpanProfile
from repro.observability.tracing import trace_records
from repro.util.serialization import atomic_write_json

#: Wire-record fields a job trace's slices carry in their ``args``.
_TRACE_ARGS = ("trace_id", "span_id", "parent_span_id", "status")


def chrome_trace_events(
    profile: "SpanProfile | Iterable[SpanProfile]", *, pid: int = 0, tid: int = 0
) -> "list[dict[str, Any]]":
    """Flatten span trees into Trace Event Format dicts.

    ``profile`` is one tree or an iterable of them.  Uses ``"X"``
    (complete) events: Chrome nests slices on one thread track by
    their ``ts``/``dur`` containment, which span trees satisfy by
    construction.  Spans recorded by a named ``process`` (served-job
    traces) get one track per process, named by ``thread_name``
    metadata, and a job trace's slices carry its trace and span ids,
    which link one job's slices across tracks.
    """
    trees = (profile,) if isinstance(profile, SpanProfile) else profile
    rows = []
    for tree in trees:
        if not tree.trace_id:
            rows.extend((path, span, {}) for path, span in tree.walk())
            continue
        rows.extend(
            (path, span, {k: r[k] for k in _TRACE_ARGS})
            for (path, span), r in zip(tree.walk(), trace_records(tree))
        )
    processes = sorted({span.process for _, span, _ in rows})
    tids = {name: tid + i for i, name in enumerate(processes)}
    t0 = min((span.t_start for _, span, _ in rows), default=0.0)
    events: "list[dict[str, Any]]" = [
        {
            "ph": "M",
            "ts": 0,
            "pid": pid,
            "tid": tid,
            "name": "process_name",
            "args": {"name": "repro"},
        }
    ]
    events.extend(
        {
            "ph": "M",
            "ts": 0,
            "pid": pid,
            "tid": tids[name],
            "name": "thread_name",
            "args": {"name": name},
        }
        for name in processes
        if name
    )
    for path, span, ids in rows:
        args: "dict[str, Any]" = {
            "path": path,
            "words": span.words,
            "messages": span.messages,
            "words_read": span.words_read,
            "words_written": span.words_written,
            "flops": span.flops,
            **ids,
        }
        args.update(span.attrs)
        events.append(
            {
                "ph": "X",
                "ts": (span.t_start - t0) * 1e6,
                "dur": max(span.duration, 0.0) * 1e6,
                "pid": pid,
                "tid": tids[span.process],
                "name": span.name,
                "cat": "span",
                "args": args,
            }
        )
    return events


def write_chrome_trace(
    profile: "SpanProfile | Iterable[SpanProfile]",
    path: str,
    *,
    pid: int = 0,
    tid: int = 0,
) -> str:
    """Write a ``chrome://tracing``-loadable JSON file; returns the path."""
    payload = {
        "traceEvents": chrome_trace_events(profile, pid=pid, tid=tid),
        "displayTimeUnit": "ms",
    }
    return atomic_write_json(path, payload, indent=1)


def phase_totals(profile: SpanProfile) -> "dict[str, dict[str, int]]":
    """Aggregate *exclusive* counter shares by span name.

    Exclusive shares partition the root's totals (each word is counted
    in exactly one innermost span), so the returned per-name sums add
    up to the run's total words/messages/flops — the per-phase
    attribution report.
    """
    totals: "dict[str, dict[str, int]]" = {}
    for _path, span in profile.walk():
        rec = totals.setdefault(
            span.name, {"words": 0, "messages": 0, "flops": 0, "spans": 0}
        )
        rec["words"] += span.self_words
        rec["messages"] += span.self_messages
        rec["flops"] += span.self_flops
        rec["spans"] += 1
    return totals


def phase_report(profile: SpanProfile, *, max_depth: int | None = None) -> str:
    """Render the span tree and per-phase totals as plain text.

    ``max_depth`` truncates the tree listing (the per-name totals
    always cover the full tree).
    """
    lines = ["phase attribution (inclusive counts per span)", ""]
    header = f"{'span':<44} {'words':>10} {'msgs':>8} {'flops':>12}"
    lines.append(header)
    lines.append("-" * len(header))
    for path, span in profile.walk():
        depth = path.count("/")
        if max_depth is not None and depth > max_depth:
            continue
        label = "  " * depth + span.name
        if span.attrs:
            label += "(" + ",".join(f"{k}={v}" for k, v in span.attrs) + ")"
        lines.append(
            f"{label:<44} {span.words:>10} {span.messages:>8} {span.flops:>12}"
        )
    lines.append("")
    lines.append("exclusive totals by phase name")
    header2 = f"{'phase':<20} {'spans':>7} {'words':>10} {'msgs':>8} {'flops':>12}"
    lines.append(header2)
    lines.append("-" * len(header2))
    totals = phase_totals(profile)
    for name in sorted(totals):
        rec = totals[name]
        lines.append(
            f"{name:<20} {rec['spans']:>7} {rec['words']:>10} "
            f"{rec['messages']:>8} {rec['flops']:>12}"
        )
    total = profile.words
    leaf = profile.leaf_total("words")
    lines.append("")
    lines.append(
        f"total words={total}  leaf-span words={leaf}  "
        f"({'reconciled' if total == leaf else 'UNATTRIBUTED TRAFFIC'})"
    )
    return "\n".join(lines) + "\n"


def metrics_main(argv: "list[str] | None" = None) -> int:
    """``repro metrics``: render a metrics snapshot as Prometheus text.

    With ``--from FILE`` the JSON dump a serve run wrote via
    ``--metrics-out`` (a :meth:`MetricsRegistry.to_dict` document) is
    loaded into a fresh registry and rendered; without it, the
    process-wide registry's current contents are rendered — what a
    ``/metrics`` scrape of this process would return.
    """
    import argparse

    from repro.observability.metrics import METRICS, MetricsRegistry

    parser = argparse.ArgumentParser(
        prog="repro metrics",
        description="Render a Prometheus-style metrics exposition.",
    )
    parser.add_argument(
        "--from",
        dest="source",
        metavar="FILE",
        default=None,
        help="render a previously written JSON metrics dump "
        "(default: this process's live registry)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the JSON dump form instead of Prometheus text",
    )
    args = parser.parse_args(argv)

    if args.source is None:
        registry = METRICS
    else:
        registry = MetricsRegistry()
        with open(args.source, "r", encoding="utf-8") as fh:
            registry.load_dict(json.load(fh))
    if args.json:
        print(json.dumps(registry.to_dict(), indent=1, sort_keys=True))
    else:
        print(registry.render_text(), end="")
    return 0


__all__ = [
    "chrome_trace_events",
    "metrics_main",
    "phase_report",
    "phase_totals",
    "write_chrome_trace",
]
