"""Phase spans: attributing machine counters to algorithmic phases.

The paper's evaluation is *counts* — words and messages per memory
boundary (Tables 1–2) — and debugging a count that misses its closed
form requires knowing *which phase* moved the words.  A span is a
nestable, named region of an algorithm (``with prof.span("syrk"):``)
that snapshots the machine's communication counters on entry and exit,
so every word, message and flop is attributed to a phase path like
``chol/trsm/matmul``.

Design constraints (mirrored by the tests):

* **Zero cost when disabled.**  Every machine and network carries a
  :data:`NULL_PROFILER` by default whose ``span()`` returns one shared
  no-op context manager — no allocation, no counter reads, and the
  exact-count assertions of the tier-1 suite are byte-identical with
  observability off.
* **Read-only.**  Spans *never* touch the counters they snapshot;
  enabling observability cannot change a measured count.
* **Reconcilable.**  Counters are monotone and snapshots telescope, so
  the sum of *leaf*-span word deltas equals the machine's total words
  whenever every transfer happens inside some innermost span — which
  the instrumentation of every registered algorithm guarantees and a
  parametrized test enforces.
* **Exception-safe.**  A span closes (and records its delta) even when
  its body raises; the recorder's stack discipline survives failures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, Mapping

#: Fixed counter schema every snapshot uses, in order:
#: total words, total messages, words read, words written, flops.
COUNTER_FIELDS = ("words", "messages", "words_read", "words_written", "flops")

CountersFn = Callable[[], "tuple[int, int, int, int, int]"]


class NullProfiler:
    """The disabled profiler: ``span()`` hands back one shared no-op.

    Algorithms call ``machine.profiler.span(...)`` unconditionally;
    when no recorder is attached this object absorbs the call without
    reading a counter or allocating a context manager.
    """

    __slots__ = ()

    #: Discriminates live recorders from the null profiler without
    #: isinstance checks on hot paths.
    enabled = False

    def span(self, name: str, **attrs: Any) -> "_NullSpan":
        """Return the shared no-op context manager (arguments ignored)."""
        return _NULL_SPAN

    def profile(self) -> None:
        """No recording happened, so there is no profile: ``None``."""
        return None


class _NullSpan:
    """A reusable context manager that does exactly nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()

#: Process-wide disabled profiler; the default ``profiler`` of every
#: machine and network.
NULL_PROFILER = NullProfiler()


@dataclass(frozen=True)
class SpanProfile:
    """One finished span: its counter deltas, timing and children.

    All counter fields are *inclusive* (they cover the children);
    ``self_words`` etc. subtract the children to give the exclusive
    share.  The tree serializes losslessly through
    :meth:`to_dict`/:meth:`from_dict`, which is what experiment
    artifacts store.

    The same type records a served job's trace
    (:mod:`repro.observability.tracing`); there each span also names
    its terminal ``status`` and the ``process`` that recorded it, and
    the job's root carries the ``trace_id``.  Phase profiles leave the
    three empty.
    """

    name: str
    attrs: tuple = ()
    words: int = 0
    messages: int = 0
    words_read: int = 0
    words_written: int = 0
    flops: int = 0
    t_start: float = 0.0
    t_end: float = 0.0
    children: "tuple[SpanProfile, ...]" = ()
    status: str = ""
    process: str = ""
    trace_id: str = ""

    def __iter__(self) -> "Iterator[SpanProfile]":
        """Every span of the tree, depth-first, this one first."""
        yield self
        for c in self.children:
            yield from c

    @property
    def duration(self) -> float:
        """Wall-clock seconds the span was open."""
        return self.t_end - self.t_start

    def shifted(self, dt: float, **changes: Any) -> "SpanProfile":
        """The tree moved ``dt`` seconds later, ``changes`` set on every span."""
        return replace(
            self,
            t_start=self.t_start + dt,
            t_end=self.t_end + dt,
            children=tuple(c.shifted(dt, **changes) for c in self.children),
            **changes,
        )

    @property
    def is_leaf(self) -> bool:
        """Whether the span has no child spans."""
        return not self.children

    @property
    def self_words(self) -> int:
        """Words not attributed to any child span (exclusive share)."""
        return self.words - sum(c.words for c in self.children)

    @property
    def self_messages(self) -> int:
        """Messages not attributed to any child span."""
        return self.messages - sum(c.messages for c in self.children)

    @property
    def self_flops(self) -> int:
        """Flops not attributed to any child span."""
        return self.flops - sum(c.flops for c in self.children)

    def walk(self) -> "Iterator[tuple[str, SpanProfile]]":
        """Yield ``(path, span)`` depth-first.

        Paths join span names with ``/``; siblings sharing a name are
        disambiguated with an occurrence index, e.g.
        ``chol/chol[1]/trsm``.
        """

        def rec(span: "SpanProfile", path: str):
            yield path, span
            counts: dict[str, int] = {}
            for c in span.children:
                counts[c.name] = counts.get(c.name, 0) + 1
            seen: dict[str, int] = {}
            for c in span.children:
                if counts[c.name] > 1:
                    label = f"{c.name}[{seen.get(c.name, 0)}]"
                else:
                    label = c.name
                seen[c.name] = seen.get(c.name, 0) + 1
                yield from rec(c, f"{path}/{label}")

        yield from rec(self, self.name)

    def leaves(self) -> "Iterator[tuple[str, SpanProfile]]":
        """Yield ``(path, span)`` for the leaf spans only."""
        for path, span in self.walk():
            if span.is_leaf:
                yield path, span

    def leaf_total(self, field_name: str = "words") -> int:
        """Sum one counter field over the leaf spans.

        With complete instrumentation (every transfer inside an
        innermost span) ``leaf_total("words")`` equals the machine's
        total words — the reconciliation property the tests assert.
        """
        return sum(getattr(span, field_name) for _, span in self.leaves())

    def to_dict(self) -> dict:
        """JSON-ready nested dict (recursive over children)."""
        out = {
            "name": self.name,
            "attrs": [[k, v] for k, v in self.attrs],
            "words": int(self.words),
            "messages": int(self.messages),
            "words_read": int(self.words_read),
            "words_written": int(self.words_written),
            "flops": int(self.flops),
            "t_start": float(self.t_start),
            "t_end": float(self.t_end),
            "children": [c.to_dict() for c in self.children],
        }
        for key in ("status", "process", "trace_id"):
            if getattr(self, key):
                out[key] = getattr(self, key)
        return out

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "SpanProfile":
        """Rebuild a span tree from :meth:`to_dict` output."""
        return cls(
            name=str(d["name"]),
            attrs=tuple((str(k), v) for k, v in (d.get("attrs") or ())),
            words=int(d.get("words", 0)),
            messages=int(d.get("messages", 0)),
            words_read=int(d.get("words_read", 0)),
            words_written=int(d.get("words_written", 0)),
            flops=int(d.get("flops", 0)),
            t_start=float(d.get("t_start", 0.0)),
            t_end=float(d.get("t_end", 0.0)),
            children=tuple(
                cls.from_dict(c) for c in (d.get("children") or ())
            ),
            status=str(d.get("status", "")),
            process=str(d.get("process", "")),
            trace_id=str(d.get("trace_id", "")),
        )


class _LiveSpan:
    """Mutable in-flight span node (finalized into a SpanProfile on exit)."""

    __slots__ = ("name", "attrs", "entry", "t_start", "children")

    def __init__(self, name: str, attrs: tuple) -> None:
        self.name = name
        self.attrs = attrs
        self.entry: tuple = ()
        self.t_start = 0.0
        self.children: list[SpanProfile] = []


class _SpanContext:
    """Context manager for one live span (created per ``span()`` call)."""

    __slots__ = ("_recorder", "_node")

    def __init__(self, recorder: "SpanRecorder", name: str, attrs: tuple) -> None:
        self._recorder = recorder
        self._node = _LiveSpan(name, attrs)

    def __enter__(self) -> "_SpanContext":
        self._recorder._push(self._node)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._recorder._pop(self._node)
        return False  # never swallow exceptions


class SpanRecorder:
    """Records a tree of phase spans against one counter source.

    Parameters
    ----------
    counters_fn:
        Zero-argument callable returning the current monotone counter
        tuple ``(words, messages, words_read, words_written, flops)``.
        Use :func:`observe` to build one for a machine or network.
    name:
        Name of the synthetic root span enclosing the whole recording
        (defaults to ``"run"``).

    The recorder opens a root span at construction; :meth:`profile`
    closes a snapshot of it and returns the finished
    :class:`SpanProfile` tree.  ``profile()`` may be called repeatedly
    (e.g. after each of several runs on one machine); each call
    re-snapshots the root.
    """

    #: Live recorders are "enabled"; see :class:`NullProfiler`.
    enabled = True

    def __init__(
        self,
        counters_fn: CountersFn,
        *,
        name: str = "run",
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._counters = counters_fn
        self._clock = clock
        self._t0 = clock()
        root = _LiveSpan(name, ())
        root.entry = tuple(counters_fn())
        root.t_start = 0.0
        self._stack: list[_LiveSpan] = [root]

    # -- recording ------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a named child span of the innermost open span.

        ``attrs`` annotate the span (e.g. ``j=k`` for a panel index)
        and ride into the profile and the Chrome trace ``args``.
        """
        frozen = tuple(sorted((str(k), v) for k, v in attrs.items())) if attrs else ()
        return _SpanContext(self, name, frozen)

    def _push(self, node: _LiveSpan) -> None:
        node.entry = tuple(self._counters())
        node.t_start = self._clock() - self._t0
        self._stack.append(node)

    def _pop(self, node: _LiveSpan) -> None:
        if self._stack[-1] is not node:
            raise RuntimeError(
                f"span {node.name!r} closed out of order; "
                f"innermost open span is {self._stack[-1].name!r}"
            )
        self._stack.pop()
        self._stack[-1].children.append(self._finalize(node))

    def _finalize(self, node: _LiveSpan) -> SpanProfile:
        exit_snap = tuple(self._counters())
        delta = tuple(b - a for a, b in zip(node.entry, exit_snap))
        return SpanProfile(
            name=node.name,
            attrs=node.attrs,
            words=delta[0],
            messages=delta[1],
            words_read=delta[2],
            words_written=delta[3],
            flops=delta[4],
            t_start=node.t_start,
            t_end=self._clock() - self._t0,
            children=tuple(node.children),
        )

    # -- results --------------------------------------------------------

    @property
    def depth(self) -> int:
        """How many spans are currently open (excluding the root)."""
        return len(self._stack) - 1

    def profile(self) -> SpanProfile:
        """Finalize a snapshot of the root span and return the tree.

        Raises ``RuntimeError`` if spans are still open — a profile of
        a half-finished phase would mis-attribute its traffic.
        """
        if len(self._stack) != 1:
            open_names = [s.name for s in self._stack[1:]]
            raise RuntimeError(f"spans still open: {open_names}")
        return self._finalize(self._stack[0])


def _machine_counters_fn(machine) -> CountersFn:
    """Counter source for a DAM machine: its fastest-level boundary."""
    level = machine.levels[0]

    def fn() -> tuple:
        c = level.counters
        wr, ww = c.words_read, c.words_written
        return (
            wr + ww,
            c.messages_read + c.messages_written,
            wr,
            ww,
            machine.flops,
        )

    return fn


def _network_counters_fn(network) -> CountersFn:
    """Counter source for the α-β network: critical-path quantities.

    The DAM read/write split does not exist on the network, so
    ``words_read`` mirrors the critical words and ``words_written`` is
    0, matching the :class:`~repro.results.Measurement` convention.
    """

    def fn() -> tuple:
        w = network.critical_words
        return (w, network.critical_messages, w, 0, network.max_flops)

    return fn


def observe(target, *, name: str = "run") -> SpanRecorder:
    """Attach a fresh :class:`SpanRecorder` to a machine or network.

    ``target`` is a :class:`~repro.machine.core.HierarchicalMachine`
    (or subclass) or a :class:`~repro.parallel.network.Network`; it is
    recognized by duck type (``levels`` vs ``critical_words``).  The
    recorder replaces ``target.profiler`` so the instrumented
    algorithms start recording, and is returned for later
    ``.profile()`` reads.
    """
    if hasattr(target, "levels"):
        fn = _machine_counters_fn(target)
    elif hasattr(target, "critical_words"):
        fn = _network_counters_fn(target)
    else:
        raise TypeError(
            f"cannot observe {type(target).__name__}: expected a machine "
            "(with .levels) or a network (with .critical_words)"
        )
    recorder = SpanRecorder(fn, name=name)
    target.profiler = recorder
    return recorder


__all__ = [
    "COUNTER_FIELDS",
    "NULL_PROFILER",
    "NullProfiler",
    "SpanProfile",
    "SpanRecorder",
    "observe",
]
