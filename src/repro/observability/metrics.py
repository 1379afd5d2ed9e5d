"""Process-wide metrics: labeled counters, gauges and histograms.

One registry serves the whole process (:data:`METRICS`), the way a
production service would run a single metrics endpoint: the machine
publishes its per-level counters, the experiment engine its cache
hits/misses and per-point wall times, the result cache its lookup
outcomes.  Consumers read :meth:`MetricsRegistry.render_text` (a
Prometheus-style exposition) or :meth:`MetricsRegistry.to_dict`
(JSON-ready).

Metric names used by the library (all under the ``repro_`` prefix):

====================================  =========  =============================
name                                  type       labels
====================================  =========  =============================
``repro_runs_total``                  counter    ``kind``, ``algorithm``
``repro_run_words_total``             counter    ``kind``, ``algorithm``
``repro_run_messages_total``          counter    ``kind``, ``algorithm``
``repro_run_flops_total``             counter    ``kind``, ``algorithm``
``repro_cache_lookups_total``         counter    ``result`` (hit/miss/corrupt)
``repro_schedule_cache_hits_total``   counter    ``tier`` (memory/disk)
``repro_schedule_cache_misses_total``  counter    —
``repro_store_write_failures_total``  counter    ``store`` (result/schedule)
``repro_schedule_events_total``       counter    ``event`` (capture/replay/
                                                 apply-mismatch)
``repro_engine_points_total``         counter    ``source`` (cache/computed)
``repro_engine_retries_total``        counter    ``kind``
``repro_engine_failures_total``       counter    ``kind``
``repro_engine_timeouts_total``       counter    ``kind``
``repro_point_wall_seconds``          histogram  ``kind``
``repro_simulator_wallclock_seconds``  histogram  ``kind``, ``algorithm``
``repro_batched_fastpath_hits_total``  counter    ``kind``, ``algorithm``
``repro_machine_words``               gauge      ``level``
``repro_machine_messages``            gauge      ``level``
``repro_machine_peak_resident``       gauge      ``level``
``repro_machine_flops``               gauge      —
``repro_faults_injected_total``       counter    ``kind`` (drop/duplicate/
                                                 corrupt/failstop/read)
``repro_fault_words_total``           counter    ``kind`` (resend/checkpoint/
                                                 recovery/read_retry)
``repro_fault_messages_total``        counter    ``kind`` (resend/ack/
                                                 checkpoint/recovery/
                                                 read_retry)
``repro_fault_backoff_time_total``    counter    — (α-units of waiting)
``repro_abft_injected_total``         counter    ``kind`` (single/double)
``repro_abft_detected_total``         counter    —
``repro_abft_corrected_total``        counter    —
``repro_abft_double_faults_total``    counter    —
``repro_abft_retries_total``          counter    —
``repro_abft_overhead_total``         counter    ``unit`` (words/
                                                 messages/flops)
``repro_abft_verified_runs_total``    counter    —
``repro_service_jobs_total``          counter    ``status``, ``priority``
``repro_service_shed_total``          counter    ``reason`` (queue-full/
                                                 evicted/shutdown)
``repro_service_degraded_total``      counter    ``reason`` (budget-*/
                                                 breaker-open/deadline/…)
``repro_service_queue_depth``         gauge      —
``repro_service_inflight``            gauge      —
``repro_service_breaker_state``       gauge      ``algorithm`` (0 closed/
                                                 1 half-open/2 open)
``repro_service_breaker_transitions_total``  counter  ``algorithm``, ``to``
``repro_service_job_wall_seconds``    histogram  ``priority``
``repro_service_canary_runs_total``   counter    ``algorithm``, ``outcome``
``repro_service_retries_total``       counter    ``algorithm``
``repro_telemetry_events_total``      counter    ``shard``, ``kind``
``repro_shard_queue_wait_seconds``    histogram  ``shard``
``repro_shard_store_events_total``    counter    ``shard``, ``tier``
``repro_cluster_breaker_state``       gauge      ``shard``, ``algorithm``
``repro_slo_latency_seconds``         histogram  ``algorithm``, ``status``
``repro_slo_availability``            gauge      ``objective``
``repro_slo_error_budget_burn``       gauge      ``objective``
``repro_slo_violations_total``        counter    ``objective``
====================================  =========  =============================

Instruments are cheap (one dict lookup + integer add) but they are
*not* on the per-transfer hot path: the simulators publish once per
run, never per word.

Thread safety: the cluster front door aggregates telemetry from shard
reader threads while the monitor thread publishes health, so every
instrument guards its mutations with a lock and the registry guards
series creation and dumps.  Lock scope is one increment or one dump —
no instrument lock is ever held while taking the registry lock.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Mapping

#: Default histogram bucket upper bounds (seconds-flavored).
DEFAULT_BUCKETS = (0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0, 60.0)


class MetricsError(ValueError):
    """Misuse of the registry (type conflict, bad increment, ...)."""


def _freeze_labels(labels: Mapping[str, Any]) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class CounterMetric:
    """A monotonically increasing count for one label set."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise MetricsError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self.value += amount


class GaugeMetric:
    """A point-in-time value for one label set (set, not accumulated)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value: float | int = 0
        self._lock = threading.Lock()

    def set(self, value: int | float) -> None:
        """Record the current value."""
        with self._lock:
            self.value = value


class HistogramMetric:
    """A distribution summary: count/sum/min/max plus bucket counts."""

    __slots__ = (
        "buckets", "bucket_counts", "count", "total", "min", "max", "_lock"
    )

    def __init__(self, buckets: "tuple[float, ...]" = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # +1 = +Inf
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: int | float) -> None:
        """Record one sample."""
        v = float(value)
        with self._lock:
            self.count += 1
            self.total += v
            self.min = v if self.min is None else min(self.min, v)
            self.max = v if self.max is None else max(self.max, v)
            for i, bound in enumerate(self.buckets):
                if v <= bound:
                    self.bucket_counts[i] += 1
                    return
            self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        """Average of the recorded samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Named, labeled instrument store with text and JSON dumps.

    ``counter``/``gauge``/``histogram`` return the instrument for a
    (name, labels) pair, creating it on first use; re-using a name
    with a different instrument type raises :class:`MetricsError`.
    """

    _TYPES = {
        "counter": CounterMetric,
        "gauge": GaugeMetric,
        "histogram": HistogramMetric,
    }

    def __init__(self) -> None:
        # name -> {"type": str, "series": {labels_tuple: instrument}}
        self._metrics: "dict[str, dict]" = {}
        self._lock = threading.RLock()

    def _series(self, kind: str, name: str, labels: Mapping[str, Any], **kw):
        with self._lock:
            entry = self._metrics.get(name)
            if entry is None:
                entry = {"type": kind, "series": {}}
                self._metrics[name] = entry
            elif entry["type"] != kind:
                raise MetricsError(
                    f"metric {name!r} already registered as {entry['type']}, "
                    f"requested as {kind}"
                )
            key = _freeze_labels(labels)
            inst = entry["series"].get(key)
            if inst is None:
                inst = self._TYPES[kind](**kw)
                entry["series"][key] = inst
            return inst

    def counter(self, name: str, **labels: Any) -> CounterMetric:
        """The counter for ``name`` with this label set."""
        return self._series("counter", name, labels)

    def gauge(self, name: str, **labels: Any) -> GaugeMetric:
        """The gauge for ``name`` with this label set."""
        return self._series("gauge", name, labels)

    def histogram(
        self,
        name: str,
        *,
        buckets: "Iterable[float] | None" = None,
        **labels: Any,
    ) -> HistogramMetric:
        """The histogram for ``name`` with this label set.

        ``buckets`` applies only on first creation of the series.
        """
        kw = {} if buckets is None else {"buckets": tuple(buckets)}
        return self._series("histogram", name, labels, **kw)

    # -- reads -----------------------------------------------------------

    def value(self, name: str, **labels: Any):
        """Current value of a counter/gauge series, or ``None`` if absent.

        For histograms returns the :class:`HistogramMetric` itself.
        """
        with self._lock:
            entry = self._metrics.get(name)
            if entry is None:
                return None
            inst = entry["series"].get(_freeze_labels(labels))
        if inst is None:
            return None
        return inst if isinstance(inst, HistogramMetric) else inst.value

    def names(self) -> "tuple[str, ...]":
        """All registered metric names, sorted."""
        with self._lock:
            return tuple(sorted(self._metrics))

    def to_dict(self) -> dict:
        """JSON-ready dump of every series."""
        out: dict = {}
        with self._lock:
            names = sorted(self._metrics)
        for name in names:
            entry = self._metrics[name]
            series = []
            for key in sorted(entry["series"]):
                inst = entry["series"][key]
                rec: dict = {"labels": dict(key)}
                if isinstance(inst, HistogramMetric):
                    rec.update(
                        count=inst.count,
                        sum=inst.total,
                        min=inst.min,
                        max=inst.max,
                        buckets=[
                            {"le": b, "count": c}
                            for b, c in zip(
                                list(inst.buckets) + ["+Inf"],
                                inst.bucket_counts,
                            )
                        ],
                    )
                else:
                    rec["value"] = inst.value
                series.append(rec)
            out[name] = {"type": entry["type"], "series": series}
        return out

    def load_dict(self, doc: Mapping[str, Any]) -> None:
        """Reconstruct series from a :meth:`to_dict` dump.

        The inverse of :meth:`to_dict`, used by ``repro metrics`` to
        render a previously written JSON snapshot (e.g. the
        ``--metrics-out`` artifact of a serve run) as Prometheus text.
        Loaded series merge over whatever the registry already holds;
        call :meth:`reset` first for a clean render.
        """
        for name, entry in doc.items():
            kind = entry.get("type")
            if kind not in self._TYPES:
                raise MetricsError(f"metric {name!r} has unknown type {kind!r}")
            for rec in entry.get("series", ()):
                labels = dict(rec.get("labels", {}))
                if kind == "counter":
                    self._series("counter", name, labels).value = rec["value"]
                elif kind == "gauge":
                    self._series("gauge", name, labels).value = rec["value"]
                else:
                    buckets = tuple(
                        b["le"] for b in rec["buckets"] if b["le"] != "+Inf"
                    )
                    hist = self._series(
                        "histogram", name, labels, buckets=buckets
                    )
                    hist.count = rec["count"]
                    hist.total = rec["sum"]
                    hist.min = rec["min"]
                    hist.max = rec["max"]
                    hist.bucket_counts = [b["count"] for b in rec["buckets"]]

    def render_text(self) -> str:
        """Prometheus-style plain-text exposition of every series."""
        lines: list[str] = []
        with self._lock:
            names = sorted(self._metrics)
        for name in names:
            entry = self._metrics[name]
            lines.append(f"# TYPE {name} {entry['type']}")
            for key in sorted(entry["series"]):
                inst = entry["series"][key]
                label_str = (
                    "{" + ",".join(f'{k}="{v}"' for k, v in key) + "}"
                    if key
                    else ""
                )
                if isinstance(inst, HistogramMetric):
                    lines.append(f"{name}_count{label_str} {inst.count}")
                    lines.append(f"{name}_sum{label_str} {inst.total:.6g}")
                    for b, c in zip(
                        list(inst.buckets) + ["+Inf"], inst.bucket_counts
                    ):
                        bl = dict(key)
                        bl["le"] = str(b)
                        bstr = "{" + ",".join(
                            f'{k}="{v}"' for k, v in sorted(bl.items())
                        ) + "}"
                        lines.append(f"{name}_bucket{bstr} {c}")
                else:
                    lines.append(f"{name}{label_str} {inst.value}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Drop every registered metric (tests and fresh CLI runs)."""
        with self._lock:
            self._metrics.clear()


#: The process-wide registry the library publishes into.
METRICS = MetricsRegistry()


def publish_machine(machine, registry: "MetricsRegistry | None" = None) -> None:
    """Publish a machine's per-level counters as gauges.

    Called at the end of a run (never per transfer); ``registry``
    defaults to the global :data:`METRICS`.
    """
    reg = registry if registry is not None else METRICS
    for level in machine.levels:
        reg.gauge("repro_machine_words", level=level.name).set(level.words)
        reg.gauge("repro_machine_messages", level=level.name).set(
            level.messages
        )
        reg.gauge("repro_machine_peak_resident", level=level.name).set(
            level.peak_resident
        )
    reg.gauge("repro_machine_flops").set(machine.flops)


def publish_run(
    *,
    kind: str,
    algorithm: str,
    words: int,
    messages: int,
    flops: int,
    registry: "MetricsRegistry | None" = None,
) -> None:
    """Publish one completed run's headline counts to the registry."""
    reg = registry if registry is not None else METRICS
    labels = {"kind": kind, "algorithm": algorithm}
    reg.counter("repro_runs_total", **labels).inc()
    reg.counter("repro_run_words_total", **labels).inc(int(words))
    reg.counter("repro_run_messages_total", **labels).inc(int(messages))
    reg.counter("repro_run_flops_total", **labels).inc(int(flops))


def publish_perf(
    *,
    kind: str,
    algorithm: str,
    wall_seconds: float,
    batch_hits: int = 0,
    registry: "MetricsRegistry | None" = None,
) -> None:
    """Publish one run's simulator performance: wall time and batch use.

    ``wall_seconds`` is the wall-clock time the simulation itself took
    (distinct from ``repro_point_wall_seconds``, which times whole
    engine points including setup and verification);  ``batch_hits``
    is the machine's count of planned runs charged as one interval
    batch (:attr:`HierarchicalMachine.batch_hits`).  Called once per
    run, like :func:`publish_run`.
    """
    reg = registry if registry is not None else METRICS
    labels = {"kind": kind, "algorithm": algorithm}
    reg.histogram("repro_simulator_wallclock_seconds", **labels).observe(
        float(wall_seconds)
    )
    reg.counter("repro_batched_fastpath_hits_total", **labels).inc(
        int(batch_hits)
    )


#: FaultStats field → ``repro_faults_injected_total`` label.
_INJECTED_KINDS = (
    ("drops", "drop"),
    ("duplicates", "duplicate"),
    ("corruptions", "corrupt"),
    ("failstops", "failstop"),
    ("read_faults", "read"),
)

#: FaultStats field → (metric suffix, ``kind`` label) for overhead.
_OVERHEAD_KINDS = (
    ("resent_words", "words", "resend"),
    ("checkpoint_words", "words", "checkpoint"),
    ("recovery_words", "words", "recovery"),
    ("read_retry_words", "words", "read_retry"),
    ("resent_messages", "messages", "resend"),
    ("ack_messages", "messages", "ack"),
    ("checkpoint_messages", "messages", "checkpoint"),
    ("recovery_messages", "messages", "recovery"),
    ("read_retry_messages", "messages", "read_retry"),
)


def publish_faults(stats, registry: "MetricsRegistry | None" = None) -> None:
    """Publish one run's realized faults and resilience overhead.

    ``stats`` is a :class:`~repro.faults.FaultStats` (or its
    ``to_dict()`` form).  Injected events land in
    ``repro_faults_injected_total`` by kind; the overhead the protocol
    paid lands in ``repro_fault_words_total`` /
    ``repro_fault_messages_total`` / ``repro_fault_backoff_time_total``.
    Called once per run, like :func:`publish_run`.
    """
    reg = registry if registry is not None else METRICS
    d = stats.to_dict() if hasattr(stats, "to_dict") else dict(stats)
    for field, kind in _INJECTED_KINDS:
        reg.counter("repro_faults_injected_total", kind=kind).inc(
            int(d.get(field, 0))
        )
    for field, suffix, kind in _OVERHEAD_KINDS:
        reg.counter(f"repro_fault_{suffix}_total", kind=kind).inc(
            int(d.get(field, 0))
        )
    reg.counter("repro_fault_backoff_time_total").inc(
        float(d.get("backoff_time", 0.0))
    )


def publish_abft(record, registry: "MetricsRegistry | None" = None) -> None:
    """Publish one run's ABFT detection/correction outcome.

    ``record`` is a ``Measurement.abft`` dict (``{"config", "stats",
    "attestation"}``) or a bare :class:`~repro.abft.AbftStats` /
    stats dict.  Injections land in ``repro_abft_injected_total`` by
    kind, detections/corrections/escalations in their own counters,
    and the checksum overhead the protection paid (words, messages,
    flops — all already charged through the machine/network clocks) in
    ``repro_abft_overhead_total`` by unit.  Called once per run, like
    :func:`publish_run`.
    """
    reg = registry if registry is not None else METRICS
    d = record.to_dict() if hasattr(record, "to_dict") else dict(record)
    d = d.get("stats", d)
    reg.counter("repro_abft_injected_total", kind="single").inc(
        int(d.get("injected_single", 0))
    )
    reg.counter("repro_abft_injected_total", kind="double").inc(
        int(d.get("injected_double", 0))
    )
    reg.counter("repro_abft_detected_total").inc(int(d.get("detected", 0)))
    reg.counter("repro_abft_corrected_total").inc(int(d.get("corrected", 0)))
    reg.counter("repro_abft_double_faults_total").inc(
        int(d.get("double_faults", 0))
    )
    reg.counter("repro_abft_retries_total").inc(
        max(0, int(d.get("attempts", 1)) - 1)
    )
    for unit in ("words", "messages", "flops"):
        reg.counter("repro_abft_overhead_total", unit=unit).inc(
            int(d.get(f"checksum_{unit}", 0))
        )
    if d.get("verified"):
        reg.counter("repro_abft_verified_runs_total").inc()


__all__ = [
    "DEFAULT_BUCKETS",
    "METRICS",
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "MetricsError",
    "MetricsRegistry",
    "publish_abft",
    "publish_faults",
    "publish_machine",
    "publish_perf",
    "publish_run",
]
