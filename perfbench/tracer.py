"""Span recording for the traced run, from the benchmark's own files.

The traced run wraps public functions of each layer (the ``*_TARGETS``
tables below) with a recorder that keeps spans in memory: name, start, end, parent
and job id, plus a few attributes (cache hit, capture mode, ABFT).
Spans nest per thread, so a span's self time is its duration minus
its direct children.  Shard processes install the same wrappers when
the benchmark script is re-imported there (see ``run.py``) and write
their spans to a file when the shard loop returns.

``perf_counter_ns`` reads CLOCK_MONOTONIC, which all processes on the
host share, so front-door and shard spans sit on one time base.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict

#: Environment variable naming the directory shard processes write
#: their spans to; set only while a traced cluster is spawned.
SHARD_TRACE_ENV = "PERFBENCH_SHARD_TRACE_DIR"


class Recorder:
    """In-memory span buffer for one process."""

    def __init__(self, process: str) -> None:
        self.process = process
        self.spans: "list[tuple]" = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, job_of=None, attrs_of=None):
        """``fn`` recording one span per call."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            parent = stack[-1] if stack else (0, None)
            sid = next(rec._ids)
            job = job_of(args) if job_of is not None else None
            if job is None:
                job = parent[1]
            stack.append((sid, job))
            result, error = None, None
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                if error is not None:
                    attrs = {"error": error}
                else:
                    attrs = attrs_of(args, kwargs, result) if attrs_of else None
                rec.spans.append((sid, parent[0], name, t0, t1, job, attrs))

        traced.__perfbench_original__ = fn
        return traced

    def to_dicts(self) -> "list[dict]":
        keys = ("id", "parent", "name", "start_ns", "end_ns", "job", "attrs")
        return [
            dict(zip(keys, span), process=self.process) for span in self.spans
        ]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dicts(), fh, separators=(",", ":"))


# -- what to wrap ------------------------------------------------------------


def _job_arg(args):
    job = args[1] if len(args) > 1 else None
    return getattr(job, "job_id", None)


def _abft_attr(args, kwargs, result):
    return {"abft": kwargs.get("abft") is not None}


def _hit_attr(args, kwargs, result):
    return {"hit": result is not None}


def _mode_attr(args, kwargs, result):
    from repro.schedule import last_run_mode

    return {"mode": last_run_mode()}


def _publish_attr(args, kwargs, result):
    hits = kwargs.get("batch_hits")
    return None if hits is None else {"batch_hits": int(hits)}


#: (module, attribute path, span name, job-id getter, attribute getter).
#: A function imported by name into another module is wrapped where it
#: is called, since that is the reference the caller looks up.
COMPUTE_TARGETS = (
    ("repro.analysis.sweeps", "measure", "analysis.measure", None, None),
    ("repro.analysis.sweeps", "measure_parallel", "analysis.measure", None, None),
    ("repro.analysis.sweeps", "random_spd", "matrices.random_spd", None, None),
    ("repro.matrices.tracked", "TrackedMatrix.__init__", "matrices.tracked", None, None),
    ("repro.analysis.sweeps", "run_algorithm", "sequential.run_algorithm", None, _abft_attr),
    ("repro.analysis.sweeps", "pxpotrf", "parallel.pxpotrf", None, None),
    ("repro.sequential.kernels", "dense_cholesky", "kernels.dense_cholesky", None, None),
    ("repro.schedule", "_CompiledSession._capture", "interp.capture", None, _mode_attr),
    ("repro.schedule", "_CompiledSession._replay", "schedule.replay", None, None),
    ("repro.schedule.compiled", "ScheduleRecorder.finalize", "schedule.finalize", None, None),
    ("repro.schedule.cache", "ScheduleCache.get", "schedule.get", None, _hit_attr),
    ("repro.schedule.cache", "ScheduleCache.put", "schedule.put", None, None),
    ("repro.analysis.sweeps", "publish_run", "metrics.publish", None, None),
    ("repro.analysis.sweeps", "publish_perf", "metrics.publish", None, _publish_attr),
    ("repro.analysis.sweeps", "publish_faults", "metrics.publish", None, None),
    ("repro.analysis.sweeps", "publish_abft", "metrics.publish", None, None),
    ("repro.experiments.spec", "SpecPoint.key", "spec.key", None, None),
)

ENGINE_TARGETS = (
    ("repro.experiments.engine", "execute_point", "engine.point", None, None),
)

FRONTDOOR_TARGETS = (
    ("repro.serving.cluster", "ServingCluster.submit", "cluster.submit", _job_arg, None),
    ("repro.serving.cluster", "ServingCluster._pick_shard", "cluster.route", None, None),
    ("repro.serving.cluster", "ServingCluster._on_result", "cluster.on_result", None, None),
    ("repro.serving.cluster", "job_to_wire", "api.encode", None, None),
    ("repro.serving.cluster", "response_from_wire", "api.decode", None, None),
    ("repro.experiments.spec", "SpecPoint.key", "spec.key", None, None),
)

SHARD_TARGETS = COMPUTE_TARGETS + (
    ("repro.serving.service", "FactorizationService._run_job", "service.run_job", _job_arg, None),
    ("repro.serving.service", "execute_point", "engine.point", None, None),
    ("repro.serving.service", "predict_point", "degrade.predict", None, None),
    ("repro.serving.store", "ShardStoreView.get", "store.get", None, _hit_attr),
    ("repro.serving.store", "ShardStoreView.put", "store.put", None, None),
    ("repro.serving.cluster", "job_from_wire", "api.decode", None, None),
    ("repro.serving.cluster", "response_to_wire", "api.encode", None, None),
)


def install(recorder: Recorder, targets) -> None:
    """Replace each target with a recording wrapper (idempotent)."""
    for module_name, path, name, job_of, attrs_of in targets:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        current = getattr(owner, attr)
        if hasattr(current, "__perfbench_original__"):
            continue
        setattr(owner, attr, recorder.wrap(current, name, job_of, attrs_of))


def install_in_shard(out_dir: str) -> None:
    """Trace this shard process; spans are written when its loop returns."""
    from repro.serving import cluster

    recorder = Recorder("shard")
    install(recorder, SHARD_TARGETS)
    original = cluster._shard_process_main

    @functools.wraps(original)
    def shard_main(conn, name, config):
        recorder.process = name
        try:
            original(conn, name, config)
        finally:
            recorder.dump(os.path.join(out_dir, f"{name}-{os.getpid()}.json"))

    cluster._shard_process_main = shard_main


def load_shard_spans(out_dir: str) -> "list[dict]":
    spans = []
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            spans.extend(json.load(fh))
    return spans


# -- aggregation ---------------------------------------------------------------


class Layers:
    """Per-name totals over a set of spans (times in milliseconds)."""

    def __init__(self, spans: "list[dict]") -> None:
        child_ns = defaultdict(int)
        for s in spans:
            if s["parent"]:
                child_ns[(s["process"], s["parent"])] += s["end_ns"] - s["start_ns"]
        self.calls = defaultdict(int)
        self.total_ms = defaultdict(float)
        self.self_ms = defaultdict(float)
        self.by_name = defaultdict(list)
        for s in spans:
            name = s["name"]
            dur = s["end_ns"] - s["start_ns"]
            self.calls[name] += 1
            self.total_ms[name] += dur / 1e6
            self.self_ms[name] += (dur - child_ns[(s["process"], s["id"])]) / 1e6
            self.by_name[name].append(s)

    def self_per(self, name: str, ops: int) -> float:
        return self.self_ms[name] / max(1, ops)

    def mean_total(self, name: str) -> float:
        return self.total_ms[name] / max(1, self.calls[name])

    def count_attr(self, name: str, key: str, value) -> int:
        return sum(
            1 for s in self.by_name[name] if (s["attrs"] or {}).get(key) == value
        )

    def sum_attr(self, name: str, key: str) -> int:
        return sum(int((s["attrs"] or {}).get(key, 0)) for s in self.by_name[name])

    def ratio(self, name: str, key: str) -> float:
        calls = self.calls[name]
        return self.count_attr(name, key, True) / calls if calls else 0.0

    def mean_total_where(self, name: str, key: str, value) -> float:
        picked = [
            (s["end_ns"] - s["start_ns"]) / 1e6
            for s in self.by_name[name]
            if (s["attrs"] or {}).get(key) == value
        ]
        return sum(picked) / len(picked) if picked else 0.0


#: Every per-layer metric the traced run prints, with its unit.  A
#: ``_ms`` figure is self time per workload operation (census point or
#: served job) unless README.md says otherwise; counts are totals over
#: the traced pass, whose size is ``trace.ops``.
PER_LAYER = (
    ("engine.point_ms", "ms"),
    ("engine.retries", "count"),
    ("engine.failed_points", "count"),
    ("engine.serial_points_per_s", "points/s"),
    ("interp.capture_ms", "ms"),
    ("machine.batch_hits", "count"),
    ("machine.words", "count"),
    ("machine.messages", "count"),
    ("machine.flops", "count"),
    ("schedule.put_ms", "ms"),
    ("schedule.bytes_written", "B/op"),
    ("schedule.finalize_ms", "ms"),
    ("schedule.get_ms", "ms"),
    ("schedule.hit_ratio", "ratio"),
    ("schedule.replay_ms", "ms"),
    ("schedule.events.capture", "count"),
    ("schedule.events.replay", "count"),
    ("schedule.events.discard", "count"),
    ("matrices.random_spd_ms", "ms"),
    ("matrices.tracked_ms", "ms"),
    ("kernels.dense_cholesky_ms", "ms"),
    ("analysis.measure_self_ms", "ms"),
    ("parallel.pxpotrf_ms", "ms"),
    ("parallel.words", "count"),
    ("parallel.messages", "count"),
    ("abft.protected_ms", "ms"),
    ("abft.checksum_words", "count"),
    ("abft.corrected", "count"),
    ("faults.injected", "count"),
    ("faults.resends", "count"),
    ("degrade.count", "count"),
    ("degrade.predict_ms", "ms"),
    ("metrics.publish_ms", "ms"),
    ("client.late_p99_ms", "ms"),
    ("client.samples", "count"),
    ("cluster.submit_ms", "ms"),
    ("cluster.route_ms", "ms"),
    ("cluster.on_result_ms", "ms"),
    ("cluster.pipe_ms", "ms"),
    ("spec.key_ms", "ms"),
    ("api.encode_ms", "ms"),
    ("api.decode_ms", "ms"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.queue_wait_p99_ms", "ms"),
    ("service.execute_p50_ms", "ms"),
    ("service.execute_p99_ms", "ms"),
    ("service.retries", "count"),
    ("service.status.done", "count"),
    ("service.status.degraded", "count"),
    ("service.status.shed", "count"),
    ("service.status.failed", "count"),
    ("store.put_ms", "ms"),
    ("store.bytes_written", "B/op"),
    ("store.get_ms", "ms"),
    ("store.hit_ratio", "ratio"),
    ("mem.frontdoor_rss_mb", "MB"),
    ("mem.shard_rss_mb", "MB"),
    ("mem.rss_kb_per_job", "KB"),
    ("trace.ops", "count"),
    ("trace.overhead_throughput", "ratio"),
    ("trace.overhead_p50", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.unattributed_ms", "ms"),
)

_INJECTED = ("drops", "duplicates", "corruptions", "failstops", "read_faults")


class MeasurementSums:
    """Exact counts summed over the measurements of a traced pass."""

    def __init__(self) -> None:
        self.values: "dict[str, int]" = defaultdict(int)

    def add(self, m) -> None:
        v = self.values
        side = "machine" if m.P is None else "parallel"
        v[f"{side}.words"] += int(m.words)
        v[f"{side}.messages"] += int(m.messages)
        if m.P is None:
            v["machine.flops"] += int(m.flops)
        stats = ((m.abft or {}).get("stats") or {}) if m.abft else {}
        v["abft.checksum_words"] += int(stats.get("checksum_words", 0))
        v["abft.corrected"] += int(stats.get("corrected", 0))
        v["faults.injected"] += int(stats.get("injected_single", 0)) + int(
            stats.get("injected_double", 0)
        )
        if m.faults:
            v["faults.injected"] += sum(int(m.faults.get(k, 0)) for k in _INJECTED)
            v["faults.resends"] += int(m.faults.get("resent_messages", 0))


def compute_layer_values(layers: Layers, ops: int, sums: MeasurementSums) -> dict:
    """The compute-path layers, shared by the census and the serve runs."""
    values = {
        "interp.capture_ms": layers.self_per("interp.capture", ops),
        "machine.batch_hits": layers.sum_attr("metrics.publish", "batch_hits"),
        "schedule.put_ms": layers.self_per("schedule.put", ops),
        "schedule.finalize_ms": layers.self_per("schedule.finalize", ops),
        "schedule.get_ms": layers.self_per("schedule.get", ops),
        "schedule.hit_ratio": layers.ratio("schedule.get", "hit"),
        "schedule.replay_ms": layers.self_per("schedule.replay", ops),
        "schedule.events.capture": layers.count_attr("interp.capture", "mode", "capture"),
        "schedule.events.replay": layers.calls["schedule.replay"],
        "schedule.events.discard": layers.count_attr("interp.capture", "mode", "off"),
        "matrices.random_spd_ms": layers.self_per("matrices.random_spd", ops),
        "matrices.tracked_ms": layers.self_per("matrices.tracked", ops),
        "kernels.dense_cholesky_ms": layers.self_per("kernels.dense_cholesky", ops),
        "analysis.measure_self_ms": layers.self_per("analysis.measure", ops),
        "parallel.pxpotrf_ms": layers.mean_total("parallel.pxpotrf"),
        "abft.protected_ms": layers.mean_total_where("sequential.run_algorithm", "abft", True),
        "degrade.predict_ms": layers.self_per("degrade.predict", ops),
        "metrics.publish_ms": layers.self_per("metrics.publish", ops),
        "spec.key_ms": layers.self_per("spec.key", ops),
        "api.encode_ms": layers.self_per("api.encode", ops),
        "api.decode_ms": layers.self_per("api.decode", ops),
    }
    values.update(sums.values)
    return values


def layer_result(values: dict, attempted: int, failed: int) -> dict:
    """The traced run's result line: every per-layer metric, by name."""
    from harness import metric

    units = dict(PER_LAYER)
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise KeyError(f"per-layer values without a declared metric: {unknown}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: metric(values.get(name, 0.0), unit) for name, unit in PER_LAYER
        },
    }
