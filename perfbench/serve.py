"""``serve-fresh``: fresh-seeded jobs served by a process-mode cluster.

One thread drives a ``ServingClient`` over a 2-shard x 1-worker
process-mode ``ServingCluster``, alternating an open loop at a fixed
rate (each job timed from its scheduled send, so a stall counts against
every job behind it) with a closed loop at a fixed in-flight window
that measures capacity.  Each of the run's rounds spawns a fresh
cluster on a fresh state directory.

Every job carries a fresh seed, so every job misses the result store
and runs the whole execute path (schedule replay, input generation,
dense factorization, verification, store write).

One job in 50 is a word-capped ``lapack``/``morton`` request.
Table 1 has no row for that pair, so the service can neither run it
within the cap nor fall back to a closed form: it must answer
``failed``/``no-closed-form``.  The benchmark expects that answer and
counts it in ``fail_frac``, which keeps that metric off zero.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import threading
import time

from harness import (
    counts, cpu_times, dir_bytes, median, metric, note, now, percentile, rss_kb, steal_share,
    tree_peak_kb,
)

SHARDS = 2
WORKERS_PER_SHARD = 1
QUEUE_CAPACITY = 128
WINDOW = 64
ROUNDS = 3
SEGMENTS = 6
OPEN_SHARE = 0.7
DRAIN_S = 15.0
SEQ_NS = (96, 128)
SEQ_M = 768
PX_SHAPES = ((96, 4), (128, 16))
ABFT_ALGOS = ("lapack", "toledo")

#: Open-loop rate: about a quarter of the measured capacity.
RATE = 60.0
#: Share of the segments that the timing metrics are taken over: those
#: whose phase lost the least CPU time to host steal (README.md, "Noise").
QUIET_SHARE = 0.5


def _cycle(special, fill: str, length: int = 50) -> "tuple[str, ...]":
    """``special`` classes at evenly spaced slots of a cycle, ``fill`` elsewhere.

    Heavy jobs at fixed, even spacing (and rotating through their
    shapes) keep each run's tail made of the same jobs, so the latency
    percentiles do not swing with how a shuffle happened to bunch them.
    """
    cycle = [fill] * length
    for k, cls in enumerate(special):
        cycle[k * length // len(special)] = cls
    return tuple(cycle)


#: 50 submissions: 41 sequential, 3 PxPOTRF, 2 PxPOTRF with a drop
#: plan, 2 ABFT, 1 over-budget, 1 expected rejection.
CYCLE = _cycle(("px", "abft", "pxf", "budget", "px", "abft", "pxf", "reject", "px"), "seq")


def ref_key(point):
    """Counts depend on shape (and fault plan), never on the seed."""
    return dataclasses.replace(point, seed=0)


class Mix:
    """Seeded job generator; the program only ever sees the jobs."""

    def __init__(self, seed: int) -> None:
        from repro.faults.plan import FaultPlan
        from repro.serving.workloads import SEQ_ALGOS

        self.rng = random.Random(seed)
        self.seq_algos = SEQ_ALGOS
        self.index = 0
        self.turn: "dict[str, int]" = {}
        self.drop_plans = _deliverable_drop_plans(seed)
        self.silent_plan = FaultPlan(seed=seed * 1000 + 7, silent=0.3)

    def _fresh_seed(self) -> int:
        return self.rng.getrandbits(31)

    def _priority(self) -> str:
        from repro.serving.workloads import PRIORITIES

        return PRIORITIES[self.index % len(PRIORITIES)]

    def _seq(self, algo, n, **kw):
        from repro.serving.api import chol_request

        return chol_request(algorithm=algo, n=n, M=SEQ_M, seed=self._fresh_seed(), **kw).point

    def _px(self, n, P, **kw):
        from repro.serving.api import pxpotrf_request

        return pxpotrf_request(n=n, P=P, seed=self._fresh_seed(), **kw).point

    def reject_point(self):
        """A capped request on a storage Table 1 does not cover."""
        from repro.serving.api import chol_request

        return chol_request(
            algorithm="lapack", layout="morton", n=32, M=192, seed=self._fresh_seed()
        ).point

    def next(self):
        """The next (job, class) pair: a fresh ``Job`` every time."""
        from repro.serving.api import Job
        from repro.serving.budget import Budget
        from repro.serving.queue import parse_priority

        cls = CYCLE[self.index % len(CYCLE)]
        turn = self.turn.get(cls, 0)
        self.turn[cls] = turn + 1
        budget = None
        if cls == "seq":
            point = self._seq(self.rng.choice(self.seq_algos), self.rng.choice(SEQ_NS))
        elif cls == "px":
            point = self._px(*PX_SHAPES[turn % len(PX_SHAPES)])
        elif cls == "pxf":
            plan = self.drop_plans[(turn // len(PX_SHAPES)) % len(self.drop_plans)]
            point = self._px(*PX_SHAPES[turn % len(PX_SHAPES)], faults=plan)
        elif cls == "abft":
            faults = self.silent_plan if (turn // len(ABFT_ALGOS)) % 2 else None
            point = self._seq(ABFT_ALGOS[turn % len(ABFT_ALGOS)], SEQ_NS[0], abft=True, faults=faults)
        elif cls == "budget":
            point = self._seq(self.rng.choice(self.seq_algos), self.rng.choice(SEQ_NS))
            budget = Budget(max_words=word_cap(point))
        else:
            point = self.reject_point()
            budget = Budget(max_words=64)
        job = Job(point=point, priority=parse_priority(self._priority()), budget=budget)
        self.index += 1
        return job, cls

    def warm_classes(self):
        """One representative point per (class, shape): what set-up warms."""
        out = []
        for algo in self.seq_algos:
            for n in SEQ_NS:
                out.append(("seq", lambda a=algo, n=n: self._seq(a, n)))
        for n, P in PX_SHAPES:
            out.append(("px", lambda n=n, P=P: self._px(n, P)))
            for plan in self.drop_plans:
                out.append(("pxf", lambda n=n, P=P, f=plan: self._px(n, P, faults=f)))
        for algo in ABFT_ALGOS:
            out.append(("abft", lambda a=algo: self._seq(a, SEQ_NS[0], abft=True)))
            out.append((
                "abft",
                lambda a=algo: self._seq(a, SEQ_NS[0], abft=True, faults=self.silent_plan),
            ))
        out.append(("reject", self.reject_point))
        return out


def _deliverable_drop_plans(seed: int, count: int = 2):
    """The first ``count`` seeded drop plans every PxPOTRF shape survives.

    A plan's fault schedule depends on its seed and the message
    coordinates only, so a plan that delivers here delivers in every
    job that carries it.
    """
    from repro.analysis.sweeps import measure_parallel
    from repro.faults.injector import FaultExhausted
    from repro.faults.plan import FaultPlan

    plans = []
    for k in range(100):
        plan = FaultPlan(seed=seed * 1000 + k, drop=0.1)
        try:
            for n, P in PX_SHAPES:
                measure_parallel(n, n // math.isqrt(P), P, seed=0, verify=False, faults=plan)
        except FaultExhausted:
            continue
        plans.append(plan)
        if len(plans) == count:
            return plans
    raise RuntimeError("no deliverable drop plan")


def word_cap(point) -> int:
    """A word budget below both the lower bound and the predicted range."""
    from repro.bounds.sequential import cholesky_bandwidth_lower_bound
    from repro.serving.degrade import predict_point

    low = predict_point(point).bounds()["words"][0]
    return max(1, int(min(low, cholesky_bandwidth_lower_bound(point.n, point.M)) // 2))


# -- references ----------------------------------------------------------------

def build_references(mix: Mix) -> dict:
    """Per-shape expected counts, one direct ``measure`` call per shape.

    Computed by the interpreter with the schedule JIT off, so the served
    (compiled, replayed) counts are checked against an independent path.
    """
    from repro.analysis.sweeps import measure, measure_parallel
    from repro.schedule import compile_disabled
    from repro.serving.degrade import degraded_measurement, predict_point

    refs = {}
    points = [make() for _cls, make in mix.warm_classes()]
    with compile_disabled():
        for point in points:
            key = ref_key(point)
            if key in refs or point.layout == "morton":
                continue
            if point.P is not None:
                m = measure_parallel(
                    point.n, point.block, point.P, seed=point.seed,
                    faults=point.fault_plan, abft=point.abft_config,
                )
            else:
                m = measure(
                    point.algorithm, point.n, point.M, layout=point.layout,
                    seed=point.seed, faults=point.fault_plan, abft=point.abft_config,
                )
            if not m.correct:
                raise RuntimeError(f"reference {point.label()} does not verify")
            refs[key] = counts(m)
    for algo in mix.seq_algos:
        for n in SEQ_NS:
            point = mix._seq(algo, n)
            refs[("budget", ref_key(point))] = counts(
                degraded_measurement(point, predict_point(point))
            )
    return refs


def judge(cls: str, job, resp, refs: dict) -> "tuple[bool, str | None]":
    """(has a failed or shed status, problem) for one terminal response.

    ``problem`` is None when the response is what the benchmark expects,
    which for an expected rejection is a failed status.
    """
    from repro.serving.api import DEGRADED, DONE, FAILED, SHED

    label = job.point.label()
    status_failed = resp.status in (FAILED, SHED)
    if cls == "reject":
        if resp.status == FAILED and resp.reason == "no-closed-form":
            return True, None
        return status_failed, f"{label}: expected failed/no-closed-form, got {resp.status}/{resp.reason}"
    if cls == "budget":
        want = refs[("budget", ref_key(job.point))]
        if resp.status != DEGRADED or resp.reason != "admission-estimate":
            return status_failed, f"{label}: expected degraded at admission, got {resp.status}/{resp.reason}"
        if counts(resp.measurement) != want:
            return False, f"{label}: degraded counts {counts(resp.measurement)} != {want}"
        return False, None
    if resp.status != DONE:
        return status_failed, f"{label}: {resp.status}/{resp.reason} {resp.detail.get('error', '')}"
    m = resp.measurement
    want = refs[ref_key(job.point)]
    if counts(m) != want:
        return False, f"{label}: counts {counts(m)} != reference {want}"
    if not m.correct:
        return False, f"{label}: factor does not verify"
    if job.point.abft and resp.verified is not True:
        return False, f"{label}: ABFT response not verified"
    return False, None


# -- one round -------------------------------------------------------------------


class Tally:
    """Judges each terminal response as it arrives and keeps only tallies.

    Holding every response would grow this process's heap, and the front
    door lives in this process: longer garbage-collector pauses would
    then show up as serving latency.
    """

    def __init__(self, refs: dict, stages: bool = False) -> None:
        import tracer

        self.refs = refs
        self.stages = stages
        self._lock = threading.Lock()
        self.attempted = 0
        #: Jobs that count in ``fail_frac``: a failed or shed status, no
        #: response by the deadline, or an output that fails its check.
        self.failed = 0
        self.problems: "list[str]" = []
        self.statuses: "dict[str, int]" = {}
        self.retries = 0
        self.sums = tracer.MeasurementSums()
        self.stage_ms = {"queue": [], "execute": [], "resolve": []}
        self.coverage: "list[float]" = []
        self.unattributed_ms: "list[float]" = []

    def add(self, cls, job, resp, latency=None) -> bool:
        """Judge one outcome; ``latency`` (seconds) marks an open-loop job."""
        if resp is None:
            failed, problem = True, f"{job.point.label()}: no terminal response by the deadline"
        else:
            failed, problem = judge(cls, job, resp, self.refs)
        stage_ms, coverage = {}, None
        if self.stages and latency is not None and resp is not None and resp.trace is not None:
            from repro.observability.tracing import trace_coverage

            for rec in resp.trace:
                key = "execute" if rec.name in ("execute", "cache") else rec.name
                if key in self.stage_ms:
                    stage_ms[key] = (rec.t_end - rec.t_start) * 1e3
            if latency > 0:
                coverage = trace_coverage(resp.trace, observed_seconds=latency)
        with self._lock:
            self.attempted += 1
            self.failed += int(failed or problem is not None)
            if problem is not None:
                self.problems.append(problem)
            if resp is not None:
                self.statuses[resp.status] = self.statuses.get(resp.status, 0) + 1
                self.retries += max(0, resp.attempts - 1)
                if resp.status == "done" and resp.measurement is not None:
                    self.sums.add(resp.measurement)
            for key, ms in stage_ms.items():
                self.stage_ms[key].append(ms)
            if coverage is not None:
                self.coverage.append(coverage)
                self.unattributed_ms.append((1.0 - coverage) * latency * 1e3)
        return problem is None


def open_loop(client, mix: Mix, tally: Tally, rate: float, seconds: float) -> dict:
    """Send jobs at ``rate``/s; latency runs from each scheduled send."""
    jobs = [mix.next() for _ in range(int(rate * seconds))]
    n = len(jobs)
    latency = [None] * n
    late = [0.0] * n
    state = {"remaining": n, "ok": 0, "last": 0.0, "closed": False}
    lock = threading.Lock()
    finished = threading.Event()

    def on_done(resp, i, target):
        with lock:
            if state["closed"]:
                return  # answered after the deadline: already counted as missing
            latency[i] = now() - target
        job, cls = jobs[i]
        ok = tally.add(cls, job, resp, latency[i])
        with lock:
            state["ok"] += ok
            state["last"] = max(state["last"], now())
            state["remaining"] -= 1
            if state["remaining"] == 0:
                finished.set()

    t0 = now() + 0.02
    for i, (job, _cls) in enumerate(jobs):
        target = t0 + i / rate
        delay = target - now()
        if delay > 0:
            time.sleep(delay)
        late[i] = now() - target
        client.submit_async(job).add_done_callback(
            lambda r, i=i, target=target: on_done(r, i, target)
        )
    if not finished.wait(timeout=DRAIN_S):
        with lock:
            state["closed"] = True
            missing = [i for i in range(n) if latency[i] is None]
        for i in missing:
            job, cls = jobs[i]
            tally.add(cls, job, None)
    span = state["last"] - t0
    return {
        "latency_ms": [x * 1e3 for x in latency if x is not None],
        "late_ms": [x * 1e3 for x in late],
        "goodput": state["ok"] / span if span > 0 else 0.0,
    }


def closed_loop(client, mix: Mix, tally: Tally, seconds: float) -> float:
    """Keep ``WINDOW`` jobs in flight for ``seconds``; returns completions/s."""
    tags = {}

    def requests():
        while now() < t_end:
            job, cls = mix.next()
            tags[job.job_id] = cls
            yield job

    t_end = now() + seconds
    completed = 0
    for job, resp in client.stream(requests(), window=WINDOW, timeout=DRAIN_S):
        completed += now() <= t_end
        tally.add(tags.pop(job.job_id), job, resp)
    return completed / seconds


def warm(client, cluster, mix: Mix, refs: dict) -> None:
    """Run every (class, shape) on every shard until each shard has seen it."""
    from repro.serving.api import Job
    from repro.serving.budget import Budget

    classes = mix.warm_classes()
    seen = [set() for _ in classes]
    shards = set(cluster.shards)
    for _attempt in range(12):
        batch = []
        for i, (cls, make) in enumerate(classes):
            for _ in range(0 if seen[i] == shards else 2):
                budget = Budget(max_words=64) if cls == "reject" else None
                batch.append((i, cls, Job(point=make(), budget=budget)))
        if not batch:
            return
        responses = client.submit_many([job for _i, _c, job in batch], window=WINDOW, timeout=60)
        owner = dict(cluster.assignments)
        for (i, cls, job), resp in zip(batch, responses):
            _failed, problem = judge(cls, job, resp, refs)
            if problem is not None:
                raise RuntimeError(f"warm-up: {problem}")
            seen[i].add(owner[job.job_id])
    raise RuntimeError("warm-up could not reach every shard")


def segment(client, mix: Mix, tally: Tally, seconds: float) -> dict:
    """An open-loop phase then a closed-loop phase, each with the host's CPU steal."""
    t0 = cpu_times()
    seg = open_loop(client, mix, tally, RATE, seconds * OPEN_SHARE)
    t1 = cpu_times()
    seg["capacity"] = closed_loop(client, mix, tally, seconds * (1 - OPEN_SHARE))
    seg["open_steal"] = steal_share(t0, t1)
    seg["closed_steal"] = steal_share(t1, cpu_times())
    return seg


def quietest(segments: list, key: str) -> list:
    """The ``QUIET_SHARE`` of ``segments`` with the lowest ``seg[key]`` steal share.

    Steal is set by other tenants of the host, not by the program, and
    comes in bursts of a few seconds.  A stolen CPU delays every thread
    wake-up and fsync a job crosses, so a burst moves latency several
    times more than the CPU time it takes.
    """
    ranked = sorted(segments, key=lambda seg: seg[key])
    return ranked[: math.ceil(len(ranked) * QUIET_SHARE)]


def run_round(state, mix: Mix, refs: dict, seconds: float, span_dir=None) -> dict:
    """Spawn a fresh cluster, warm it, then run ``SEGMENTS`` segments."""
    import tracer
    from repro.serving import ServingClient

    tally = Tally(refs, stages=span_dir is not None)
    t_setup = now()
    root = state.new_round()
    if span_dir is not None:
        os.makedirs(span_dir)
        os.environ[tracer.SHARD_TRACE_ENV] = span_dir
    client = ServingClient.cluster(
        shards=SHARDS,
        mode="process",
        workers_per_shard=WORKERS_PER_SHARD,
        queue_capacity=QUEUE_CAPACITY,
        store_dir=os.path.join(root, "store"),
        tracing=span_dir is not None,
    )
    os.environ.pop(tracer.SHARD_TRACE_ENV, None)
    cluster = client.backend
    try:
        warm(client, cluster, mix, refs)
        shard_pids = [s.process.pid for s in cluster.shards.values()]
        shard_kb0 = [rss_kb(pid) or 0 for pid in shard_pids]
        setup = now() - t_setup
        window_ns = [time.perf_counter_ns()]
        segments = [segment(client, mix, tally, seconds / SEGMENTS) for _ in range(SEGMENTS)]
        window_ns.append(time.perf_counter_ns())
        shard_kb1 = [rss_kb(pid) or 0 for pid in shard_pids]
        # VmHWM is each process's own high-water mark, so one read
        # before the shards exit gives every peak without a sampler
        # thread in the front door's process.
        peaks = tree_peak_kb()
    finally:
        client.close()
    store_bytes = dir_bytes(os.path.join(root, "store"))
    state.drop_round(root)
    return {
        "setup": setup,
        "segments": segments,
        "tally": tally,
        "rss_mb": sum(peaks.values()) / 1024.0,
        "main_mb": peaks.get(os.getpid(), 0) / 1024.0,
        "shard_mb": [peaks.get(pid, 0) / 1024.0 for pid in shard_pids],
        "shard_kb_growth": [b - a for a, b in zip(shard_kb0, shard_kb1)],
        "store_bytes": store_bytes,
        "window_ns": window_ns,
    }


def _report_problems(rounds) -> int:
    bad = 0
    for r in rounds:
        bad += len(r["tally"].problems)
        for line in r["tally"].problems[:20]:
            note("mismatch", {"workload": "serve-fresh", "detail": line})
    return bad


def prepare(args):
    """Seeded mix plus references: the one-time part of set-up."""
    mix = Mix(args.seed)
    refs = build_references(mix)
    return mix, refs


def run(args, state, import_s: float) -> dict:
    t0 = now()
    mix, refs = prepare(args)
    once = now() - t0
    rounds = [run_round(state, mix, refs, args.seconds / ROUNDS) for _ in range(ROUNDS)]
    bad = _report_problems(rounds)
    segments = [seg for r in rounds for seg in r["segments"]]
    quiet_open = quietest(segments, "open_steal")
    quiet_closed = quietest(segments, "closed_steal")
    latency = [x for seg in quiet_open for x in seg["latency_ms"]]
    late = [x for seg in quiet_open for x in seg["late_ms"]]
    attempted = sum(r["tally"].attempted for r in rounds)
    failed = sum(r["tally"].failed for r in rounds)
    note("serve-fresh", {
        "latency_samples": len(latency),
        "segments": len(segments),
        "generator_late_p50_ms": percentile(late, 50),
        "generator_late_p99_ms": percentile(late, 99),
        "open_steal": [round(seg["open_steal"], 4) for seg in segments],
        "closed_steal": [round(seg["closed_steal"], 4) for seg in segments],
        "segment_p50_ms": [round(percentile(seg["latency_ms"], 50), 2) for seg in segments],
        "segment_p99_ms": [round(percentile(seg["latency_ms"], 99), 2) for seg in segments],
        "capacities": [round(seg["capacity"], 1) for seg in segments],
        "setups_s": [round(r["setup"], 3) for r in rounds],
        "refs_s": round(once, 3),
    })
    return {
        "correct": bad == 0,
        "attempted": attempted,
        "failed": bad,
        "metrics": {
            "setup_s": metric(import_s + once + median(r["setup"] for r in rounds), "s"),
            "census_points_per_s": metric(median(seg["goodput"] for seg in quiet_open), "points/s"),
            "latency_p50_ms": metric(percentile(latency, 50), "ms"),
            "latency_p99_ms": metric(percentile(latency, 99), "ms"),
            # Closed phases all last the same time, so the mean of their
            # rates is the pooled completions per second.
            "capacity_jobs_per_s": metric(_mean([seg["capacity"] for seg in quiet_closed]), "jobs/s"),
            "fail_frac": metric(failed / attempted, "ratio"),
            "rss_mb": metric(median(r["rss_mb"] for r in rounds), "MB"),
        },
    }


def run_traced(args, state, import_s: float) -> dict:
    """One untraced round, then one traced round (wrappers in every process)."""
    import tracer

    mix, refs = prepare(args)
    half = args.seconds / 2
    plain = run_round(state, mix, refs, half)
    recorder = tracer.Recorder("frontdoor")
    tracer.install(recorder, tracer.FRONTDOOR_TARGETS)
    span_dir = os.path.join(state.path, "spans")
    traced = run_round(state, mix, refs, half, span_dir=span_dir)
    bad = _report_problems([plain, traced])
    t0, t1 = traced["window_ns"]
    spans = [
        s for s in recorder.to_dicts() + tracer.load_shard_spans(span_dir)
        if t0 <= s["start_ns"] <= t1
    ]
    layers = tracer.Layers(spans)
    tally = traced["tally"]
    ops = tally.attempted
    stage = tally.stage_ms
    values = tracer.compute_layer_values(layers, ops, tally.sums)
    values.update({
        "engine.point_ms": layers.mean_total("engine.point"),
        "client.late_p99_ms": percentile(_joined(traced, "late_ms"), 99),
        "client.samples": len(_joined(traced, "latency_ms")),
        "cluster.submit_ms": layers.self_per("cluster.submit", ops),
        "cluster.route_ms": layers.self_per("cluster.route", ops),
        "cluster.on_result_ms": layers.self_per("cluster.on_result", ops),
        "cluster.pipe_ms": sum(stage["resolve"]) / max(1, len(stage["resolve"])),
        "service.queue_wait_p50_ms": _pct(stage["queue"], 50),
        "service.queue_wait_p99_ms": _pct(stage["queue"], 99),
        "service.execute_p50_ms": _pct(stage["execute"], 50),
        "service.execute_p99_ms": _pct(stage["execute"], 99),
        "service.retries": tally.retries,
        "service.status.done": tally.statuses.get("done", 0),
        "service.status.degraded": tally.statuses.get("degraded", 0),
        "service.status.shed": tally.statuses.get("shed", 0),
        "service.status.failed": tally.statuses.get("failed", 0),
        "degrade.count": tally.statuses.get("degraded", 0),
        "store.put_ms": layers.self_per("store.put", ops),
        "store.get_ms": layers.self_per("store.get", ops),
        "store.hit_ratio": layers.ratio("store.get", "hit"),
        "store.bytes_written": traced["store_bytes"] / max(1, ops),
        "mem.frontdoor_rss_mb": plain["main_mb"],
        "mem.shard_rss_mb": median(plain["shard_mb"]),
        "mem.rss_kb_per_job": sum(plain["shard_kb_growth"]) / max(1, plain["tally"].attempted),
        "trace.ops": ops,
        "trace.overhead_throughput": _capacity(plain) / _capacity(traced) - 1.0,
        "trace.overhead_p50": _pct(_joined(traced, "latency_ms"), 50)
        / _pct(_joined(plain, "latency_ms"), 50) - 1.0,
        "trace.coverage": _mean(tally.coverage),
        "trace.unattributed_ms": _mean(tally.unattributed_ms),
    })
    attempted = plain["tally"].attempted + ops
    return tracer.layer_result(values, attempted, bad)


def _joined(round_result, key: str) -> "list[float]":
    return [x for seg in round_result["segments"] for x in seg[key]]


def _capacity(round_result) -> float:
    return median(seg["capacity"] for seg in round_result["segments"])


def _pct(values, p):
    return percentile(values, p) if values else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0
