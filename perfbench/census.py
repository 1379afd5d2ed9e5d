"""``census``: a cold regeneration of the paper's Tables 1 and 2.

The grid is the ``repro table1`` rows plus ``naive-up`` and
``lapack-right``, crossed with n in {64, 96, 128, 160} and M in
{192, 768} (80 sequential points), and PxPOTRF at n in {96, 192},
P in {4, 16, 64} with the two block sizes ``repro table2`` uses (12
parallel points).  Every point is a new shape, so the interpreter, the
schedule capture and its disk write do the work; serving does none.
The model rejects ``naive-up`` where M < 2n: those two points stay in,
are expected to fail, and count in ``fail_frac``.
"""

from __future__ import annotations

import itertools
import json
import math
import os

from harness import (
    COUNT_FIELDS, HERE, PeakRss, counts, cpu_times, dir_bytes, median, metric, note, now,
    percentile, steal_share,
)

GOLDEN = os.path.join(HERE, "golden", "census.json")
NS = (64, 96, 128, 160)
MS = (192, 768)
#: Nominal length of one cold census; a run makes ``--seconds / ROUND_S``
#: of them (at least 2), so every run at one ``--seconds`` does the
#: same work whatever the host's speed.
ROUND_S = 10.0


def _rows(M: int):
    return (
        ("naive-left", "column-major", {}),
        ("naive-right", "column-major", {}),
        ("lapack", "column-major", {}),
        ("lapack", "blocked", {"layout_block": math.isqrt(M // 3)}),
        ("toledo", "column-major", {}),
        ("toledo", "morton", {}),
        ("square-recursive", "recursive-packed-hybrid", {}),
        ("square-recursive", "morton", {}),
        ("naive-up", "column-major", {}),
        ("lapack-right", "column-major", {}),
    )


def build_spec(seed: int):
    from repro.experiments import ExperimentSpec

    cases = [
        {"algorithm": algo, "layout": layout, "n": n, "M": M, "params": kw}
        for n, M in itertools.product(NS, MS)
        for algo, layout, kw in _rows(M)
    ]
    for n, P in itertools.product((96, 192), (4, 16, 64)):
        root = math.isqrt(P)
        for b in sorted({max(1, n // (4 * root)), n // root}):
            cases.append({"algorithm": "pxpotrf", "n": n, "block": b, "P": P})
    return ExperimentSpec.from_cases("perfbench-census", cases, seed=seed)


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["points"]


def check(result, golden: dict) -> "tuple[int, list[str]]":
    """Expected-rejection count and mismatch descriptions for one sweep."""
    rejected, mismatches = 0, []
    for pr in result.points:
        label = pr.point.label()
        want = golden.get(label)
        if want is None:
            mismatches.append(f"{label}: no golden entry")
        elif "error" in want:
            if pr.error is None or not pr.error.startswith(want["error"]):
                mismatches.append(f"{label}: expected {want['error']}, got {pr.error}")
            else:
                rejected += 1
        elif pr.error is not None:
            mismatches.append(f"{label}: failed: {pr.error}")
        else:
            got = counts(pr.measurement)
            if got != {f: want[f] for f in COUNT_FIELDS}:
                mismatches.append(f"{label}: counts {got} != golden {want}")
            if not pr.measurement.correct:
                mismatches.append(f"{label}: factor does not verify")
    return rejected, mismatches


def run_round(state, seed: int, jobs: int) -> dict:
    """One cold census: fresh state, fresh schedule cache, one sweep."""
    from repro.experiments import ExperimentEngine
    from repro.schedule import set_default_cache

    t_setup = now()
    root = state.new_round()
    set_default_cache(None)  # recreated on first use from the new round's dir
    spec = build_spec(seed)
    engine = ExperimentEngine(jobs=jobs, cache=None)
    setup = now() - t_setup
    with PeakRss() as rss:
        ticks = cpu_times()
        t0 = now()
        result = engine.run(spec)
        wall = now() - t0
        steal = steal_share(ticks, cpu_times())
    sched_bytes = dir_bytes(os.environ["REPRO_SCHEDULE_DIR"])
    set_default_cache(None)
    state.drop_round(root)
    failed_wall = sum(pr.wall_time for pr in result.points if pr.error is not None)
    ok = sum(1 for pr in result.points if pr.error is None)
    return {
        "result": result,
        "setup": setup,
        "wall": wall,
        "steal": steal,
        "points": len(result.points),
        "ok": ok,
        # Valid points only: an expected rejection's time is the engine's
        # retry sleep, which would pin the tail at 1.5 s.
        "point_ms": [pr.wall_time * 1e3 for pr in result.points if pr.error is None],
        "capacity": ok / max(1e-9, wall - failed_wall),
        "rss_mb": rss.total_mb(),
        "main_mb": rss.self_mb(),
        "sched_bytes": sched_bytes,
    }


def _checked(rounds, golden) -> "tuple[int, int, int]":
    """(attempted, rejected-as-expected, mismatching points) over rounds."""
    attempted = rejected = bad = 0
    for r in rounds:
        rej, mismatches = check(r["result"], golden)
        for line in mismatches[:20]:
            note("mismatch", {"workload": "census", "detail": line})
        attempted += r["points"]
        rejected += rej
        bad += len(mismatches)
    return attempted, rejected, bad


def run(args, state, import_s: float) -> dict:
    """Cold census rounds at ``jobs=nproc``."""
    golden = load_golden()
    jobs = os.cpu_count() or 1
    count = max(2, round(args.seconds / ROUND_S))
    rounds = [run_round(state, args.seed, jobs) for _ in range(count)]
    attempted, rejected, bad = _checked(rounds, golden)
    point_ms = [ms for r in rounds for ms in r["point_ms"]]
    note("census", {
        "rounds": len(rounds),
        "walls_s": [round(r["wall"], 3) for r in rounds],
        "steal": [round(r["steal"], 4) for r in rounds],
        "samples": len(point_ms),
        "schedule_bytes": rounds[0]["sched_bytes"],
    })
    return {
        "correct": bad == 0,
        "attempted": attempted,
        "failed": bad,
        "metrics": {
            "setup_s": metric(import_s + median(r["setup"] for r in rounds), "s"),
            "census_points_per_s": metric(
                median(r["points"] / r["wall"] for r in rounds), "points/s"
            ),
            "latency_p50_ms": metric(percentile(point_ms, 50), "ms"),
            "latency_p99_ms": metric(percentile(point_ms, 99), "ms"),
            "capacity_jobs_per_s": metric(median(r["capacity"] for r in rounds), "jobs/s"),
            "fail_frac": metric((rejected + bad) / attempted, "ratio"),
            "rss_mb": metric(median(r["rss_mb"] for r in rounds), "MB"),
        },
    }


def run_traced(args, state, import_s: float) -> dict:
    """Untraced then traced serial census; per-layer metrics from the latter."""
    import tracer

    golden = load_golden()
    plain = run_round(state, args.seed, 1)
    recorder = tracer.Recorder("main")
    tracer.install(recorder, tracer.COMPUTE_TARGETS + tracer.ENGINE_TARGETS)
    traced = run_round(state, args.seed, 1)
    attempted, _rejected, bad = _checked([plain, traced], golden)
    layers = tracer.Layers(recorder.to_dicts())
    points = traced["points"]
    covered_ms = layers.total_ms["engine.point"]
    result = traced["result"]
    sums = tracer.MeasurementSums()
    for pr in result.points:
        if pr.error is None:
            sums.add(pr.measurement)
    values = tracer.compute_layer_values(layers, points, sums)
    values.update({
        "engine.point_ms": layers.mean_total("engine.point"),
        "engine.retries": sum(
            1 for s in layers.by_name["engine.point"] if (s["attrs"] or {}).get("error")
        ) - len(result.failures),
        "engine.failed_points": len(result.failures),
        "engine.serial_points_per_s": plain["points"] / plain["wall"],
        "schedule.bytes_written": traced["sched_bytes"] / points,
        "mem.frontdoor_rss_mb": plain["main_mb"],
        "trace.ops": points,
        "trace.overhead_throughput": traced["wall"] / plain["wall"] - 1.0,
        "trace.overhead_p50": percentile(traced["point_ms"], 50)
        / percentile(plain["point_ms"], 50) - 1.0,
        "trace.coverage": covered_ms / (traced["wall"] * 1e3),
        "trace.unattributed_ms": (traced["wall"] * 1e3 - covered_ms) / points,
    })
    return tracer.layer_result(values, attempted, bad)


def write_golden(seed: int) -> None:
    """Regenerate the golden from the interpreter alone (no schedule JIT)."""
    from repro.experiments import ExperimentEngine
    from repro.schedule import compile_disabled

    with compile_disabled():
        result = ExperimentEngine(jobs=1, cache=None, retries=0).run(build_spec(seed))
    points = {}
    for pr in result.points:
        if pr.error is not None:
            points[pr.point.label()] = {"error": pr.error.split(":", 1)[0]}
        else:
            if not pr.measurement.correct:
                raise SystemExit(f"{pr.point.label()}: factor does not verify")
            points[pr.point.label()] = counts(pr.measurement)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(
            {"note": "census counts; they depend on shape only, not on seed",
             "points": points},
            fh, indent=1, sort_keys=True,
        )
        fh.write("\n")
