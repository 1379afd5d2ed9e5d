"""Wall-clock benchmark of the simulator itself.

Every other bench in this repository measures the *modeled* machine
(words, messages, flops along the paper's bounds).  This one measures
the *simulator*: how long a run takes on the host, comparing the
batched interval-charging fast path (the default) against the
element-wise reference path (``REPRO_SLOW_PATH=1``, or
:func:`repro.util.fastpath.set_fastpath` before the machine is built).

By default the fast path includes the schedule JIT
(:mod:`repro.schedule`): each point takes one untimed *capture* run
(interpreted, its counts recorded as a schedule) and the timed repeats
*replay* the schedule, adding its counts to the machine next to one
dense factorization.  ``--no-compile`` ablates the
JIT and times the interpreted batched path instead, so the speedup is
attributable between batching and compilation.

The paths are required to be **count-identical** — same words,
messages (read/write split), flops and peak resident set — so every
benchmark point re-runs its configuration down both paths and asserts
the equality before reporting a speedup.  A fast path that drifted
from the reference counts would invalidate every table in the repo,
which is why the gate lives inside the benchmark rather than beside
it.  Where Table 1 of the paper predicts the point's asymptotic
traffic, the record also carries the measured/predicted ratio as an
independent cross-check against :mod:`repro.bounds`.

``python -m repro.cli bench`` (or ``repro bench``) runs the pinned
grid and writes ``BENCH_4.json`` (``--grid registry --out
BENCH_8.json`` for the whole-registry document);
``pytest benchmarks/bench_wallclock.py`` runs the same harness under
the benchmark suite's conventions.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro.layouts.registry import make_layout
from repro.machine.core import SequentialMachine
from repro.matrices.generators import random_spd
from repro.matrices.tracked import TrackedMatrix
from repro.observability.metrics import publish_perf
from repro.schedule import (
    ScheduleCache,
    compile_disabled,
    last_run_mode,
    set_default_cache,
)
from repro.sequential.registry import run_algorithm
from repro.util.fastpath import fastpath_enabled, set_fastpath

#: Counter fields that must agree exactly between the two paths.
COUNT_FIELDS = (
    "words",
    "messages",
    "words_read",
    "words_written",
    "messages_read",
    "messages_written",
    "flops",
    "peak_resident",
)


@dataclass(frozen=True)
class BenchPoint:
    """One pinned (algorithm, layout, n, M) benchmark configuration."""

    algorithm: str
    layout: str
    n: int
    M: int
    params: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.algorithm}/{self.layout} n={self.n} M={self.M}"


#: The pinned grid ``repro bench`` runs by default.  The naive point
#: sits in the whole-column regime (M = 2n); the recursive points use
#: the Table 1 reference memory size.
FULL_GRID: "tuple[BenchPoint, ...]" = (
    BenchPoint("naive-left", "column-major", n=512, M=1024),
    BenchPoint("toledo", "column-major", n=512, M=768),
    BenchPoint("square-recursive", "morton", n=512, M=768),
)

#: A seconds-scale grid for CI smoke runs: same algorithms, small n.
TINY_GRID: "tuple[BenchPoint, ...]" = (
    BenchPoint("naive-left", "column-major", n=96, M=192),
    BenchPoint("toledo", "column-major", n=96, M=256),
    BenchPoint("square-recursive", "morton", n=96, M=256),
)

#: Every registry algorithm at paper scale (n = 512): the ``--grid
#: registry`` document (``BENCH_8.json``) gates each one at ≥10x over
#: the element-wise reference.  The naive/blocked points use the
#: whole-column regime M = 2n; the recursive points the Table 1
#: reference memory size.
REGISTRY_GRID: "tuple[BenchPoint, ...]" = (
    BenchPoint("naive-left", "column-major", n=512, M=1024),
    BenchPoint("naive-right", "column-major", n=512, M=1024),
    BenchPoint("naive-up", "column-major", n=512, M=1024),
    BenchPoint("lapack", "column-major", n=512, M=1024),
    BenchPoint("lapack-right", "column-major", n=512, M=1024),
    BenchPoint("toledo", "column-major", n=512, M=768),
    BenchPoint("square-recursive", "morton", n=512, M=768),
)

#: Whole registry at CI-smoke scale (same shape as REGISTRY_GRID).
REGISTRY_TINY: "tuple[BenchPoint, ...]" = (
    BenchPoint("naive-left", "column-major", n=96, M=192),
    BenchPoint("naive-right", "column-major", n=96, M=192),
    BenchPoint("naive-up", "column-major", n=96, M=192),
    BenchPoint("lapack", "column-major", n=96, M=192),
    BenchPoint("lapack-right", "column-major", n=96, M=192),
    BenchPoint("toledo", "column-major", n=96, M=256),
    BenchPoint("square-recursive", "morton", n=96, M=256),
)

GRIDS = {
    "full": FULL_GRID,
    "tiny": TINY_GRID,
    "registry": REGISTRY_GRID,
    "registry-tiny": REGISTRY_TINY,
}


def _bounds_crosscheck(point: BenchPoint, counts: dict) -> dict:
    """Measured-vs-predicted ratios against :mod:`repro.bounds`.

    Table 1 rows are Θ/O-forms with no constants, so this is a
    consistency check (finite, stable ratios), not exact equality;
    the lower-bound ratio uses Corollary 2.3's ``n³/√M``.
    """
    from repro.bounds.sequential import (
        cholesky_bandwidth_lower_bound,
        table1_predictions,
    )

    n, M = point.n, point.M
    out = {
        "lower_bound_words": cholesky_bandwidth_lower_bound(n, M),
        "words_over_lower_bound": counts["words"]
        / cholesky_bandwidth_lower_bound(n, M),
        "table1": [],
    }
    for row in table1_predictions(n, M):
        if row.algorithm != point.algorithm or row.storage != point.layout:
            continue
        out["table1"].append(
            {
                "storage": row.storage,
                "predicted_words": row.bandwidth,
                "predicted_messages": row.latency,
                "words_ratio": counts["words"] / row.bandwidth,
                "messages_ratio": counts["messages"] / row.latency,
            }
        )
    return out


def _run_once(point: BenchPoint, a0: np.ndarray, *, fast: bool):
    """One simulation of ``point`` down one charging path.

    Returns ``(wall_seconds, counts, batch_hits, L)``.
    """
    was = fastpath_enabled()
    set_fastpath(fast)
    try:
        machine = SequentialMachine(point.M)
        lay = make_layout(
            point.layout, point.n, block=point.params.get("layout_block")
        )
        A = TrackedMatrix(a0, lay, machine)
        params = {
            k: v for k, v in point.params.items() if k != "layout_block"
        }
        t0 = time.perf_counter()
        L = run_algorithm(point.algorithm, A, **params)
        wall = time.perf_counter() - t0
    finally:
        set_fastpath(was)
    lvl = machine.levels[0]
    counts = {
        "words": lvl.words,
        "messages": lvl.messages,
        "words_read": lvl.counters.words_read,
        "words_written": lvl.counters.words_written,
        "messages_read": lvl.counters.messages_read,
        "messages_written": lvl.counters.messages_written,
        "flops": machine.flops,
        "peak_resident": lvl.peak_resident,
    }
    return wall, counts, machine.batch_hits, np.asarray(L), last_run_mode()


def run_point(
    point: BenchPoint,
    *,
    repeats: int = 3,
    seed: int = 0,
    compiled: bool = True,
    slow_repeats: "int | None" = None,
) -> dict:
    """Benchmark one grid point down both paths; returns its record.

    With ``compiled`` (the default) the point first takes one untimed
    capture run against a fresh memory-only schedule cache, so the
    timed fast repeats are replays — the steady state of repeated
    same-spec traffic.  ``compiled=False`` ablates the schedule JIT
    and times the interpreted batched path.  ``slow_repeats`` trims
    the element-wise reference repeats (it is the slowest part of the
    bench by far); default is ``repeats``.

    The record carries the per-path wall-time samples and medians, the
    fast/slow speedup, the (shared) simulated counters, how each fast
    run executed (``schedule.modes``), the Table 1 cross-check, and
    the two gates: ``counts_equal`` (exact counter identity) and
    ``numerics_match`` (factors allclose — the batched path may
    reorder float accumulations, so bitwise equality is not part of
    the contract).
    """
    if slow_repeats is None:
        slow_repeats = repeats
    a0 = random_spd(point.n, seed=seed)
    fast_walls, slow_walls, modes = [], [], []
    fast_counts = slow_counts = None
    batch_hits = 0
    capture_seconds = None
    L_fast = L_slow = None
    prev_cache = set_default_cache(ScheduleCache(None)) if compiled else None
    try:
        if compiled:
            # warm the schedule cache: one untimed interpreted capture
            capture_seconds, *_rest = _run_once(point, a0, fast=True)
        for _ in range(repeats):
            if compiled:
                wall, fast_counts, batch_hits, L_fast, mode = _run_once(
                    point, a0, fast=True
                )
            else:
                with compile_disabled():
                    wall, fast_counts, batch_hits, L_fast, mode = _run_once(
                        point, a0, fast=True
                    )
            fast_walls.append(wall)
            modes.append(mode)
        for _ in range(slow_repeats):
            wall, slow_counts, _hits, L_slow, _mode = _run_once(
                point, a0, fast=False
            )
            slow_walls.append(wall)
    finally:
        if compiled:
            set_default_cache(prev_cache)
    fast_med = statistics.median(fast_walls)
    slow_med = statistics.median(slow_walls)
    counts_equal = fast_counts == slow_counts
    numerics_match = bool(np.allclose(L_fast, L_slow, atol=1e-8))
    publish_perf(
        kind="bench",
        algorithm=point.algorithm,
        wall_seconds=fast_med,
        batch_hits=batch_hits,
    )
    return {
        "algorithm": point.algorithm,
        "layout": point.layout,
        "n": point.n,
        "M": point.M,
        "params": dict(point.params),
        "repeats": repeats,
        "fast": {
            "wall_seconds": fast_walls,
            "wall_seconds_median": fast_med,
            "batch_hits": batch_hits,
        },
        "slow": {
            "wall_seconds": slow_walls,
            "wall_seconds_median": slow_med,
        },
        "schedule": {
            "compile": compiled,
            "modes": modes,
            "capture_seconds": capture_seconds,
        },
        "speedup": slow_med / fast_med if fast_med > 0 else float("inf"),
        "counts_equal": counts_equal,
        "numerics_match": numerics_match,
        "counters": fast_counts,
        "counters_slow": None if counts_equal else slow_counts,
        "bounds": _bounds_crosscheck(point, fast_counts),
    }


def run_grid(
    grid=FULL_GRID,
    *,
    repeats: int = 3,
    seed: int = 0,
    echo=None,
    compiled: bool = True,
    slow_repeats: "int | None" = None,
) -> dict:
    """Run every grid point; returns the bench JSON document."""
    points = []
    for point in grid:
        if echo:
            echo(f"[bench] {point.label} ...")
        rec = run_point(
            point,
            repeats=repeats,
            seed=seed,
            compiled=compiled,
            slow_repeats=slow_repeats,
        )
        if echo:
            echo(
                f"[bench] {point.label}: "
                f"fast {rec['fast']['wall_seconds_median']:.3f}s, "
                f"slow {rec['slow']['wall_seconds_median']:.3f}s, "
                f"speedup {rec['speedup']:.1f}x, "
                f"counts_equal={rec['counts_equal']}, "
                f"modes={','.join(sorted(set(rec['schedule']['modes'])))}"
            )
        points.append(rec)
    return {
        "bench": "wallclock",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "compile": compiled,
        "grid": points,
        "all_counts_equal": all(p["counts_equal"] for p in points),
        "all_numerics_match": all(p["numerics_match"] for p in points),
    }


def bench_main(argv: "list[str]") -> int:
    """``repro bench``: run the wall-clock grid and write the JSON."""
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Benchmark the simulator's batched fast path against "
        "the element-wise reference path (count-identity asserted).",
    )
    parser.add_argument(
        "--grid",
        choices=sorted(GRIDS),
        default="full",
        help="which pinned grid to run (default: full)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        metavar="R",
        help="simulations per (point, path); the median is reported "
        "(default: 3)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_4.json",
        metavar="PATH",
        help="where to write the result document (default: BENCH_4.json)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--no-compile",
        action="store_true",
        help="ablate the schedule JIT: time the interpreted batched "
        "path instead of compiled replays",
    )
    parser.add_argument(
        "--slow-repeats",
        type=int,
        default=None,
        metavar="R",
        help="element-wise reference repeats (default: same as --repeats)",
    )
    parser.add_argument(
        "--gate",
        type=float,
        default=None,
        metavar="X",
        help="fail (exit 1) unless every point's speedup is >= X",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.slow_repeats is not None and args.slow_repeats < 1:
        parser.error("--slow-repeats must be >= 1")
    echo = None if args.quiet else lambda s: print(s, file=sys.stderr)
    doc = run_grid(
        GRIDS[args.grid],
        repeats=args.repeats,
        seed=args.seed,
        echo=echo,
        compiled=not args.no_compile,
        slow_repeats=args.slow_repeats,
    )
    from repro.util.serialization import atomic_write_json

    atomic_write_json(args.out, doc, indent=2)
    print(f"[bench] wrote {args.out}")
    if not doc["all_counts_equal"]:
        bad = [p for p in doc["grid"] if not p["counts_equal"]]
        for p in bad:
            print(
                f"[bench] FAIL: counts diverge on {p['algorithm']} "
                f"n={p['n']} M={p['M']}: fast={p['counters']} "
                f"slow={p['counters_slow']}",
                file=sys.stderr,
            )
        return 1
    if not doc["all_numerics_match"]:
        print("[bench] FAIL: fast/slow factors diverged numerically",
              file=sys.stderr)
        return 1
    if args.gate is not None:
        slow_points = [
            p for p in doc["grid"] if p["speedup"] < args.gate
        ]
        for p in slow_points:
            print(
                f"[bench] FAIL: {p['algorithm']} n={p['n']} M={p['M']} "
                f"speedup {p['speedup']:.1f}x < gate {args.gate:.1f}x",
                file=sys.stderr,
            )
        if slow_points:
            return 1
    return 0


__all__ = [
    "COUNT_FIELDS",
    "BenchPoint",
    "FULL_GRID",
    "REGISTRY_GRID",
    "REGISTRY_TINY",
    "TINY_GRID",
    "GRIDS",
    "bench_main",
    "run_grid",
    "run_point",
]
