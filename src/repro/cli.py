"""Command-line report generator.

``python -m repro.cli [experiment ...]`` regenerates the paper's
tables and writes them under ``reports/``.  With no arguments, every
experiment runs.  These are the same measurements the benchmark
harness validates (``pytest benchmarks/``); the CLI exists so a reader
can reproduce any single table in seconds without pytest.

The sweep-shaped experiments (Tables 1–2) are submitted to the
:mod:`repro.experiments` engine: ``--jobs N`` fans the points out over
a process pool, and every point is served from the content-addressed
result cache when its configuration and the code are unchanged
(``--no-cache`` / ``--cache-dir`` control this).  Each engine run also
leaves a JSON artifact with per-point wall times under
``reports/experiments/``.  ``--require-warm`` fails the run if any
point had to be simulated — CI uses it to assert cache warmness on
the second pass.

``repro trace`` is the observability subcommand: it runs one
configuration with span recording on and writes a Chrome
``trace_event`` JSON (loadable in ``chrome://tracing`` or Perfetto)
and/or a phase-attribution text report::

    repro trace chol --algorithm blocked_right --n 256 --out trace.json
    repro trace pxpotrf --n 64 --block 16 --P 4 --out ptrace.json

``repro chaos`` is the robustness subcommand: it runs the same
configuration twice — once failure-free, once under a deterministic
:class:`~repro.faults.FaultPlan` — verifies the recovered result is
*bit-identical* to the clean one, and reports the injected faults and
the overhead the resilience protocol paid::

    repro chaos pxpotrf --n 48 --block 12 --P 16 --failstop 3:1 --drop 0.02
    repro chaos summa --n 32 --block 8 --P 4 --corrupt 0.05 --metrics
    repro chaos chol --algorithm lapack --n 64 --read-fault 0.01
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, Dict

import numpy as np

from repro.analysis.report import ReportWriter
from repro.bounds.parallel import (
    parallel_bandwidth_lower_bound,
    parallel_latency_lower_bound,
    scalapack_messages,
    scalapack_words,
)
from repro.bounds.matmul import matmul_bandwidth_lower_bound
from repro.bounds.multilevel import multilevel_bounds
from repro.bounds.sequential import (
    cholesky_bandwidth_lower_bound,
    cholesky_latency_lower_bound,
)
from repro.experiments import ExperimentEngine, ExperimentSpec, ResultCache
from repro.layouts import make_layout
from repro.machine import HierarchicalMachine
from repro.matrices import TrackedMatrix
from repro.matrices.generators import random_spd
from repro.reduction import multiply_via_cholesky_counted
from repro.sequential import (
    available_algorithms,
    cholesky_flops,
    lapack_blocked,
    square_recursive,
)


def report_table1(
    n: int = 128, M: int = 768, engine: ExperimentEngine | None = None
) -> ReportWriter:
    """Sequential census vs lower bounds (Table 1)."""
    engine = engine or ExperimentEngine()
    census = [
        ("naive-left", "column-major", {}),
        ("naive-right", "column-major", {}),
        ("lapack", "column-major", {}),
        ("lapack", "blocked", {"layout_block": int(math.isqrt(M // 3))}),
        ("toledo", "column-major", {}),
        ("toledo", "morton", {}),
        ("square-recursive", "recursive-packed-hybrid", {}),
        ("square-recursive", "morton", {}),
    ]
    spec = ExperimentSpec.from_cases(
        "cli_table1",
        [
            {"algorithm": algo, "layout": layout, "n": n, "M": M, "params": kw}
            for algo, layout, kw in census
        ],
    )
    result = engine.run(spec)
    bw_lb = cholesky_bandwidth_lower_bound(n, M)
    lat_lb = cholesky_latency_lower_bound(n, M)
    writer = ReportWriter("cli_table1")
    rows = []
    for (algo, layout, _kw), m in zip(census, result.measurements):
        rows.append(
            [algo, layout, m.words, m.words / bw_lb, m.messages,
             m.messages / lat_lb]
        )
    writer.add_table(
        ["algorithm", "storage", "words", "W/LB", "messages", "M/LB"],
        rows,
        title=f"Table 1 (measured): n={n}, M={M}",
    )
    return writer


def report_table2(
    n: int = 96, engine: ExperimentEngine | None = None
) -> ReportWriter:
    """Parallel ScaLAPACK vs lower bounds (Table 2)."""
    engine = engine or ExperimentEngine()
    configs = []
    for P in (4, 16):
        root = math.isqrt(P)
        for b in sorted({max(1, n // (4 * root)), n // root}):
            configs.append((n, b, P))
    result = engine.run(ExperimentSpec.parallel("cli_table2", configs))
    writer = ReportWriter("cli_table2")
    rows = []
    for m in result.measurements:
        P, b = m.P, m.block
        rows.append(
            [
                P,
                b,
                m.words,
                scalapack_words(n, b, P),
                m.words / parallel_bandwidth_lower_bound(n, P),
                m.messages,
                scalapack_messages(n, b, P),
                m.messages / parallel_latency_lower_bound(P),
                m.flops / (cholesky_flops(n) / P),
            ]
        )
    writer.add_table(
        ["P", "b", "words", "pred W", "W/LB", "msgs", "pred M", "M/LB",
         "flop bal"],
        rows,
        title=f"Table 2 (measured): PxPOTRF, n={n}",
    )
    return writer


def report_reduction(
    n: int = 16, engine: ExperimentEngine | None = None
) -> ReportWriter:
    """Algorithm 1 phase accounting (Theorem 1 / Corollary 2.3).

    Not sweep-shaped (one instrumented run with phase diffing), so the
    ``engine`` parameter is accepted for a uniform registry signature
    but unused.
    """
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    M = 2 * 3 * n
    product, machine, phases = multiply_via_cholesky_counted(a, b, M=M)
    assert np.allclose(product, a @ b, atol=1e-8)
    writer = ReportWriter("cli_reduction")
    writer.add_kv(
        f"Algorithm 1: {n}x{n} matmul via {3 * n}x{3 * n} Cholesky (M={M})",
        [
            ("step 2 (build T') words", phases["setup"]),
            ("step 3 (Cholesky) words", phases["cholesky"]),
            ("step 4 (extract) words", phases["extract"]),
            ("ITT04 matmul bound", max(matmul_bandwidth_lower_bound(n, M=M), 0.0)),
        ],
    )
    return writer


def report_multilevel(
    n: int = 128, engine: ExperimentEngine | None = None
) -> ReportWriter:
    """Hierarchy behaviour (Corollary 3.2, Conclusions 4–5).

    Runs on a shared :class:`HierarchicalMachine` (per-level counters,
    deliberate capacity violations), which the point-per-run engine
    does not model; ``engine`` is accepted but unused.
    """
    levels = [48, 768, 12288]
    writer = ReportWriter("cli_multilevel")
    rows = []
    a0 = random_spd(n, seed=1)
    runs: Dict[str, HierarchicalMachine] = {}
    for name, algo, kw in [
        ("AP00", square_recursive, {}),
        ("LAPACK(b=4)", lapack_blocked, {"block": 4}),
        ("LAPACK(b=64)", lapack_blocked, {"block": 64}),
    ]:
        machine = HierarchicalMachine(levels, enforce_capacity=False)
        A = TrackedMatrix(a0, make_layout("morton", n), machine)
        algo(A, **kw)
        runs[name] = machine
    for name, machine in runs.items():
        for lvl, lb in zip(machine.levels, multilevel_bounds(n, levels)):
            rows.append(
                [name, lvl.capacity, lvl.words,
                 lvl.words / max(lb.bandwidth, 1.0),
                 "viol" if lvl.capacity_violated else ""]
            )
    writer.add_table(
        ["algorithm", "level M", "words", "W/LB", "capacity"],
        rows,
        title=f"Multilevel hierarchy {levels}, n={n}",
    )
    return writer


EXPERIMENTS: Dict[str, Callable[..., ReportWriter]] = {
    "table1": report_table1,
    "table2": report_table2,
    "reduction": report_reduction,
    "multilevel": report_multilevel,
}

#: Friendly spellings accepted by ``repro trace --algorithm`` on top of
#: the registry names (underscores normalize to dashes first).
ALGORITHM_ALIASES: Dict[str, str] = {
    "blocked-right": "lapack-right",
    "lapack-blocked": "lapack",
    "blocked": "lapack",
    "naive": "naive-left",
    "recursive": "square-recursive",
    "ap00": "square-recursive",
}


def normalize_algorithm(name: str) -> str:
    """Map a CLI algorithm spelling onto a registry name.

    Underscores become dashes (``blocked_right`` → ``blocked-right``)
    and the :data:`ALGORITHM_ALIASES` table resolves the common
    shorthands; unknown names pass through for the registry to reject
    with its own message.
    """
    key = name.strip().lower().replace("_", "-")
    return ALGORITHM_ALIASES.get(key, key)


def trace_main(argv: "list[str]") -> int:
    """``repro trace``: one observed run → Chrome trace / phase report."""
    import math as _math
    import os

    from repro.analysis.sweeps import measure
    from repro.matrices.generators import random_spd
    from repro.observability import (
        SpanProfile,
        phase_report,
        write_chrome_trace,
    )
    from repro.parallel.pxpotrf import pxpotrf
    from repro.parallel.summa import summa

    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Run one configuration with phase spans recorded and "
        "export a Chrome trace_event JSON and/or a phase report.",
    )
    parser.add_argument(
        "target",
        choices=("chol", "pxpotrf", "summa"),
        help="what to trace: a sequential Cholesky ('chol'), the "
        "parallel PxPOTRF, or the SUMMA baseline",
    )
    parser.add_argument(
        "--algorithm",
        default="lapack",
        metavar="NAME",
        help="sequential algorithm (chol only); registry names plus "
        "aliases like 'blocked_right' (default: lapack)",
    )
    parser.add_argument("--n", type=int, default=128, help="matrix dimension")
    parser.add_argument(
        "--M", type=int, default=None,
        help="fast-memory words (chol only; default: 3*n)",
    )
    parser.add_argument(
        "--layout", default="column-major", help="storage layout (chol only)"
    )
    parser.add_argument(
        "--block", type=int, default=None,
        help="distribution block size (parallel; default: n/sqrt(P))",
    )
    parser.add_argument(
        "--P", type=int, default=4,
        help="processors, a perfect square (parallel; default: 4)",
    )
    parser.add_argument("--seed", type=int, default=0, help="input matrix seed")
    parser.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the Chrome trace_event JSON here",
    )
    parser.add_argument(
        "--report", action="store_true",
        help="print the phase-attribution report to stdout",
    )
    args = parser.parse_args(argv)

    try:
        if args.target == "chol":
            algorithm = normalize_algorithm(args.algorithm)
            if algorithm not in available_algorithms():
                parser.error(
                    f"unknown algorithm {args.algorithm!r}; "
                    f"available: {', '.join(available_algorithms())}"
                )
            M = args.M if args.M is not None else 3 * args.n
            m = measure(
                algorithm,
                args.n,
                M,
                layout=args.layout,
                seed=args.seed,
                observe=True,
            )
            profile = SpanProfile.from_dict(m.profile)
            words, messages = m.words, m.messages
        else:
            root = _math.isqrt(args.P)
            if root * root != args.P:
                parser.error(f"--P must be a perfect square, got {args.P}")
            block = (
                args.block if args.block is not None
                else max(1, args.n // root)
            )
            a0 = random_spd(args.n, seed=args.seed)
            if args.target == "pxpotrf":
                res = pxpotrf(a0, block, args.P, observe_spans=True)
            else:
                rng = np.random.default_rng(args.seed + 1)
                res = summa(
                    a0, rng.standard_normal((args.n, args.n)), block, args.P,
                    observe_spans=True,
                )
            profile = res.profile
            words, messages = res.critical_words, res.critical_messages
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        # scripts get a stable one-line failure and exit 1, not a traceback
        print(
            f"[trace] FAIL: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 1

    if args.out:
        path = write_chrome_trace(profile, args.out)
        print(f"[trace] {os.path.abspath(path)}", file=sys.stderr)
    if args.report or not args.out:
        print(phase_report(profile))
    print(
        f"[trace] {args.target}: {words} words, {messages} messages, "
        f"{sum(1 for _ in profile.walk())} spans",
        file=sys.stderr,
    )
    return 0


def _parse_failstop(text: str) -> "tuple[int, int]":
    """Parse a ``RANK:ROUND`` fail-stop spec."""
    try:
        rank, rnd = text.split(":")
        return int(rank), int(rnd)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected RANK:ROUND, got {text!r}"
        ) from exc


def _parse_slow_link(text: str) -> "tuple[int, int, float]":
    """Parse a ``SRC:DST:FACTOR`` degraded-link spec."""
    try:
        src, dst, factor = text.split(":")
        return int(src), int(dst), float(factor)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected SRC:DST:FACTOR, got {text!r}"
        ) from exc


def chaos_main(argv: "list[str]") -> int:
    """``repro chaos``: one faulty run vs its failure-free twin.

    Exits 0 only when the run under faults produced a result
    bit-identical to the clean run — the acceptance check for the
    recovery protocol — and prints the realized fault schedule plus
    the overhead (resent/checkpoint/recovery words and messages) the
    resilience machinery charged.  A run that fails outright (an
    exhausted ABFT ladder, a transport that gives up) prints one
    ``[chaos] FAIL: <ExcName>: <msg>`` line to stderr and exits 1.
    """
    from repro.abft import AbftConfig
    from repro.faults import FaultPlan
    from repro.machine import SequentialMachine
    from repro.matrices.generators import random_spd
    from repro.observability.metrics import (
        METRICS,
        publish_abft,
        publish_faults,
    )
    from repro.parallel.pxpotrf import pxpotrf
    from repro.parallel.summa import summa
    from repro.sequential.registry import run_algorithm as _run_algorithm

    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="Run one configuration under a deterministic fault "
        "plan, verify the result matches the failure-free run exactly, "
        "and report the injected faults and recovery overhead.",
    )
    parser.add_argument(
        "target",
        choices=("pxpotrf", "summa", "chol"),
        help="what to stress: the parallel Cholesky, the SUMMA "
        "baseline, or a sequential Cholesky ('chol', read faults only)",
    )
    parser.add_argument("--n", type=int, default=48, help="matrix dimension")
    parser.add_argument(
        "--block", type=int, default=None,
        help="distribution block size (parallel; default: n/sqrt(P))",
    )
    parser.add_argument(
        "--P", type=int, default=16,
        help="processors, a perfect square (parallel; default: 16)",
    )
    parser.add_argument(
        "--algorithm", default="lapack", metavar="NAME",
        help="sequential algorithm (chol only; default: lapack)",
    )
    parser.add_argument(
        "--M", type=int, default=None,
        help="fast-memory words (chol only; default: 3*n)",
    )
    parser.add_argument("--seed", type=int, default=0, help="input matrix seed")
    parser.add_argument(
        "--fault-seed", type=int, default=1,
        help="fault-plan seed: same seed, same schedule (default: 1)",
    )
    parser.add_argument(
        "--drop", type=float, default=0.0,
        help="per-message drop probability (network targets)",
    )
    parser.add_argument(
        "--duplicate", type=float, default=0.0,
        help="per-message duplication probability",
    )
    parser.add_argument(
        "--corrupt", type=float, default=0.0,
        help="per-message payload-corruption probability (detected by "
        "checksum, costs a resend)",
    )
    parser.add_argument(
        "--read-fault", type=float, default=0.0,
        help="per-read transient fault probability (chol only)",
    )
    parser.add_argument(
        "--silent", type=float, default=0.0,
        help="per-boundary/per-payload silent bit-flip probability; "
        "undetectable by the transport, so this arms the ABFT checksum "
        "protection automatically",
    )
    parser.add_argument(
        "--silent-double", type=float, default=0.0,
        help="probability a silent strike is a double fault in one "
        "protection tile (uncorrectable: forces the retry ladder)",
    )
    parser.add_argument(
        "--abft", action="store_true",
        help="run checksum-protected even without silent faults "
        "(measures pure protection overhead)",
    )
    parser.add_argument(
        "--abft-attempts", type=int, default=3,
        help="ABFT retry-ladder bound (default: 3)",
    )
    parser.add_argument(
        "--failstop", type=_parse_failstop, action="append", default=[],
        metavar="RANK:ROUND",
        help="fail-stop rank RANK at round ROUND (repeatable; enables "
        "buddy checkpointing + recovery)",
    )
    parser.add_argument(
        "--slow", type=_parse_slow_link, action="append", default=[],
        metavar="SRC:DST:FACTOR",
        help="degrade the SRC→DST link's inverse bandwidth by FACTOR",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the Prometheus-style metrics exposition at the end",
    )
    args = parser.parse_args(argv)

    plan = FaultPlan(
        seed=args.fault_seed,
        drop=args.drop,
        duplicate=args.duplicate,
        corrupt=args.corrupt,
        read_fault=args.read_fault,
        silent=args.silent,
        silent_double=args.silent_double,
        failstops=tuple(args.failstop),
        slow_links=tuple(args.slow),
    )
    if plan.is_empty():
        parser.error(
            "the fault plan is empty; give at least one of --drop, "
            "--duplicate, --corrupt, --read-fault, --silent, "
            "--failstop, --slow"
        )
    # A silent-only plan arms neither the machine nor the transport, so
    # the guardian must carry it explicitly; the clean baseline runs
    # under the same (plan-less) config so both factors come off the
    # identical interpreted ABFT path and compare bit-for-bit.
    abft_on = args.abft or plan.has_silent()
    abft_clean_cfg = (
        AbftConfig(max_attempts=args.abft_attempts) if abft_on else None
    )
    abft_cfg = (
        abft_clean_cfg.with_plan(plan) if abft_clean_cfg is not None else None
    )

    try:
        a0 = random_spd(args.n, seed=args.seed)
        if args.target == "chol":
            if plan.failstops or plan.slow_links or plan.drop or plan.duplicate \
                    or plan.corrupt:
                if not plan.read_fault:
                    parser.error("chol injects read faults; use --read-fault")
            algorithm = normalize_algorithm(args.algorithm)
            M = args.M if args.M is not None else 3 * args.n

            def run(with_faults: bool):
                machine = SequentialMachine(M)
                machine.attach_faults(plan if with_faults else None)
                A = TrackedMatrix(a0, make_layout("column-major", args.n), machine)
                L = _run_algorithm(
                    algorithm, A, abft=abft_cfg if with_faults else abft_clean_cfg
                )
                stats = machine.faults.stats if machine.faults else None
                return L.L, L.measurement, stats, getattr(L, "abft", None)

            clean_x, clean_m, _, _ = run(False)
            faulty_x, faulty_m, stats, abft_rec = run(True)
            if stats is not None:
                publish_faults(stats)
            overhead_words = faulty_m.words - clean_m.words
            overhead_msgs = faulty_m.messages - clean_m.messages
        else:
            root = math.isqrt(args.P)
            if root * root != args.P:
                parser.error(f"--P must be a perfect square, got {args.P}")
            block = args.block if args.block is not None else max(1, args.n // root)
            if args.target == "pxpotrf":
                def factor(faults, abft=None):
                    return pxpotrf(a0, block, args.P, faults=faults, abft=abft)
                clean_r = factor(None, abft=abft_clean_cfg)
                faulty_r = factor(plan, abft=abft_cfg)
                clean_x, faulty_x = clean_r.L, faulty_r.L
            else:
                rng = np.random.default_rng(args.seed + 1)
                b0 = rng.standard_normal((args.n, args.n))
                clean_r = summa(a0, b0, block, args.P, abft=abft_clean_cfg)
                faulty_r = summa(
                    a0, b0, block, args.P, faults=plan, abft=abft_cfg
                )
                clean_x, faulty_x = clean_r.C, faulty_r.C
            stats = faulty_r.fault_stats
            abft_rec = faulty_r.abft
            if stats is not None:
                publish_faults(stats)
            overhead_words = faulty_r.critical_words - clean_r.critical_words
            overhead_msgs = faulty_r.critical_messages - clean_r.critical_messages
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        # an exhausted ABFT ladder or a transport that gives up is a
        # failed run: one stable line and exit 1, not a traceback
        print(f"[chaos] FAIL: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    diff = float(np.max(np.abs(faulty_x - clean_x)))
    d = stats.to_dict() if stats is not None else {}
    injected = {
        k: d.get(k, 0)
        for k in ("drops", "duplicates", "corruptions", "failstops",
                  "read_faults")
        if d.get(k, 0)
    }
    overhead = {
        k: d.get(k, 0)
        for k in ("resent_messages", "resent_words", "ack_messages",
                  "checkpoint_words", "checkpoint_messages",
                  "recovery_words", "recovery_messages",
                  "read_retry_words", "read_retry_messages")
        if d.get(k, 0)
    }
    print(f"[chaos] plan: {plan.to_dict()}")
    print(f"[chaos] injected: {injected or 'nothing (schedule was quiet)'}")
    print(f"[chaos] protocol overhead: {overhead or 'none'}")
    if abft_rec is not None:
        s = abft_rec["stats"]
        publish_abft(abft_rec)
        print(
            f"[chaos] abft: injected {s['injected_single']} single + "
            f"{s['injected_double']} double, detected {s['detected']}, "
            f"corrected {s['corrected']}, attempts {s['attempts']}, "
            f"verified {s['verified']}"
        )
        print(f"[chaos] abft attestation: {abft_rec['attestation']}")
    print(
        f"[chaos] critical-path overhead: {overhead_words} words, "
        f"{overhead_msgs} messages"
    )
    print(f"[chaos] max |faulty - clean| = {diff}")
    if args.metrics:
        print(METRICS.render_text(), end="")
    if diff != 0.0:
        print("[chaos] FAIL: faulty run diverged from the clean run",
              file=sys.stderr)
        return 1
    print("[chaos] OK: faulty run matches the failure-free run exactly")
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "chaos":
        return chaos_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serving.cli import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "submit":
        from repro.serving.cli import submit_main

        return submit_main(argv[1:])
    if argv and argv[0] == "top":
        from repro.serving.top import top_main

        return top_main(argv[1:])
    if argv and argv[0] == "metrics":
        from repro.observability.export import metrics_main

        return metrics_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-reports",
        description="Regenerate the paper's tables from (cached) simulations. "
        "Use 'repro trace ...' for the observability subcommand.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"which experiments to run: {', '.join(EXPERIMENTS)}, or 'all' "
        "(default: all)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="save reports without printing"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for sweep points (default: 1, serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="always re-simulate; do not read or write the result cache",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="result cache location (default: $REPRO_CACHE_DIR or "
        ".repro-cache at the repo root)",
    )
    parser.add_argument(
        "--require-warm",
        action="store_true",
        help="fail (exit 1) if any sweep point missed the result cache "
        "— asserts a previous run already warmed it",
    )
    args = parser.parse_args(argv)
    if args.require_warm and args.no_cache:
        parser.error("--require-warm contradicts --no-cache")
    unknown = [e for e in args.experiments if e != "all" and e not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment(s) {unknown}; "
            f"choose from {', '.join(EXPERIMENTS)} or 'all'"
        )
    wanted = (
        list(EXPERIMENTS)
        if "all" in args.experiments or not args.experiments
        else args.experiments
    )
    if args.no_cache:
        cache = None
    elif args.cache_dir:
        cache = ResultCache(args.cache_dir)
    else:
        cache = "default"
    engine = ExperimentEngine(
        jobs=args.jobs, cache=cache, verbose=not args.quiet
    )
    for name in wanted:
        writer = EXPERIMENTS[name](engine=engine)
        path = writer.emit(echo=not args.quiet)
        print(f"[saved] {path}", file=sys.stderr)
    for path in engine.save_artifacts():
        print(f"[saved] {path}", file=sys.stderr)
    if engine.results:
        print(engine.summary(), file=sys.stderr)
    failed = sum(len(r.failures) for r in engine.results)
    if failed:
        # salvage keeps the artifacts, but a run with failed points
        # must not look green to scripts and CI
        print(
            f"[engine] {failed} point(s) failed; see the artifacts for "
            "per-point errors",
            file=sys.stderr,
        )
        return 1
    if args.require_warm:
        misses = sum(r.cache_misses for r in engine.results)
        if misses:
            print(
                f"[engine] --require-warm: {misses} point(s) missed the "
                "cache",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
