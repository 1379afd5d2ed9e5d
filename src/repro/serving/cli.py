"""``repro serve`` / ``repro submit``: the serving stack from the shell.

Both commands are thin wrappers over the one client facade
(:class:`~repro.serving.client.ServingClient`) and the typed request
builders in :mod:`repro.serving.api` — the CLI builds no jobs by hand
and talks to no backend directly.

``repro submit`` is the one-shot client: build one job (a sequential
``chol`` or a parallel ``pxpotrf`` request, with optional priority,
budget caps and deadline) and print the structured
:class:`ServiceResponse` as JSON.  ``--cluster`` routes the job
through a sharded inline cluster instead of a single service — same
request, same response, different substrate.  Transient transport
faults (a broken pipe, a submission timeout) are retried a bounded
number of times (``--transport-retries``) with seeded, jittered
exponential backoff before giving up.  The exit code mirrors the
terminal status and is stable for scripting: 0 for ``done`` and
``degraded`` (both are answers), 1 for ``failed``, 2 for ``shed``,
3 for a transport failure that survived every retry. ::

    repro submit chol --algorithm lapack --n 96 --M 288
    repro submit chol --algorithm toledo --n 128 --M 384 --max-words 50000
    repro submit pxpotrf --n 64 --block 16 --P 4 --deadline 5
    repro submit chol --n 64 --cluster --shards 3

``repro serve`` is the batch driver: feed a JSON workload (or a
generated ``--demo`` mix) through a configured backend and write one
response record per job.  ``--shards N`` serves through a cluster of N
shard *processes* behind the consistent-hash front door; submission
then flows through the client's bounded in-flight window
(``--window``).  ``--kill-shard IDX --kill-after K`` hard-kills a
shard mid-run to exercise the rebalance/resubmission path.  Every job
reaches a terminal state; the exit code is 1 only if any job *failed*
(sheds and degradations are the service doing its job).  ``--out``,
``--metrics-out`` and ``--health-out`` write their artifacts
crash-safely (atomic temp-file + rename).

Durability (``--shards`` only): ``--journal-dir DIR`` write-ahead
journals every job lifecycle transition; after a front-door crash,
``--recover --journal-dir DIR`` replays the journal and resubmits
every accepted-but-unterminated job (no ``--workload``/``--demo``
needed — recovery is its own workload source; the shared store
defaults to ``DIR/store`` so already-computed results are reused, not
recomputed).  ``--supervise`` respawns dead shards under a seeded
backoff/restart-budget policy; ``--heartbeat-timeout`` and
``--rebalance-debounce`` tune the eviction trigger.  The
``--chaos-*-cluster`` family drives a seeded
:class:`~repro.faults.ClusterFaultPlan` (shard kills, pipe drops,
poison jobs, a front-door crash at journal record K — the crash exits
with code 75). ::

    repro serve --workload jobs.json --workers 4 --out responses.json
    repro serve --demo 50 --queue-capacity 8 --deadline 2 --metrics-out m.json
    repro serve --demo 300 --shards 3 --kill-shard 1 --kill-after 80 \\
        --health-out health.json
    repro serve --demo 300 --shards 3 --journal-dir wal --supervise \\
        --chaos-kill-every 60 --chaos-crash-at-record 400
    repro serve --recover --journal-dir wal --shards 3 --supervise
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.serving.api import (
    FAILED,
    SHED,
    chol_request,
    job_from_wire,
    pxpotrf_request,
)
from repro.serving.budget import Budget
from repro.serving.client import ServingClient
from repro.serving.queue import parse_priority
from repro.util.serialization import atomic_write_json


#: Exit code of ``repro submit`` when transport retries are exhausted.
EXIT_TRANSPORT = 3

#: Exception types treated as transient transport faults (retryable).
TRANSIENT_ERRORS = (
    BrokenPipeError,
    ConnectionError,
    TimeoutError,
    OSError,
)


def _submit_with_retry(
    client,
    job,
    *,
    attempts: int = 3,
    seed: int = 0,
    backoff_base: float = 0.05,
    sleep=None,
):
    """Submit with bounded, seeded-jitter retries on transport faults.

    Retries only :data:`TRANSIENT_ERRORS` (a dead pipe, a submission
    timeout) — a *terminal* response, including ``failed``/``shed``,
    is an answer and is returned as-is.  The backoff before retry
    ``r`` is ``backoff_base · 2^r`` jittered by a deterministic
    [0.5, 1.5) factor drawn through
    :func:`~repro.faults.plan.fault_unit`, so retry schedules are
    reproducible under a fixed seed.  Re-raises the last error once
    the attempts are spent.
    """
    import time as _time

    from repro.faults.plan import fault_unit

    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    sleep = sleep if sleep is not None else _time.sleep
    last = None
    for attempt in range(attempts):
        try:
            return client.submit(job)
        except TRANSIENT_ERRORS as exc:
            last = exc
            if attempt + 1 >= attempts:
                break
            delay = (
                backoff_base
                * (2.0 ** attempt)
                * (0.5 + fault_unit(seed, "submit-retry", attempt))
            )
            sleep(delay)
    raise last


def _budget_from_args(args) -> "Budget | None":
    budget = Budget(
        max_words=args.max_words,
        max_messages=args.max_messages,
        max_flops=args.max_flops,
        deadline_seconds=args.deadline,
    )
    return None if budget.is_unlimited() else budget


def _add_budget_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-words", type=int, default=None,
        help="simulated-cost cap: words moved (cumulative over retries)",
    )
    parser.add_argument(
        "--max-messages", type=int, default=None,
        help="simulated-cost cap: messages",
    )
    parser.add_argument(
        "--max-flops", type=int, default=None,
        help="simulated-cost cap: flops",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock deadline, measured from submission",
    )


def submit_main(argv: "list[str]") -> int:
    """``repro submit``: one job, one structured JSON response."""
    from repro.cli import normalize_algorithm

    parser = argparse.ArgumentParser(
        prog="repro submit",
        description="Submit one factorization job through the serving "
        "client and print its terminal response as JSON.",
    )
    parser.add_argument(
        "target", choices=("chol", "pxpotrf"),
        help="sequential Cholesky or the parallel PxPOTRF",
    )
    parser.add_argument(
        "--algorithm", default="lapack", metavar="NAME",
        help="sequential algorithm (chol only; default: lapack)",
    )
    parser.add_argument(
        "--layout", default="column-major", help="storage layout (chol only)"
    )
    parser.add_argument("--n", type=int, default=64, help="matrix dimension")
    parser.add_argument(
        "--M", type=int, default=None,
        help="fast-memory words (chol only; default: 3*n)",
    )
    parser.add_argument(
        "--block", type=int, default=None,
        help="distribution block (pxpotrf; default: n/sqrt(P))",
    )
    parser.add_argument(
        "--P", type=int, default=4, help="processors (pxpotrf; default: 4)"
    )
    parser.add_argument("--seed", type=int, default=0, help="input matrix seed")
    parser.add_argument(
        "--priority", default="normal",
        help="job priority: low/normal/high or an integer (default: normal)",
    )
    parser.add_argument(
        "--no-verify", action="store_true",
        help="skip the reference-Cholesky correctness check",
    )
    parser.add_argument(
        "--cluster", action="store_true",
        help="route through a sharded (inline) cluster front door "
        "instead of a single service",
    )
    parser.add_argument(
        "--shards", type=int, default=2,
        help="shard count for --cluster (default: 2)",
    )
    parser.add_argument(
        "--transport-retries", type=int, default=3, metavar="N",
        help="attempts before a transient transport fault (broken pipe, "
        "submission timeout) becomes exit code 3 (default: 3)",
    )
    parser.add_argument(
        "--retry-seed", type=int, default=0,
        help="seed of the deterministic retry-backoff jitter",
    )
    _add_budget_args(parser)
    args = parser.parse_args(argv)

    common = dict(
        n=args.n,
        seed=args.seed,
        verify=not args.no_verify,
        priority=parse_priority(args.priority),
        budget=_budget_from_args(args),
    )
    try:
        if args.target == "chol":
            job = chol_request(
                algorithm=normalize_algorithm(args.algorithm),
                layout=args.layout,
                M=args.M,
                **common,
            )
        else:
            job = pxpotrf_request(P=args.P, block=args.block, **common)
    except ValueError as exc:
        parser.error(str(exc))

    if args.cluster:
        client = ServingClient.cluster(shards=args.shards, mode="inline")
    else:
        client = ServingClient.local(workers=0, queue_capacity=1)
    try:
        with client:
            response = _submit_with_retry(
                client,
                job,
                attempts=args.transport_retries,
                seed=args.retry_seed,
            )
    except TRANSIENT_ERRORS as exc:
        print(
            f"[submit] transport failure after {args.transport_retries} "
            f"attempt(s): {exc}",
            file=sys.stderr,
        )
        return EXIT_TRANSPORT
    print(json.dumps(response.to_dict(), indent=2, sort_keys=True))
    if response.status == FAILED:
        return 1
    if response.status == SHED:
        return 2
    return 0


def serve_main(argv: "list[str]") -> int:
    """``repro serve``: drive a workload through a service or a cluster."""
    from repro.experiments.spec import PARALLEL
    from repro.faults.plan import FaultPlan
    from repro.observability.metrics import METRICS
    from repro.serving.workloads import demo_workload

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run a job workload through the resilient "
        "factorization service (or a sharded cluster of them); every "
        "job reaches a terminal done/degraded/shed/failed state.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--workload", metavar="FILE",
        help="JSON list of job records: {point: {...}, priority, budget}",
    )
    source.add_argument(
        "--demo", type=int, metavar="COUNT",
        help="generate a deterministic mixed workload of COUNT jobs",
    )
    parser.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="serve through a cluster of N shard processes behind the "
        "consistent-hash front door (default: 0 = one in-process service)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="worker threads (per shard with --shards; default: 2)",
    )
    parser.add_argument(
        "--queue-capacity", type=int, default=16,
        help="admission-queue bound (per shard; default: 16)",
    )
    parser.add_argument(
        "--retries", type=int, default=1,
        help="execution retries per job (default: 1)",
    )
    parser.add_argument(
        "--breaker-threshold", type=int, default=3,
        help="consecutive failures that trip a breaker (default: 3)",
    )
    parser.add_argument(
        "--breaker-cooldown", type=float, default=1.0,
        help="seconds an open breaker waits before probing (default: 1)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="workload seed (--demo)"
    )
    parser.add_argument(
        "--chaos-drop", type=float, default=0.0,
        help="wrap every job in a fault plan with this drop probability",
    )
    parser.add_argument(
        "--chaos-read-fault", type=float, default=0.0,
        help="wrap every sequential job with this read-fault probability",
    )
    parser.add_argument(
        "--chaos-silent", type=float, default=0.0, metavar="PROB",
        help="wrap every job with this silent bit-flip probability and "
        "arm ABFT checksum protection (implies --abft)",
    )
    parser.add_argument(
        "--chaos-silent-double", type=float, default=0.0, metavar="PROB",
        help="probability a silent strike is an uncorrectable double "
        "(exercises the detect-and-rerun ladder)",
    )
    parser.add_argument(
        "--abft", action="store_true",
        help="run every job checksum-protected (responses carry "
        "verified=true and a factor attestation)",
    )
    parser.add_argument(
        "--abft-attempts", type=int, default=3, metavar="N",
        help="ABFT retry-ladder bound per job (default: 3)",
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=1, help="fault-plan seed"
    )
    parser.add_argument(
        "--window", type=int, default=None, metavar="N",
        help="bounded in-flight submission window (default: total queue "
        "capacity across shards)",
    )
    parser.add_argument(
        "--store-dir", metavar="DIR",
        help="shared result store directory (--shards; default: a "
        "temporary directory removed at exit)",
    )
    parser.add_argument(
        "--health-dir", metavar="DIR",
        help="per-shard health snapshots are atomically written here on "
        "every heartbeat (--shards)",
    )
    parser.add_argument(
        "--journal-dir", metavar="DIR",
        help="write-ahead journal every job lifecycle transition here "
        "(--shards); enables --recover after a crash",
    )
    parser.add_argument(
        "--recover", action="store_true",
        help="replay the journal in --journal-dir and resubmit every "
        "accepted-but-unterminated job (then serve --workload/--demo "
        "jobs, if any)",
    )
    parser.add_argument(
        "--supervise", action="store_true",
        help="respawn dead shards under seeded backoff and a per-shard "
        "restart budget (--shards)",
    )
    parser.add_argument(
        "--restart-budget", type=int, default=3, metavar="N",
        help="respawns allowed per shard before it stays down "
        "(default: 3)",
    )
    parser.add_argument(
        "--heartbeat-timeout", type=float, default=10.0, metavar="SECONDS",
        help="a shard silent this long is considered stale (default: 10)",
    )
    parser.add_argument(
        "--rebalance-debounce", type=float, default=0.0, metavar="SECONDS",
        help="staleness must persist this long before a shard is "
        "evicted from the ring (default: 0 = evict immediately)",
    )
    parser.add_argument(
        "--chaos-cluster-seed", type=int, default=0,
        help="seed of the cluster chaos plan (--chaos-kill-every etc.)",
    )
    parser.add_argument(
        "--chaos-kill-every", type=int, default=0, metavar="N",
        help="chaos: kill a seeded-chosen shard at every N-th "
        "submission (--shards)",
    )
    parser.add_argument(
        "--chaos-shard-kill", type=float, default=0.0, metavar="PROB",
        help="chaos: per-submission shard-kill probability (--shards)",
    )
    parser.add_argument(
        "--chaos-pipe-drop", type=float, default=0.0, metavar="PROB",
        help="chaos: per-dispatch pipe-drop probability; the front "
        "door redelivers (--shards)",
    )
    parser.add_argument(
        "--chaos-poison", type=float, default=0.0, metavar="PROB",
        help="chaos: per-submission probability a job is wrapped in a "
        "fatal fault plan (--shards)",
    )
    parser.add_argument(
        "--chaos-crash-at-record", type=int, default=None, metavar="K",
        help="chaos: crash the front door (exit 75) right after the "
        "journal durably writes record K (--shards --journal-dir)",
    )
    parser.add_argument(
        "--kill-shard", type=int, default=None, metavar="IDX",
        help="chaos: hard-kill shard IDX mid-run (--shards)",
    )
    parser.add_argument(
        "--kill-after", type=int, default=0, metavar="COUNT",
        help="completions to wait for before --kill-shard fires "
        "(default: 0 = immediately after submission starts)",
    )
    parser.add_argument(
        "--out", metavar="FILE", help="write all responses as a JSON list"
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE",
        help="dump the metrics registry as JSON at the end",
    )
    parser.add_argument(
        "--health-out", metavar="FILE",
        help="write the final health/readiness snapshot as JSON",
    )
    parser.add_argument(
        "--backpressure", action="store_true",
        help="throttle submission to queue capacity instead of "
        "load-shedding the burst (workers >= 1 only)",
    )
    parser.add_argument(
        "--tracing", action="store_true",
        help="mint a trace context per job and return merged "
        "cross-process span trees on every response",
    )
    parser.add_argument(
        "--trace-out", metavar="FILE",
        help="write the merged cluster Chrome trace_event JSON here "
        "(implies --tracing)",
    )
    parser.add_argument(
        "--slo-availability", type=float, default=None, metavar="FRAC",
        help="declared availability objective, e.g. 0.999 (default: "
        "the tracker's built-in 0.999)",
    )
    parser.add_argument(
        "--slo-p99", type=float, default=None, metavar="SECONDS",
        help="declared p99 latency objective in seconds (default: no "
        "latency clause)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-job lines"
    )
    _add_budget_args(parser)
    args = parser.parse_args(argv)

    if not args.workload and args.demo is None and not args.recover:
        parser.error("one of --workload, --demo or --recover is required")
    if args.recover and not args.journal_dir:
        parser.error("--recover needs --journal-dir")
    chaos_flags = (
        args.chaos_kill_every
        or args.chaos_shard_kill
        or args.chaos_pipe_drop
        or args.chaos_poison
        or args.chaos_crash_at_record
    )
    if args.shards <= 0:
        for flag, name in (
            (args.journal_dir, "--journal-dir"),
            (args.recover, "--recover"),
            (args.supervise, "--supervise"),
            (chaos_flags, "--chaos-*-cluster flags"),
        ):
            if flag:
                parser.error(f"{name} needs --shards")
    if args.chaos_crash_at_record and not args.journal_dir:
        parser.error("--chaos-crash-at-record needs --journal-dir")

    if args.workload:
        with open(args.workload, "r", encoding="utf-8") as fh:
            records = json.load(fh)
        if not isinstance(records, list):
            parser.error(f"{args.workload} must hold a JSON list of jobs")
        jobs = [job_from_wire(r) for r in records]
    elif args.demo is not None:
        jobs = demo_workload(args.demo, seed=args.seed)
    else:
        jobs = []

    abft_on = args.abft or args.chaos_silent > 0
    if args.chaos_drop or args.chaos_read_fault or args.chaos_silent or abft_on:
        from dataclasses import replace

        from repro.experiments.spec import _freeze_abft

        frozen_abft = (
            _freeze_abft({"max_attempts": args.abft_attempts})
            if abft_on
            else ()
        )
        for job in jobs:
            plan = FaultPlan(
                seed=args.chaos_seed + job.point.seed,
                drop=args.chaos_drop if job.point.kind == PARALLEL else 0.0,
                read_fault=(
                    args.chaos_read_fault
                    if job.point.kind != PARALLEL
                    else 0.0
                ),
                silent=args.chaos_silent,
                silent_double=args.chaos_silent_double,
            )
            updates: dict = {}
            if not plan.is_empty():
                updates["faults"] = plan.freeze()
            if frozen_abft:
                updates["abft"] = frozen_abft
            if updates:
                job.point = replace(job.point, **updates)

    default_budget = _budget_from_args(args)
    tracing = args.tracing or bool(args.trace_out)
    slo_target = None
    if args.slo_availability is not None or args.slo_p99 is not None:
        from repro.observability.slo import SLOTarget

        slo_target = SLOTarget(
            name="cli",
            availability=(
                args.slo_availability
                if args.slo_availability is not None
                else 0.999
            ),
            latency_p99=args.slo_p99,
        )
    if args.shards > 0:
        if args.workers < 1:
            parser.error("--shards needs --workers >= 1 in each shard")
        store_dir = args.store_dir
        if store_dir is None and args.journal_dir:
            # co-locate the shared store with the journal so a recovery
            # run reuses the crashed incarnation's computed results
            import os as _os

            store_dir = _os.path.join(args.journal_dir, "store")
        chaos = None
        if chaos_flags:
            from repro.faults.plan import ClusterFaultPlan

            chaos = ClusterFaultPlan(
                seed=args.chaos_cluster_seed,
                kill_every=args.chaos_kill_every,
                shard_kill=args.chaos_shard_kill,
                pipe_drop=args.chaos_pipe_drop,
                poison=args.chaos_poison,
                crash_at_record=args.chaos_crash_at_record,
            )
        cluster_kwargs = dict(
            shards=args.shards,
            mode="process",
            workers_per_shard=args.workers,
            queue_capacity=args.queue_capacity,
            retries=args.retries,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown=args.breaker_cooldown,
            default_budget=default_budget,
            store_dir=store_dir,
            health_dir=args.health_dir,
            # tight enough that a supervised respawn (backoff ~0.1-0.2s)
            # lands while a short soak is still draining
            monitor_interval=0.2,
            heartbeat_timeout=args.heartbeat_timeout,
            rebalance_debounce=args.rebalance_debounce,
            tracing=tracing,
            telemetry=tracing,
            slo_target=slo_target,
            journal_dir=args.journal_dir,
            # an armed crash models SIGKILL: no cleanup, exit code 75
            journal_crash_mode="exit",
            chaos=chaos,
            supervise=args.supervise,
            restart_budget=args.restart_budget,
        )
        if args.recover:
            from repro.serving.cluster import ServingCluster

            cluster_kwargs.pop("journal_dir")
            client = ServingClient(
                ServingCluster.recover(args.journal_dir, **cluster_kwargs)
            )
        else:
            client = ServingClient.cluster(**cluster_kwargs)
        window = args.window or args.queue_capacity * args.shards
    else:
        if args.backpressure and args.workers < 1:
            parser.error(
                "--backpressure needs --workers >= 1 to drain the queue"
            )
        if args.kill_shard is not None:
            parser.error("--kill-shard needs --shards")
        client = ServingClient.local(
            workers=args.workers,
            queue_capacity=args.queue_capacity,
            retries=args.retries,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown=args.breaker_cooldown,
            default_budget=default_budget,
            tracing=tracing,
        )
        # --backpressure's historical contract: throttle submission to
        # the waiting room's capacity.  The client's bounded window is
        # exactly that throttle.
        window = args.window or (
            args.queue_capacity if args.backpressure else max(len(jobs), 1)
        )

    responses = []
    kill_name = (
        f"shard-{args.kill_shard}" if args.kill_shard is not None else None
    )
    try:
        completed = 0
        for ticket in getattr(client.backend, "recovered", ()):
            response = ticket.result(timeout=600)
            responses.append(response)
            completed += 1
            if not args.quiet:
                print(
                    f"[serve] recovered {response.job_id}: {response.status}"
                    + (f" ({response.reason})" if response.reason else ""),
                    file=sys.stderr,
                )
        if args.recover:
            print(
                f"[serve] journal replay: {len(responses)} job(s) "
                "resubmitted and terminal",
                file=sys.stderr,
            )
        for job, response in client.stream(jobs, window=window, timeout=600):
            responses.append(response)
            completed += 1
            if not args.quiet:
                print(
                    f"[serve] {response.job_id}: {response.status}"
                    + (f" ({response.reason})" if response.reason else ""),
                    file=sys.stderr,
                )
            if kill_name is not None and completed >= args.kill_after:
                print(f"[serve] killing {kill_name}", file=sys.stderr)
                client.backend.kill_shard(kill_name)
                kill_name = None
        health = client.health()
        readiness = client.readiness()
    finally:
        client.close()

    by_status: "dict[str, int]" = {}
    for response in responses:
        by_status[response.status] = by_status.get(response.status, 0) + 1
    print(f"[serve] {len(responses)} jobs: {by_status}", file=sys.stderr)
    if args.shards > 0:
        print(
            f"[serve] ring: {health['ring']['nodes']} "
            f"rebalances={health['rebalances']} "
            f"resubmitted={health['resubmitted']} store={health['store']}",
            file=sys.stderr,
        )
        if "journal" in health:
            print(
                f"[serve] journal: {health['journal']['records']} record(s) "
                f"at {health['journal']['path']}",
                file=sys.stderr,
            )
        if "supervisor" in health:
            print(
                f"[serve] supervisor: respawns={health['supervisor']['respawns']}",
                file=sys.stderr,
            )
    else:
        print(f"[serve] breakers: {health['breakers']}", file=sys.stderr)
    if args.shards > 0 and "slo" in health:
        slo = health["slo"]
        budget_doc = slo.get("error_budget") or {}
        print(
            f"[serve] slo: availability={slo.get('availability', 1.0):.5f} "
            f"burn={budget_doc.get('burn', 0.0):.2f} "
            f"violations={slo.get('violations') or 'none'}",
            file=sys.stderr,
        )
    if args.trace_out:
        from repro.observability.export import write_chrome_trace

        traces = [r.trace for r in responses if r.trace is not None]
        path = write_chrome_trace(traces, args.trace_out)
        print(
            f"[serve] wrote {path} ({len(traces)} trace(s))",
            file=sys.stderr,
        )
    if args.out:
        atomic_write_json(
            args.out,
            [r.to_dict() for r in responses],
            indent=1,
            sort_keys=True,
        )
        print(f"[serve] wrote {args.out}", file=sys.stderr)
    if args.metrics_out:
        atomic_write_json(
            args.metrics_out, METRICS.to_dict(), indent=1, sort_keys=True
        )
        print(f"[serve] wrote {args.metrics_out}", file=sys.stderr)
    if args.health_out:
        atomic_write_json(
            args.health_out,
            {"health": health, "readiness": readiness},
            indent=1,
            sort_keys=True,
        )
        print(f"[serve] wrote {args.health_out}", file=sys.stderr)
    return 1 if by_status.get(FAILED, 0) else 0


__all__ = ["serve_main", "submit_main"]
