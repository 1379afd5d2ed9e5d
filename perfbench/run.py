"""Run one benchmark workload; the result is the last line of stdout.

    python3 perfbench/run.py --workload census|serve-fresh \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-golden   # regenerate golden/census.json

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run (see README.md).  Diagnostic JSON
lines (environment fingerprint, sample counts, any mismatch) come
before the result line.  The script is also re-imported as
``__mp_main__`` by every spawned shard process; there it only installs
the tracing wrappers, and only when the traced run asked for them.
"""

import json
import os
import signal
import sys

import harness
import tracer

harness.pin_blas_threads()
if harness.SRC not in sys.path:
    sys.path.insert(1, harness.SRC)

if __name__ == "__mp_main__" and os.environ.get(tracer.SHARD_TRACE_ENV):
    tracer.install_in_shard(os.environ[tracer.SHARD_TRACE_ENV])

WORKLOADS = ("census", "serve-fresh")


def main(argv=None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)
    if not args.write_golden and args.workload is None:
        ap.error("--workload is required")
    if not os.path.isdir(os.path.join(harness.SRC, "repro")):
        print(f"perfbench: no program at {harness.SRC}; nothing to measure", file=sys.stderr)
        return 2
    # A parent that ignores SIGCHLD passes that on to this process; the
    # kernel would then reap its children itself, and waiting for the
    # shards or the resource tracker would fail with ECHILD.
    signal.signal(signal.SIGCHLD, signal.SIG_DFL)

    import census
    import serve

    import repro.analysis.sweeps  # noqa: F401 - part of set-up
    import repro.experiments  # noqa: F401
    import repro.serving  # noqa: F401

    state = harness.StateRoot(args.workload or "golden")
    ticks = harness.cpu_times()
    try:
        if args.write_golden:
            census.write_golden(0)
            return 0
        import_s = harness.import_seconds()
        module = census if args.workload == "census" else serve
        run = module.run_traced if args.trace else module.run
        result = run(args, state, import_s)
        from repro.experiments.cache import code_version

        harness.note("fingerprint", dict(
            harness.fingerprint(),
            source_digest=code_version(),
            host_cpu_share=harness.host_shares(ticks, harness.cpu_times()),
        ))
    finally:
        state.close()
        _stop_resource_tracker()
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process that spawning shards started.

    ``multiprocessing`` starts a resource tracker with the first spawned
    process and leaves it to exit after this one; stopping it here means
    every process the run started has ended before the run does.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
