"""The parallel, cached experiment engine.

Executes the points of an :class:`~repro.experiments.spec.ExperimentSpec`
and returns an :class:`ExperimentResult` with one
:class:`~repro.results.Measurement` per point, in spec order, plus
per-point wall time and cache provenance.

Execution model:

* every point is first looked up in the :class:`ResultCache`; hits are
  served without simulating;
* misses run through :func:`repro.analysis.sweeps.measure` (sequential
  points) or :func:`~repro.analysis.sweeps.measure_parallel` (PxPOTRF
  points) — serially for ``jobs=1``, fanned out over a
  ``concurrent.futures.ProcessPoolExecutor`` otherwise;
* computed measurements are written back to the cache, so overlapping
  benches and re-runs converge to pure cache reads.

Because each point's seed is fixed by the spec and the simulators are
deterministic, a ``jobs=N`` run produces measurements identical to a
serial run — the engine asserts nothing about scheduling, only about
configurations.  Points carrying a frozen
:class:`~repro.faults.FaultPlan` run their simulation under that plan
(the plan is part of the point, so the derived schedule is identical
under any job count).

Hardened execution: a point that raises is retried with exponential
backoff (``retries``/``retry_backoff``); a pool that makes no progress
for ``point_timeout`` seconds is declared stalled and its unfinished
points failed; a worker-process crash (``BrokenProcessPool``) demotes
the affected points to an in-process serial retry instead of killing
the run.  With ``salvage=True`` (default) failed points are recorded
as error-carrying :class:`PointResult` rows — the artifact keeps every
completed measurement plus the failure reasons — rather than
discarding a whole sweep over one bad point.
"""

from __future__ import annotations

import os
import re
import sys
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Callable, Optional

from repro.experiments.cache import ResultCache, code_version
from repro.experiments.spec import PARALLEL, ExperimentSpec, SpecPoint
from repro.machine.core import ModelError
from repro.observability.metrics import METRICS
from repro.results import Measurement
from repro.util.validation import ValidationError

ProgressFn = Callable[[int, int, "PointResult"], None]


def execute_point(
    point: SpecPoint, guard=None
) -> "tuple[Measurement, float]":
    """Run one spec point from scratch; returns (measurement, seconds).

    This is the process-pool worker: it takes only a picklable
    :class:`SpecPoint` and returns a detached (``run``-free)
    measurement, so results cross process boundaries cleanly.

    ``guard`` (serving layer, in-process only) arms the simulators with
    a live :class:`~repro.serving.budget.BudgetGuard`; the run then
    aborts with :class:`~repro.serving.budget.BudgetExceeded` when the
    job's simulated-cost quota is crossed.
    """
    # Imported here, not at module top: sweeps imports the engine for
    # its thin wrappers, and the lazy import breaks the cycle.
    from repro.analysis.sweeps import measure, measure_parallel

    t0 = time.perf_counter()
    plan = point.fault_plan
    abft = point.abft_config
    if point.kind == PARALLEL:
        m = measure_parallel(
            point.n,
            point.block,
            point.P,
            seed=point.seed,
            verify=point.verify,
            observe=point.observe,
            faults=plan,
            guard=guard,
            abft=abft,
        )
    else:
        kwargs = dict(point.params)
        layout_block = kwargs.pop("layout_block", None)
        m = measure(
            point.algorithm,
            point.n,
            point.M,
            layout=point.layout,
            layout_block=layout_block,
            seed=point.seed,
            verify=point.verify,
            observe=point.observe,
            faults=plan,
            guard=guard,
            abft=abft,
            **kwargs,
        )
    return m.without_run(), time.perf_counter() - t0


@dataclass(frozen=True)
class PointResult:
    """One executed (or cache-served, or failed) spec point.

    A failed-but-salvaged point carries ``measurement=None`` and a
    human-readable ``error``; everything else about the row (point
    identity, wall time) is still recorded so the artifact shows *what*
    failed and *why*, next to the points that succeeded.
    """

    point: SpecPoint
    measurement: "Measurement | None"
    wall_time: float
    cached: bool
    error: "str | None" = None

    @property
    def ok(self) -> bool:
        """True when the point produced a measurement."""
        return self.measurement is not None

    def to_dict(self) -> dict:
        """JSON-ready dict for artifact output."""
        return {
            "point": self.point.to_dict(),
            "measurement": (
                None if self.measurement is None else self.measurement.to_dict()
            ),
            "wall_time": float(self.wall_time),
            "cached": bool(self.cached),
            "error": self.error,
        }


@dataclass(frozen=True)
class ExperimentResult:
    """All point results of one spec run, in spec order."""

    spec: ExperimentSpec
    points: "tuple[PointResult, ...]"
    wall_time: float

    @property
    def measurements(self) -> "list[Measurement]":
        """The successful measurements, in spec order (failures skipped)."""
        return [p.measurement for p in self.points if p.measurement is not None]

    @property
    def failures(self) -> "list[PointResult]":
        """The salvaged failed points, in spec order."""
        return [p for p in self.points if p.error is not None]

    @property
    def cache_hits(self) -> int:
        """How many points were served from the cache."""
        return sum(1 for p in self.points if p.cached)

    @property
    def cache_misses(self) -> int:
        """How many points were simulated fresh."""
        return sum(1 for p in self.points if not p.cached)

    def to_dict(self) -> dict:
        """JSON-ready dict: spec, code version, per-point results."""
        return {
            "spec": self.spec.to_dict(),
            "code_version": code_version(),
            "wall_time": float(self.wall_time),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "failed": len(self.failures),
            "points": [p.to_dict() for p in self.points],
        }

    def save(self, directory: str | None = None) -> str:
        """Write the JSON artifact; returns the path.

        Defaults to ``reports/experiments/<spec-name>.json`` next to
        the text reports.  The write is atomic (temp file +
        ``os.replace``), so a worker killed mid-save never leaves a
        truncated artifact behind.
        """
        from repro.analysis.report import default_reports_dir
        from repro.util.serialization import atomic_write_json

        directory = directory or os.path.join(default_reports_dir(), "experiments")
        os.makedirs(directory, exist_ok=True)
        safe = re.sub(r"[^A-Za-z0-9._-]+", "_", self.spec.name) or "experiment"
        path = os.path.join(directory, f"{safe}.json")
        atomic_write_json(path, self.to_dict(), indent=1, sort_keys=True)
        return path


#: Errors a point raises identically on every attempt — a shape the
#: model does not support, an invalid configuration — so the engine
#: records them on the first raise instead of retrying.
_REJECTIONS = (ModelError, ValidationError)


class ExperimentEngine:
    """Runs specs with a shared cache, job count and progress stream.

    Parameters
    ----------
    jobs:
        Worker processes for cache-miss points; ``1`` (default) runs
        serially in-process.
    cache:
        ``"default"`` for the shared on-disk cache, ``None`` to
        disable caching, or an explicit :class:`ResultCache`.
    progress:
        Optional callback ``(done, total, point_result)`` invoked as
        each point resolves.
    verbose:
        Emit per-point progress lines and a summary to stderr.
    point_timeout:
        Stall guard for the process pool: if *no* point completes
        within this many seconds, the pool is declared stalled, its
        unfinished points are failed (salvaged or raised per
        ``salvage``), and the run moves on.  ``None`` (default) waits
        indefinitely.
    retries:
        How many times a raising point is re-attempted (after the
        first try) before it counts as failed.  A ``ModelError`` or
        ``ValidationError`` would raise again on every attempt, so
        it fails the point at once.
    retry_backoff:
        Base of the exponential retry delay: attempt *k* waits
        ``retry_backoff · 2^(k-1)`` seconds before re-running.
    salvage:
        ``True`` (default) records failed points as error rows in the
        result instead of raising — one bad point no longer discards a
        whole sweep.  ``False`` restores fail-fast.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache: "ResultCache | str | None" = "default",
        progress: Optional[ProgressFn] = None,
        verbose: bool = False,
        point_timeout: "float | None" = None,
        retries: int = 2,
        retry_backoff: float = 0.5,
        salvage: bool = True,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if point_timeout is not None and point_timeout <= 0:
            raise ValueError(f"point_timeout must be positive, got {point_timeout}")
        self.jobs = int(jobs)
        if cache == "default":
            cache = ResultCache.default()
        elif isinstance(cache, str):
            cache = ResultCache(cache)
        self.cache: ResultCache | None = cache
        self.progress = progress
        self.verbose = verbose
        self.point_timeout = point_timeout
        self.retries = int(retries)
        self.retry_backoff = float(retry_backoff)
        self.salvage = bool(salvage)
        self.results: "list[ExperimentResult]" = []

    def _notify(self, done: int, total: int, pr: PointResult, name: str) -> None:
        if self.verbose:
            if pr.error is not None:
                tag = f"FAILED: {pr.error}"
            else:
                tag = "cache" if pr.cached else f"{pr.wall_time:.2f}s"
            print(
                f"[engine] {name}: {done}/{total} {pr.point.label()} ({tag})",
                file=sys.stderr,
            )
        if self.progress is not None:
            self.progress(done, total, pr)

    def run(self, spec: ExperimentSpec) -> ExperimentResult:
        """Execute every point of ``spec`` (cache first, then compute)."""
        t0 = time.perf_counter()
        total = len(spec.points)
        out: "list[PointResult | None]" = [None] * total
        pending: "list[tuple[int, SpecPoint]]" = []
        done = 0
        for i, pt in enumerate(spec.points):
            entry = self.cache.get(pt) if self.cache is not None else None
            if entry is not None:
                try:
                    m = Measurement.from_dict(entry["measurement"])
                except (KeyError, TypeError, ValueError):
                    pending.append((i, pt))
                    continue
                out[i] = PointResult(pt, m, float(entry.get("wall_time", 0.0)), True)
                done += 1
                METRICS.counter("repro_engine_points_total", source="cache").inc()
                self._notify(done, total, out[i], spec.name)
            else:
                pending.append((i, pt))

        def record(i: int, pt: SpecPoint, m: Measurement, dt: float) -> None:
            nonlocal done
            if self.cache is not None:
                self.cache.put(pt, m.to_dict(), dt)
            out[i] = PointResult(pt, m, dt, False)
            done += 1
            METRICS.counter("repro_engine_points_total", source="computed").inc()
            METRICS.histogram("repro_point_wall_seconds", kind=pt.kind).observe(dt)
            self._notify(done, total, out[i], spec.name)

        def fail(i: int, pt: SpecPoint, err: str, dt: float) -> None:
            nonlocal done
            out[i] = PointResult(pt, None, dt, False, error=err)
            done += 1
            METRICS.counter("repro_engine_failures_total", kind=pt.kind).inc()
            self._notify(done, total, out[i], spec.name)

        def run_serial(i: int, pt: SpecPoint) -> None:
            """Execute one point in-process with bounded backoff retries."""
            t0p = time.perf_counter()
            for attempt in range(1, self.retries + 2):
                try:
                    m, dt = execute_point(pt)
                except Exception as exc:  # noqa: BLE001 - salvage boundary
                    if attempt > self.retries or isinstance(exc, _REJECTIONS):
                        if not self.salvage:
                            raise
                        fail(
                            i,
                            pt,
                            f"{type(exc).__name__}: {exc}",
                            time.perf_counter() - t0p,
                        )
                        return
                    METRICS.counter(
                        "repro_engine_retries_total", kind=pt.kind
                    ).inc()
                    time.sleep(self.retry_backoff * (2 ** (attempt - 1)))
                else:
                    record(i, pt, m, dt)
                    return

        if pending and self.jobs > 1 and len(pending) > 1:
            workers = min(self.jobs, len(pending))
            # Points whose worker raised (including a crashed worker
            # process, which surfaces as BrokenProcessPool on every
            # outstanding future) are retried serially in-process after
            # the pool is gone.
            leftovers: "list[tuple[int, SpecPoint]]" = []
            rejected: "list[tuple[int, SpecPoint, Exception]]" = []
            pool = ProcessPoolExecutor(max_workers=workers)
            futures = {
                pool.submit(execute_point, pt): (i, pt) for i, pt in pending
            }
            not_done = set(futures)
            stalled = False
            while not_done:
                finished, not_done = wait(
                    not_done,
                    timeout=self.point_timeout,
                    return_when=FIRST_COMPLETED,
                )
                if not finished:
                    stalled = True
                    break
                for fut in finished:
                    i, pt = futures[fut]
                    try:
                        m, dt = fut.result()
                    except _REJECTIONS as exc:
                        rejected.append((i, pt, exc))
                    except Exception:  # noqa: BLE001 - retried serially
                        leftovers.append((i, pt))
                    else:
                        record(i, pt, m, dt)
            if stalled:
                # Nothing finished for a whole point_timeout window:
                # give up on the unfinished points without blocking on
                # the (possibly hung) workers.
                for fut in not_done:
                    fut.cancel()
                pool.shutdown(wait=False, cancel_futures=True)
                for fut in sorted(not_done, key=lambda f: futures[f][0]):
                    i, pt = futures[fut]
                    METRICS.counter(
                        "repro_engine_timeouts_total", kind=pt.kind
                    ).inc()
                    err = (
                        f"no progress for {self.point_timeout:.1f}s; "
                        "point abandoned as stalled"
                    )
                    if not self.salvage:
                        raise TimeoutError(f"{pt.label()}: {err}")
                    fail(i, pt, err, float(self.point_timeout))
            else:
                pool.shutdown(wait=True)
            for i, pt, exc in sorted(rejected, key=lambda r: r[0]):
                if not self.salvage:
                    raise exc
                fail(i, pt, f"{type(exc).__name__}: {exc}", 0.0)
            for i, pt in sorted(leftovers):
                run_serial(i, pt)
        else:
            for i, pt in pending:
                run_serial(i, pt)

        result = ExperimentResult(
            spec=spec,
            points=tuple(out),  # type: ignore[arg-type]
            wall_time=time.perf_counter() - t0,
        )
        self.results.append(result)
        return result

    def summary(self) -> str:
        """One-line account of everything this engine ran."""
        from repro.schedule import default_cache

        total = sum(len(r.points) for r in self.results)
        hits = sum(r.cache_hits for r in self.results)
        failed = sum(len(r.failures) for r in self.results)
        secs = sum(r.wall_time for r in self.results)
        tail = f", {failed} failed" if failed else ""
        sched = default_cache().stats()
        sched_hits = sched["hits_memory"] + sched["hits_disk"]
        sched_tail = (
            f", schedules {sched_hits} replayed/{sched['misses']} compiled"
            if sched_hits or sched["misses"]
            else ""
        )
        return (
            f"[engine] {total} points across {len(self.results)} spec(s): "
            f"{hits} from cache, {total - hits} computed{tail}, "
            f"jobs={self.jobs}, {secs:.2f}s{sched_tail}"
        )

    def save_artifacts(self, directory: str | None = None) -> "list[str]":
        """Write one JSON artifact per spec run so far; returns paths."""
        return [r.save(directory) for r in self.results]


def run_experiment(
    spec: ExperimentSpec,
    *,
    jobs: int = 1,
    cache: "ResultCache | str | None" = "default",
    progress: Optional[ProgressFn] = None,
    verbose: bool = False,
    point_timeout: "float | None" = None,
    retries: int = 2,
    retry_backoff: float = 0.5,
    salvage: bool = True,
) -> ExperimentResult:
    """One-shot convenience: build an engine, run one spec."""
    engine = ExperimentEngine(
        jobs=jobs,
        cache=cache,
        progress=progress,
        verbose=verbose,
        point_timeout=point_timeout,
        retries=retries,
        retry_backoff=retry_backoff,
        salvage=salvage,
    )
    return engine.run(spec)


__all__ = [
    "ExperimentEngine",
    "ExperimentResult",
    "PointResult",
    "execute_point",
    "run_experiment",
]
