"""Schedule compilation: capture one run, replay every same-shape run.

This package is the simulator's JIT.  The communication counts of
every registry algorithm are pure functions of shape — (algorithm,
layout, n, machine capacities, block params, fault plan) — so the
first run of a shape is *captured* into a
:class:`~repro.schedule.compiled.TransferSchedule` and every later run
of the same shape is *replayed*: one real ``dense_cholesky`` for the
numerics plus the captured counts added to the machine, with the
Python interpretation of the algorithm skipped entirely.

Pipeline: **capture** (the interpreted run on a pristine machine; its
per-level totals, peaks, flops, bookkeeping and fault record are read
off the machine afterwards) → **cache** (content-addressed memory +
disk tiers, keyed by shape and code version, one line of JSON per
schedule) → **replay**
(:meth:`~repro.machine.core.HierarchicalMachine.replay_schedule`).

Compilation is conservative: it engages only for a *pristine* machine
that nothing observes — no trace, span recorder, budget guard or ABFT
guardian, and zero counters.  A machine any observer watches runs the
ordinary interpreted walk live, the element-wise reference the golden
suite pins the plans and replays to.  :func:`compile_disabled` turns
the layer off for a block, so every run in it is interpreted whatever
the cache holds (count references and tests use it).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from repro.observability.metrics import METRICS
from repro.schedule.cache import (
    ScheduleCache,
    default_cache,
    fault_plan_digest,
    schedule_key,
    set_default_cache,
)
from repro.schedule.compiled import (
    ScheduleError,
    ScheduleRecorder,
    TransferSchedule,
    _pristine,
)

__all__ = [
    "ScheduleCache",
    "ScheduleError",
    "ScheduleRecorder",
    "TransferSchedule",
    "compile_disabled",
    "compile_enabled",
    "compiled_session",
    "default_cache",
    "fault_plan_digest",
    "last_run_mode",
    "schedule_key",
    "set_default_cache",
]

_compile_enabled: bool = True


def compile_enabled() -> bool:
    """Whether schedule compilation is currently active."""
    return _compile_enabled


@contextmanager
def compile_disabled() -> Iterator[None]:
    """Run a block with schedule compilation forced off (ablation)."""
    global _compile_enabled
    prev, _compile_enabled = _compile_enabled, False
    try:
        yield
    finally:
        _compile_enabled = prev


class _RunMode(threading.local):
    """Per-thread record of how the last ``run_algorithm`` executed."""

    def __init__(self) -> None:
        self.mode = "off"


_run_mode = _RunMode()


def note_run_mode(mode: str) -> None:
    """Record this thread's last run mode (off/capture/replay)."""
    _run_mode.mode = mode


def last_run_mode() -> str:
    """How this thread's most recent algorithm run executed.

    ``"replay"`` — counters folded from a compiled schedule;
    ``"capture"`` — interpreted run that produced a new schedule;
    ``"off"`` — compilation disabled or the run was ineligible.
    """
    return _run_mode.mode


def _machine_eligible(machine) -> bool:
    """Can this machine's next run be captured or replayed?

    Requires a machine no observer is watching
    (:meth:`~repro.machine.core.HierarchicalMachine.unobserved`:
    traces, span profilers, budget guards and ABFT guardians all see
    per-event state a bulk replay cannot reproduce, and an armed
    guardian must observe every boundary live to catch an injected
    silent fault) and no previous run has touched.  Any of them
    disables the layer for this run (never breaking their semantics,
    only the speedup).
    """
    return (
        machine.unobserved()
        and machine._scope_depth == 0
        and machine.resident.is_empty()
        and _pristine(machine)
        and (
            machine.faults is None
            or not (
                machine.faults.events or machine.faults.stats.any_injected()
            )
        )
    )


class _CompiledSession:
    """One eligible ``run_algorithm`` invocation's compile/replay plan."""

    __slots__ = ("algorithm", "matrix", "key", "cache")

    def __init__(self, algorithm: str, matrix, key: str, cache: ScheduleCache):
        self.algorithm = algorithm
        self.matrix = matrix
        self.key = key
        self.cache = cache

    def run(self, fn: Callable[[], np.ndarray]) -> np.ndarray:
        """Replay a cached schedule, or run ``fn`` under capture.

        A cached schedule that refuses to apply (:class:`ScheduleError`
        — shape drift, corruption) falls through to a fresh capture;
        the machine is guaranteed untouched by a failed apply.
        """
        schedule = self.cache.get(self.key)
        if schedule is not None:
            try:
                return self._replay(schedule)
            except ScheduleError:
                METRICS.counter(
                    "repro_schedule_events_total", event="apply-mismatch"
                ).inc()
        return self._capture(fn)

    def _canonical_factor(self, source: np.ndarray) -> np.ndarray:
        """Factor ``source`` with the stage-faithful dense kernel and
        poke the result into the tracked matrix.

        Both compiled modes return this factor — a capturing run and a
        later replay of the same input are *bitwise* identical, so
        which mode executed is numerically unobservable.  Interpreted
        vs compiled stays ``allclose`` (the interpreted walk factors
        block by block); the planned and the live interpreted walks
        are bit-identical to each other.
        """
        from repro.sequential.kernels import dense_cholesky

        A = self.matrix
        L = dense_cholesky(source, stage=self.algorithm)
        tril = np.tril_indices(A.layout.n)
        A.data[tril] = L[tril]
        return A.lower()

    def _replay(self, schedule: TransferSchedule) -> np.ndarray:
        """Numerics first (so a non-SPD input fails before any charge),
        then add the schedule's counts to the machine in one shot."""
        A = self.matrix
        result = self._canonical_factor(A.data)
        A.machine.replay_schedule(schedule)
        METRICS.counter(
            "repro_schedule_events_total", event="replay"
        ).inc()
        note_run_mode("replay")
        return result

    def _capture(self, fn: Callable[[], np.ndarray]) -> np.ndarray:
        """Run ``fn`` interpreted, cache its schedule, and return the
        canonical factor of the original input."""
        original = np.array(self.matrix.data, copy=True)
        recorder = ScheduleRecorder(self.matrix.machine)
        fn()
        self.cache.put(self.key, recorder.finalize())
        result = self._canonical_factor(original)
        METRICS.counter("repro_schedule_events_total", event="capture").inc()
        note_run_mode("capture")
        return result


def compiled_session(
    algorithm: str, A, params: dict, abft=None
) -> "_CompiledSession | None":
    """Build the compile/replay plan for one run, if it is eligible.

    Returns ``None`` (caller runs uncompiled) when compilation is off,
    the machine is being observed or is not pristine, or the params
    cannot be canonically keyed.  ``abft`` (a protection config) makes
    the run ineligible outright — the registry never compiles
    protected runs — but is still threaded into :func:`schedule_key`
    so any future keyed variant cannot collide with unprotected
    schedules.
    """
    if not compile_enabled():
        return None
    if abft is not None:
        return None
    machine = A.machine
    if not _machine_eligible(machine):
        return None
    try:
        key = schedule_key(
            algorithm=algorithm,
            layout=A.layout,
            base=A.base,
            machine=machine,
            params=params,
            fault_plan=machine.faults.plan if machine.faults else None,
            abft=abft,
        )
    except TypeError:
        return None
    return _CompiledSession(algorithm, A, key, default_cache())
