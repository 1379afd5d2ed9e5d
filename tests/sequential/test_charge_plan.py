"""The charge plan's sweep contract, and how often a naïve walk calls
its charging object.

A sweep hands the plan one inner loop at once: a per-step program of
reads, writes and releases over the slots of a ``(steps, slots, 4)``
array of storage rectangles.  Its steps must leave what is held as
they found it, and the held-rectangle rule still rejects a partial
overlap.  The golden tests (``tests/test_fastpath_golden.py``) hold
the plan's counts, peaks and charged runs to the live walk; here are
the plan's own refusals, a sweep against the same transfers made one
call at a time, and the bound on charging calls that makes a planned
naïve run cost O(n) Python calls rather than Θ(n²).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.layouts import make_layout
from repro.machine import SequentialMachine
from repro.machine.core import ModelError
from repro.matrices.generators import random_spd
from repro.matrices.tracked import TrackedMatrix
from repro.schedule import compile_disabled
from repro.sequential import naive
from repro.sequential.charge_plan import ChargePlan
from repro.sequential.registry import run_algorithm

REREAD = (("read", 0), ("release", 0))
REREAD_PAIR = (("read", 0), ("read", 1), ("release", 0), ("release", 1))


def _plan(n: int = 8, M: int = 64):
    machine = SequentialMachine(M)
    A = TrackedMatrix(random_spd(n, seed=0), make_layout("column-major", n), machine)
    return A, ChargePlan(A)


def _steps(*steps) -> np.ndarray:
    """``(steps, slots, 4)`` rectangles, one list of slots per step."""
    return np.array(steps, dtype=np.int64).reshape(len(steps), -1, 4)


class TestSweepRefusals:
    def test_a_step_overlapping_a_held_block_raises(self):
        A, plan = _plan()
        plan.read(A.block(0, 8, 0, 1))
        with pytest.raises(ModelError, match="held block"):
            plan.sweep(REREAD, _steps([(0, 8, 1, 2)], [(4, 6, 0, 2)]))

    def test_an_empty_slot_overlaps_nothing(self):
        A, plan = _plan()
        plan.read(A.block(0, 8, 0, 1))
        plan.sweep(REREAD, _steps([(3, 3, 0, 1)], [(0, 8, 1, 2)]))
        assert plan.peak == 16

    def test_a_step_that_leaves_a_block_held_raises(self):
        _, plan = _plan()
        program = (("read", 0), ("read", 1), ("release", 0))
        with pytest.raises(ModelError, match="held"):
            plan.sweep(program, _steps([(0, 2, 0, 1), (0, 2, 1, 2)]))

    def test_a_partial_overlap_on_read_within_a_step_raises(self):
        _, plan = _plan()
        with pytest.raises(ModelError, match="partially overlaps"):
            plan.sweep(REREAD_PAIR, _steps([(0, 4, 0, 1), (2, 6, 0, 1)]))

    def test_a_partial_overlap_on_release_within_a_step_raises(self):
        _, plan = _plan()
        program = (("read", 0), ("release", 1), ("release", 0))
        with pytest.raises(ModelError, match="partially overlaps"):
            plan.sweep(program, _steps([(0, 4, 0, 1), (2, 6, 0, 1)]))

    def test_a_partial_overlap_after_a_containment_raises(self):
        """Containment and partial overlap meet alike; the pattern tells
        them apart, so the later step is not taken for the first."""
        _, plan = _plan()
        with pytest.raises(ModelError, match="partially overlaps"):
            plan.sweep(REREAD_PAIR, _steps(
                [(0, 4, 0, 1), (1, 2, 0, 1)],
                [(0, 4, 1, 2), (2, 6, 1, 2)],
            ))

    def test_only_the_offending_step_needs_to_overlap(self):
        """The rule runs once per pattern; a later step with a pattern
        of its own is still checked."""
        _, plan = _plan()
        with pytest.raises(ModelError, match="partially overlaps"):
            plan.sweep(REREAD_PAIR, _steps(
                [(0, 2, 0, 1), (0, 2, 1, 2)],
                [(0, 2, 2, 3), (0, 2, 3, 4)],
                [(0, 4, 4, 5), (2, 6, 4, 5)],
            ))


class TestSweepAgainstExplicitCalls:
    """A sweep records what the same transfers made one call at a time
    record: the same batch and the same peak."""

    @staticmethod
    def _charged(rects, program, explicit: bool, n: int = 8):
        machine = SequentialMachine(64)
        A = TrackedMatrix(random_spd(n, seed=0), make_layout("column-major", n), machine)
        plan = ChargePlan(A)
        plan.read(A.block(4, 8, 7, 8))
        if explicit:
            for step in rects.tolist():
                for op, slot in program:
                    getattr(plan, op)(A.block(*step[slot]))
        else:
            plan.sweep(program, rects)
        plan.write(A.block(4, 8, 7, 8))
        plan.release(A.block(4, 8, 7, 8))
        peak = plan.peak
        plan.close()
        return peak, machine.counters.words_read, machine.messages

    def test_mixed_patterns_in_one_sweep(self):
        """Segment k with its multiplier inside it (pivot-like steps),
        beside it, and an empty multiplier slot."""
        rects = _steps(
            [(2, 6, 0, 1), (2, 3, 0, 1)],
            [(0, 7, 1, 2), (7, 8, 1, 2)],
            [(5, 8, 2, 3), (5, 5, 2, 3)],
            [(1, 2, 3, 4), (1, 8, 4, 5)],
        )
        swept = self._charged(rects, REREAD_PAIR, explicit=False)
        assert swept == self._charged(rects, REREAD_PAIR, explicit=True)
        assert swept[0] == 4 + 8  # the held block plus the widest step

    def test_containment_either_way_in_one_sweep(self):
        """Slot 1 inside slot 0 leaves slot 0 held; slot 0 inside slot 1
        is absorbed by it, so the widest step here is the second (slot
        2 covers both and releases them)."""
        program = (("read", 0), ("read", 1), ("release", 2))
        rects = _steps(
            [(2, 6, 0, 1), (2, 3, 0, 1), (2, 6, 0, 1)],
            [(3, 4, 1, 2), (0, 8, 1, 2), (0, 8, 1, 2)],
        )
        swept = self._charged(rects, program, explicit=False)
        assert swept == self._charged(rects, program, explicit=True)
        assert swept[0] == 4 + 8


def _right_segmented_calls(t, n: int, M: int) -> None:
    """Naïve right-looking's segmented regime, one call per transfer."""
    seg_f, seg_u = max(1, M - 1), max(1, (M - 1) // 2)
    for j in range(n):
        for r in range(j, n, seg_f):
            re = min(r + seg_f, n)
            t("read", r, re, j, j + 1)
            t("write", r, re, j, j + 1)
            t("release", r, re, j, j + 1)
            if r == j:
                t("read", j, j + 1, j, j + 1)
        t("release", j, j + 1, j, j + 1)
        for k in range(j + 1, n):
            t("read", k, k + 1, j, j + 1)
            for r in range(k, n, seg_u):
                re = min(r + seg_u, n)
                t("read", r, re, j, j + 1)
                t("read", r, re, k, k + 1)
                t("write", r, re, k, k + 1)
                t("release", r, re, j, j + 1)
                t("release", r, re, k, k + 1)
            t("release", k, k + 1, j, j + 1)


def _left_segmented_calls(t, n: int, M: int) -> None:
    """Naïve left-looking's segmented regime, one call per transfer."""
    seg = max(1, (M - 2) // 2)
    for j in range(n):
        for r in range(j, n, seg):
            re = min(r + seg, n)
            t("read", r, re, j, j + 1)
            for k in range(j):
                t("read", r, re, k, k + 1)
                t("read", j, j + 1, k, k + 1)
                t("release", r, re, k, k + 1)
                t("release", j, j + 1, k, k + 1)
            t("write", r, re, j, j + 1)
            t("release", r, re, j, j + 1)
            if r == j:
                t("read", j, j + 1, j, j + 1)
        t("release", j, j + 1, j, j + 1)


@pytest.mark.parametrize("algorithm,loop", [
    ("naive-right", _right_segmented_calls),
    ("naive-left", _left_segmented_calls),
], ids=["naive-right", "naive-left"])
def test_a_live_sweep_makes_the_calls_of_the_loop_it_stands_for(algorithm, loop):
    """Observed, the segmented walks make exactly the machine calls of
    the per-transfer loops, in order: a multiplier read before its
    column's first update pair and released after its last, and no
    call for an empty slot."""
    from repro.observability.spans import observe

    n, M = 11, 7
    machine = SequentialMachine(M)
    observe(machine)  # the live walk
    A = TrackedMatrix(random_spd(n, seed=2), make_layout("column-major", n), machine)
    made = []
    for op in ("read", "write", "release"):
        method = getattr(machine, op)

        def wrapped(ivs, _op=op, _method=method):
            made.append((_op, ivs.intervals))
            return _method(ivs)

        setattr(machine, op, wrapped)
    with compile_disabled():
        run_algorithm(algorithm, A)
    expected = []
    loop(lambda op, *rect: expected.append((op, A.intervals(*rect).intervals)), n, M)
    assert made == expected


@pytest.mark.parametrize("algorithm", ["naive-left", "naive-right", "naive-up"])
def test_a_planned_naive_run_calls_its_charging_object_o_n_times(
    algorithm, monkeypatch
):
    """At n = 96, M = 2n a planned run makes at most 8n calls into its
    charging object: the per-column (or per-row) transfers and one
    sweep per inner loop, where one call per re-read made Θ(n²)."""
    n = 96
    calls: list = []

    def counted_charging(A):
        ch = plan_or_live(A)
        for name in dir(ch):  # every public method
            method = getattr(ch, name)
            if name.startswith("_") or not callable(method):
                continue

            def wrapped(*args, _method=method, **kwargs):
                calls.append(_method)
                return _method(*args, **kwargs)

            setattr(ch, name, wrapped)
        return ch

    plan_or_live = naive.charging
    monkeypatch.setattr(naive, "charging", counted_charging)
    machine = SequentialMachine(2 * n)
    A = TrackedMatrix(random_spd(n, seed=1), make_layout("column-major", n), machine)
    with compile_disabled():
        run_algorithm(algorithm, A)
    assert machine.batch_hits == 1  # the run was planned
    assert 0 < len(calls) <= 8 * n
