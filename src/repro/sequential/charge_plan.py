"""How a run's transfers are charged: live, or planned as one batch.

Every sequential algorithm is written once, as a walk over
:class:`~repro.matrices.tracked.BlockRef` views that hands its
charging to the run's charging object.  The recursions (Toledo's
rectangular recursion, Algorithm 5; the square recursive Cholesky,
Algorithm 6; their recursive matmul/TRSM/SYRK kernels, Algorithms 7–8)
open one ``node`` per subproblem; the loop algorithms (the naïve
left-, right- and up-looking variants, Algorithms 2–3, and LAPACK's
blocked POTRF with its right-looking twin, Algorithm 4) and Toledo's
column base case issue explicit ``read``/``write``/``release`` calls.
An inner loop whose every step makes the same transfers over its own
rectangles (the naïve variants' re-reads of earlier columns, segments
and rows) hands them over at once as one ``sweep``: a *program* of
``(op, slot)`` pairs, ``op`` one of ``"read"``, ``"write"`` or
``"release"``, run once per step over a ``(steps, slots, 4)`` integer
array of ``(r0, r1, c0, c1)`` storage rectangles; an empty rectangle
is no transfer.  The object takes one of two paths:

* :class:`ScopeCharging`, live: a node opens a profiler span and an
  ideal-cache :meth:`~repro.machine.core.HierarchicalMachine.scope`
  over its footprint, and an explicit transfer is one
  :meth:`~repro.machine.core.HierarchicalMachine.read`,
  :meth:`~repro.machine.core.HierarchicalMachine.write` or
  :meth:`~repro.machine.core.HierarchicalMachine.release` call; a
  sweep makes those calls step by step, in program order.  It is the
  element-wise reference: observed, guarded, fault- or ABFT-armed and
  multi-level runs take it, and so do the public
  kernels :func:`~repro.sequential.rmatmul.rmatmul`,
  :func:`~repro.sequential.rsyrk.rsyrk` and
  :func:`~repro.sequential.rtrsm.rtrsm`.
* :class:`ChargePlan`, planned: on one fast level the live path's
  charges are a pure function of integer geometry.  The plan tests a
  node's fit from stored words (the operands of one subproblem never
  share an entry, so the footprint's words are the sum of theirs) and
  records, per fitting node, the footprint read and the output write,
  and per explicit call its transfer; it tracks the resident words of
  explicit reads over the rectangles they hold.  A sweep records its
  transfers as one array chunk and takes its peak from the
  held-rectangle rule run once per pattern of overlaps among a step's
  slots.  :meth:`ChargePlan.close` splices the chunks among the
  explicit transfers and charges the whole run as one
  :class:`~repro.util.intervals.RunBatch` through
  :meth:`~repro.machine.core.HierarchicalMachine.charge_intervals`,
  its runs built by :meth:`~repro.matrices.tracked.TrackedMatrix.rect_runs`
  over the distinct rectangles.

The numerics run inside the walk on both paths, so the factors are
bit-identical, and counters, peaks, flops and the charged interval
runs are the same whichever path charged them.  :func:`charging`
picks the path by :func:`plan_eligible`, from what observes the
machine: tests reach the live reference as the program does, by
attaching an observer.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from repro.layouts.base import lower_words, lower_words_of
from repro.machine.core import ModelError
from repro.matrices.tracked import BlockRef, TrackedMatrix, footprint
from repro.util.intervals import RunBatch, gather_runs, union_groups

#: What :meth:`ChargePlan.node` returns: the node's fit, as a context.
_FITS, _SPLITS = nullcontext(True), nullcontext(False)


def plan_eligible(machine) -> bool:
    """Whether ``machine``'s next run may take a charge plan.

    A plan charges write-through at one level and skips per-transfer
    events, so it needs a single-level machine that nothing observes,
    with no fault injector (read faults number every transfer), no
    enclosing scope and nothing resident.  Attaching an observer
    (:func:`repro.observability.observe`, a trace, a budget guard or
    an ABFT guardian) is how a run asks for the live walk.
    """
    return (
        machine.unobserved()
        and machine.faults is None
        and len(machine.levels) == 1
        and machine._scope_depth == 0
        and machine.resident.is_empty()
    )


def charging(A: TrackedMatrix) -> "ChargePlan | ScopeCharging":
    """The charging of one run over ``A``: planned when
    :func:`plan_eligible` holds, live otherwise."""
    if plan_eligible(A.machine):
        return ChargePlan(A)
    return ScopeCharging(A.machine, A)


def _hold(held: list, rect: tuple, tag) -> "list | None":
    """The held-rectangle rule for a read of ``rect = (r0, r1, c0, c1)``.

    ``held`` lists pairwise disjoint ``(r0, r1, c0, c1, tag)`` entries.
    Returns ``None`` when a held rectangle contains ``rect`` (resident
    already: nothing changes); otherwise the held entries inside
    ``rect``, which the read absorbs and replaces by ``(*rect, tag)``.
    A partial overlap raises :class:`~repro.machine.core.ModelError`.
    """
    r0, r1, c0, c1 = rect
    absorbed = []
    for h in held:
        if h[1] <= r0 or r1 <= h[0] or h[3] <= c0 or c1 <= h[2]:
            continue
        if h[0] <= r0 and r1 <= h[1] and h[2] <= c0 and c1 <= h[3]:
            return None
        if not (r0 <= h[0] and h[1] <= r1 and c0 <= h[2] and h[3] <= c1):
            raise ModelError(f"read of {rect} partially overlaps a held block")
        absorbed.append(h)
    for h in absorbed:
        held.remove(h)
    held.append((r0, r1, c0, c1, tag))
    return absorbed


def _evict(held: list, rect: tuple) -> list:
    """The held-rectangle rule for a release of ``rect``: the held
    entries inside it, removed from ``held``; a partial overlap raises."""
    r0, r1, c0, c1 = rect
    evicted = []
    for h in held:
        if h[1] <= r0 or r1 <= h[0] or h[3] <= c0 or c1 <= h[2]:
            continue
        if not (r0 <= h[0] and h[1] <= r1 and c0 <= h[2] and h[3] <= c1):
            raise ModelError(f"release of {rect} partially overlaps a held block")
        evicted.append(h)
    for h in evicted:
        held.remove(h)
    return evicted


@lru_cache(maxsize=None)
def _compiled(program: tuple, slots: int) -> tuple:
    """The slots ``program`` transfers, in order, which of them are
    writes, and the weights that pack a step's ``2·slots²`` pattern
    bits into one integer (so a step has at most five slots)."""
    if slots > 5:
        raise ValueError(f"a sweep step has at most five slots, got {slots}")
    io = [(slot, op == "write") for op, slot in program if op != "release"]
    return (
        [slot for slot, _ in io],
        np.array([w for _, w in io], dtype=bool),
        1 << np.arange(2 * slots * slots, dtype=np.int64),
    )


def _step_holds(program: tuple, rects: list, full: list) -> np.ndarray:
    """The held-rectangle rule over one sweep step: which of its slots
    (``rects``, nonempty where ``full``) are held after each op of
    ``program``, as a ``(slots, ops)`` 0/1 array.  The step starts
    holding none; ending with one held raises ModelError."""
    held: list = []  # (r0, r1, c0, c1, slot bit)
    masks = []
    for op, slot in program:
        if full[slot] and op != "write":
            if op == "read":
                _hold(held, tuple(rects[slot]), 1 << slot)
            else:
                _evict(held, tuple(rects[slot]))
        masks.append(sum(h[4] for h in held))
    if held:
        raise ModelError(f"a sweep step leaves {[h[:4] for h in held]} held")
    return (np.array(masks) >> np.arange(len(rects))[:, None]) & 1


class ScopeCharging:
    """Live charging: a span and an ideal-cache scope per node, one
    machine call per explicit transfer."""

    def __init__(self, machine, matrix: "TrackedMatrix | None" = None) -> None:
        self.machine = machine
        self.M = machine.M
        self.matrix = matrix  # whose rectangles a sweep charges

    @contextmanager
    def node(
        self, name: str, reads: Sequence[BlockRef], out: BlockRef
    ) -> Iterator[bool]:
        """Subproblem ``name`` reading ``reads`` and writing ``out`` (one
        of them); yields whether its footprint fits the fastest level."""
        machine = self.machine
        with machine.profiler.span(name), machine.scope(
            footprint(reads), out.intervals
        ) as sc:
            yield sc.fits

    def read(self, v: BlockRef) -> None:
        self.machine.read(v.intervals)

    def write(self, v: BlockRef) -> None:
        self.machine.write(v.intervals)

    def release(self, v: BlockRef) -> None:
        self.machine.release(v.intervals)

    def sweep(self, program: tuple, rects: np.ndarray) -> None:
        """Run ``program`` once per step of ``rects``: the machine calls
        the loop it stands for makes, in the same order."""
        intervals = self.matrix.intervals
        calls = [(getattr(self.machine, op), slot) for op, slot in program]
        for step in rects.tolist():
            for call, slot in calls:
                r0, r1, c0, c1 = step[slot]
                if r0 < r1 and c0 < c1:
                    call(intervals(r0, r1, c0, c1))

    def close(self) -> None:
        """Nothing is left to charge: every transfer charged as it ran."""


class ChargePlan:
    """Planned charging: a run's transfers over integer rectangles,
    charged as one batch by :meth:`close`.

    Explicit reads hold rectangles, under one rule (:func:`_hold`,
    :func:`_evict`): a read inside a held rectangle adds no words, a
    read that covers held rectangles absorbs them, and a release evicts
    every held rectangle inside it; a partial overlap either way raises
    :class:`~repro.machine.core.ModelError`, since resident words would
    then no longer be a sum over rectangles.  The live path's peak is
    the largest held sum or fitting footprint.

    A run that raises (fast memory cannot hold a leaf, or a pivot is
    not positive) never reaches :meth:`close`, so nothing is charged.
    """

    def __init__(self, A: TrackedMatrix) -> None:
        self.matrix = A
        self.machine = A.machine
        self.M = A.machine.M
        self.packed = A.layout.packed
        self.peak = 0
        self._held: list = []  # (r0, r1, c0, c1, words), pairwise disjoint
        self._held_words = 0
        self._rects: dict = {}  # storage rectangle -> its index
        self._members: list[int] = []  # rectangle indices, set by set
        self._sizes: list[int] = []  # rectangles per set
        self._flags: list[bool] = []  # write flag per set
        # per sweep: (sets, members) recorded before it, its rectangles
        # (one per transfer) and their write flags
        self._sweeps: list = []
        self._rules: dict = {}  # (program, pattern) -> _step_holds

    def _transfer(self, views: Sequence[BlockRef], is_write: bool) -> None:
        """One transfer: the union of the views' storage rectangles."""
        rects = self._rects
        for v in views:
            key = (v.r0, v.r1, v.c0, v.c1)
            self._members.append(rects.setdefault(key, len(rects)))
        self._sizes.append(len(views))
        self._flags.append(is_write)

    def node(self, name: str, reads: Sequence[BlockRef], out: BlockRef):
        """Test the fit from stored words; a fitting node records its
        footprint read and output write.  The context yields the fit."""
        words, packed = 0, self.packed
        for v in reads:  # this is the recursions' hot loop
            words += (
                lower_words(v.r0, v.r1, v.c0, v.c1) if packed
                else (v.r1 - v.r0) * (v.c1 - v.c0)
            )
        if words > self.M:
            return _SPLITS
        self._transfer(reads, False)
        self._transfer((out,), True)
        if words > self.peak:
            self.peak = words
        return _FITS

    def read(self, v: BlockRef) -> None:
        r0, r1, c0, c1 = key = (v.r0, v.r1, v.c0, v.c1)
        rects = self._rects
        self._members.append(rects.setdefault(key, len(rects)))
        self._sizes.append(1)
        self._flags.append(False)
        words = (
            lower_words(r0, r1, c0, c1) if self.packed else (r1 - r0) * (c1 - c0)
        )
        absorbed = _hold(self._held, key, words)
        if absorbed is None:
            return
        for h in absorbed:
            words -= h[4]
        self._held_words += words
        if self._held_words > self.peak:
            self.peak = self._held_words

    def write(self, v: BlockRef) -> None:
        rects = self._rects
        self._members.append(rects.setdefault((v.r0, v.r1, v.c0, v.c1), len(rects)))
        self._sizes.append(1)
        self._flags.append(True)

    def release(self, v: BlockRef) -> None:
        for h in _evict(self._held, (v.r0, v.r1, v.c0, v.c1)):
            self._held_words -= h[4]

    def sweep(self, program: tuple, rects: np.ndarray) -> None:
        """Record ``len(rects)`` steps of ``program`` at once.

        Every step must leave what is held as it found it: a step that
        overlaps a held rectangle, or ends holding one of its own,
        raises :class:`~repro.machine.core.ModelError`.  The peak is
        the held words before the sweep plus the largest held sum
        within a step.  Which of a step's slots the held-rectangle rule
        holds after each op depends only on which slots overlap and
        which lie inside which, so the rule runs once per such pattern
        (on its first step) and is kept for the rest of the run.
        """
        steps, slots = rects.shape[:2]
        if not steps:
            return
        r0, r1, c0, c1 = rects.transpose(2, 1, 0).copy()  # (slots, steps) each
        full = (r0 < r1) & (c0 < c1)
        for h in self._held:
            if (full & (r0 < h[1]) & (h[0] < r1) & (c0 < h[3]) & (h[2] < c1)).any():
                raise ModelError(f"a sweep step overlaps the held block {h[:4]}")
        io, writes, weights = _compiled(program, slots)
        # empty rectangles stay in: they have no runs, and the batch
        # drops a transfer without runs
        self._sweeps.append((
            len(self._sizes), len(self._members),
            rects[:, io].reshape(-1, 4),
            np.repeat(writes[None], steps, 0).ravel(),
        ))
        # a step's pattern, as bits: which of its slots overlap (a slot
        # overlaps itself unless it is empty) and which lies inside
        # which (their overlap is as large as it); [i, j, step] below
        area = (r1 - r0) * (c1 - c0)
        height = np.minimum(r1[:, None], r1) - np.maximum(r0[:, None], r0)
        width = np.minimum(c1[:, None], c1) - np.maximum(c0[:, None], c0)
        meet = (height > 0) & (width > 0)
        inside = meet & (height * width == area[:, None])
        code = weights @ np.concatenate((meet, inside)).reshape(-1, steps)
        words = (lower_words_of(r0, r1, c0, c1) if self.packed else area) * full
        most = 0
        uniform = (code == code[0]).all()
        for pattern in (code[:1] if uniform else np.unique(code)).tolist():
            on = self._rules.get((program, pattern))
            if on is None:
                step = int(np.argmax(code == pattern))
                on = self._rules[program, pattern] = _step_holds(
                    program, rects[step].tolist(), full[:, step].tolist()
                )
            group = words if uniform else words[:, code == pattern]
            most = max(most, int((on.T @ group).max()))
        if self._held_words + most > self.peak:
            self.peak = self._held_words + most

    def close(self) -> None:
        """Charge every recorded transfer, in order, as one batch."""
        table = np.array(list(self._rects), dtype=np.int64).reshape(-1, 4)
        members = np.array(self._members, dtype=np.int64)
        sizes = np.array(self._sizes, dtype=np.int64)
        flags = np.array(self._flags, dtype=bool)
        if self._sweeps:
            table, members, sizes, flags = self._splice(
                table, members, sizes, flags
            )
        runs = self.matrix.rect_runs(table)
        runs = gather_runs(*runs, members)
        if len(sizes) < len(members):
            # some set is a footprint of several rectangles: merge them
            # (a single rectangle's runs are normalized already)
            runs = union_groups(*runs, sizes)
        batch = RunBatch.from_runs(*runs, is_write=flags)
        self.machine.charge_intervals(batch, peak_extra=self.peak)

    def _splice(self, table, members, sizes, flags):
        """The sweeps' transfers spliced among the explicit ones in the
        order the walk made them, over one table of distinct rectangles
        (a sweep re-reads the same rectangles sweep after sweep)."""
        sets_before, members_before, swept, swept_flags = zip(*self._sweeps)
        counts = [len(rows) for rows in swept]
        at_set = np.repeat(sets_before, counts)
        ids = np.arange(len(table), len(table) + sum(counts))
        table = np.concatenate((table, *swept))
        members = np.insert(members, np.repeat(members_before, counts), ids)
        sizes = np.insert(sizes, at_set, 1)
        flags = np.insert(flags, at_set, np.concatenate(swept_flags))
        keys = np.ravel_multi_index(tuple(table.T), (self.matrix.n + 1,) * 4)
        _, first, inverse = np.unique(keys, return_index=True,
                                      return_inverse=True)
        return table[first], inverse[members], sizes, flags
