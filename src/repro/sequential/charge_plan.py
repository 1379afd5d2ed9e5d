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
The object takes one of two paths:

* :class:`ScopeCharging`, live: a node opens a profiler span and an
  ideal-cache :meth:`~repro.machine.core.HierarchicalMachine.scope`
  over its footprint, and an explicit transfer is one
  :meth:`~repro.machine.core.HierarchicalMachine.read`,
  :meth:`~repro.machine.core.HierarchicalMachine.write` or
  :meth:`~repro.machine.core.HierarchicalMachine.release` call.  It
  is the element-wise reference: observed, guarded, fault- or
  ABFT-armed and multi-level runs take it, and so do the public
  kernels :func:`~repro.sequential.rmatmul.rmatmul`,
  :func:`~repro.sequential.rsyrk.rsyrk` and
  :func:`~repro.sequential.rtrsm.rtrsm`.
* :class:`ChargePlan`, planned: on one fast level the live path's
  charges are a pure function of integer geometry.  The plan tests a
  node's fit from stored words (the operands of one subproblem never
  share an entry, so the footprint's words are the sum of theirs) and
  records, per fitting node, the footprint read and the output write,
  and per explicit call its transfer; it tracks the resident words of
  explicit reads over the rectangles they hold.
  :meth:`ChargePlan.close` charges the whole run as one
  :class:`~repro.util.intervals.RunBatch` through
  :meth:`~repro.machine.core.HierarchicalMachine.charge_intervals`,
  its runs built by :meth:`~repro.matrices.tracked.TrackedMatrix.rect_runs`.

The numerics run inside the walk on both paths, so the factors are
bit-identical, and counters, peaks, flops and the charged interval
runs are the same whichever path charged them.  :func:`charging`
picks the path by :func:`plan_eligible`, from what observes the
machine: tests reach the live reference as the program does, by
attaching an observer.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Iterator, Sequence

from repro.layouts.base import lower_words
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
    return ScopeCharging(A.machine)


class ScopeCharging:
    """Live charging: a span and an ideal-cache scope per node, one
    machine call per explicit transfer."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.M = machine.M

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

    def close(self) -> None:
        """Nothing is left to charge: every transfer charged as it ran."""


class ChargePlan:
    """Planned charging: a run's transfers over integer rectangles,
    charged as one batch by :meth:`close`.

    Explicit reads hold rectangles.  A read inside a held rectangle
    adds no words, a read that covers held rectangles absorbs them, and
    a release evicts every held rectangle inside it; a partial overlap
    either way raises :class:`~repro.machine.core.ModelError`, since
    resident words would then no longer be a sum over rectangles.  The
    live path's peak is the largest held sum or fitting footprint.

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
        held, added, absorbed = self._held, words, []
        for h in held:
            if h[1] <= r0 or r1 <= h[0] or h[3] <= c0 or c1 <= h[2]:
                continue
            if h[0] <= r0 and r1 <= h[1] and h[2] <= c0 and c1 <= h[3]:
                return  # resident already
            if not (r0 <= h[0] and h[1] <= r1 and c0 <= h[2] and h[3] <= c1):
                raise ModelError(f"read of {v!r} partially overlaps a held block")
            added -= h[4]
            absorbed.append(h)
        for h in absorbed:
            held.remove(h)
        held.append((r0, r1, c0, c1, words))
        self._held_words += added
        if self._held_words > self.peak:
            self.peak = self._held_words

    def write(self, v: BlockRef) -> None:
        rects = self._rects
        self._members.append(rects.setdefault((v.r0, v.r1, v.c0, v.c1), len(rects)))
        self._sizes.append(1)
        self._flags.append(True)

    def release(self, v: BlockRef) -> None:
        r0, r1, c0, c1 = v.r0, v.r1, v.c0, v.c1
        held = self._held
        for h in held[:]:
            if h[1] <= r0 or r1 <= h[0] or h[3] <= c0 or c1 <= h[2]:
                continue
            if not (r0 <= h[0] and h[1] <= r1 and c0 <= h[2] and h[3] <= c1):
                raise ModelError(
                    f"release of {v!r} partially overlaps a held block"
                )
            held.remove(h)
            self._held_words -= h[4]

    def close(self) -> None:
        """Charge every recorded transfer, in order, as one batch."""
        runs = self.matrix.rect_runs(list(self._rects))
        runs = gather_runs(*runs, self._members)
        if len(self._sizes) < len(self._members):
            # some set is a footprint of several rectangles: merge them
            # (a single rectangle's runs are normalized already)
            runs = union_groups(*runs, self._sizes)
        batch = RunBatch.from_runs(*runs, is_write=self._flags)
        self.machine.charge_intervals(batch, peak_extra=self.peak)
