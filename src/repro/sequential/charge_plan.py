"""How a recursion's nodes are charged: live through scopes, or planned.

Toledo's rectangular recursion (Algorithm 5), the square recursive
Cholesky (Algorithm 6) and their recursive matmul/TRSM/SYRK kernels
(Algorithms 7–8) are each written once, as a walk over
:class:`~repro.matrices.tracked.BlockRef` views.  Every node of the
walk hands its charging to the run's charging object, which takes one
of two paths:

* :class:`ScopeCharging`, live: a subproblem opens a profiler span and
  an ideal-cache :meth:`~repro.machine.core.HierarchicalMachine.scope`
  over its footprint, and Toledo's column base case issues explicit
  reads and writes.  Observed, guarded, fault- or ABFT-armed and
  multi-level runs take it, and so do the public kernels
  :func:`~repro.sequential.rmatmul.rmatmul`,
  :func:`~repro.sequential.rsyrk.rsyrk` and
  :func:`~repro.sequential.rtrsm.rtrsm`.
* :class:`ChargePlan`, planned: on one fast level the live path's
  charges are a pure function of integer geometry, so the plan tests a
  subproblem's fit from stored words (the operands of one subproblem
  never share an entry, so the footprint's words are the sum of
  theirs) and records, per fitting leaf, the footprint read and the
  output write, and per Toledo column its explicit transfers.
  :meth:`ChargePlan.close` charges the whole run as one
  :class:`~repro.util.intervals.RunBatch` through
  :meth:`~repro.machine.core.HierarchicalMachine.charge_intervals`,
  its runs built by :meth:`~repro.matrices.tracked.TrackedMatrix.rect_runs`.

Fitting leaves compute their numerics inside the walk on both paths,
so the factors are bit-identical, and counters, peaks, flops and the
charged interval runs are the same whichever path charged them.
:func:`charging` picks the path, by :func:`plan_eligible` alone.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Iterator, Sequence

from repro.layouts.base import lower_words
from repro.matrices.tracked import BlockRef, TrackedMatrix, footprint
from repro.util.intervals import RunBatch, gather_runs, union_groups

#: What :meth:`ChargePlan.node` returns: the node's fit, as a context.
_FITS, _SPLITS = nullcontext(True), nullcontext(False)


def plan_eligible(machine) -> bool:
    """Whether ``machine``'s next recursive run may take a charge plan.

    A plan charges write-through at one level and skips per-node
    events, so it needs a batched single-level machine that nothing
    observes, with no fault injector (read faults number every
    transfer), no enclosing scope and nothing resident.
    """
    return (
        machine.batched
        and machine.unobserved()
        and machine.faults is None
        and len(machine.levels) == 1
        and machine._scope_depth == 0
        and machine.resident.is_empty()
    )


def charging(A: TrackedMatrix) -> "ChargePlan | ScopeCharging":
    """The charging of one recursive run over ``A``: planned when
    :func:`plan_eligible` holds, live otherwise."""
    if plan_eligible(A.machine):
        return ChargePlan(A)
    return ScopeCharging(A.machine)


class ScopeCharging:
    """Live charging: a span and an ideal-cache scope per node."""

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
            footprint(reads), out.intervals, write_covered=True
        ) as sc:
            yield sc.fits

    def read(self, v: BlockRef) -> None:
        self.machine.read(v.intervals)

    def write(self, v: BlockRef) -> None:
        self.machine.write(v.intervals)

    def release(self, v: BlockRef) -> None:
        self.machine.release(v.intervals)

    def close(self) -> None:
        """Nothing is left to charge: every node charged as it ran."""


class ChargePlan:
    """Planned charging: a run's transfers over integer rectangles,
    charged as one batch by :meth:`close`.

    A run that raises (fast memory cannot hold a leaf, or a pivot is
    not positive) never reaches :meth:`close`, so nothing is charged.
    """

    def __init__(self, A: TrackedMatrix) -> None:
        self.matrix = A
        self.machine = A.machine
        self.M = A.machine.M
        self.packed = A.layout.packed
        self.peak = 0
        self._held = 0  # words the explicit column transfers hold
        self._rects: dict = {}  # storage rectangle -> its index
        self._members: list[int] = []  # rectangle indices, set by set
        self._sizes: list[int] = []  # rectangles per set
        self._flags: list[bool] = []  # write flag per set

    def _words(self, v: BlockRef) -> int:
        if self.packed:
            return lower_words(v.r0, v.r1, v.c0, v.c1)
        return (v.r1 - v.r0) * (v.c1 - v.c0)

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
        for v in reads:  # inlined _words: this is the plan's hot loop
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
        self._transfer((v,), False)
        self._held += self._words(v)
        self.peak = max(self.peak, self._held)

    def write(self, v: BlockRef) -> None:
        self._transfer((v,), True)

    def release(self, v: BlockRef) -> None:
        self._held -= self._words(v)

    def close(self) -> None:
        """Charge every recorded transfer, in order, as one batch."""
        runs = self.matrix.rect_runs(list(self._rects))
        runs = gather_runs(*runs, self._members)
        batch = RunBatch.from_runs(
            *union_groups(*runs, self._sizes), is_write=self._flags
        )
        self.machine.charge_intervals(batch, peak_extra=self.peak)
