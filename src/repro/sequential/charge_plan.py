"""Charge plans: a cache-oblivious recursion charged as one batch.

Toledo's rectangular recursion (Algorithm 5) and the square recursive
Cholesky (Algorithm 6), with their recursive TRSM/SYRK/matmul leaves
(Algorithms 7–8), charge through ideal-cache scopes: a subproblem's
operands are charged where its footprint first fits fast memory, and
Toledo's per-column base case charges its explicit transfers.  On a
single fast level that is a pure function of integer geometry — which
leaves fit, in which order — so a run nothing observes need not open a
scope per node.

A :class:`ChargePlan` walks the whole recursion once over
``(r0, r1, c0, c1, transposed)`` tuples, taking the fit test from
stored-word geometry (the operands of one subproblem never share an
entry, so the footprint's words are the sum of theirs).  It keeps the
leaves in execution order and, per leaf, the transfers the scope path
would charge: the footprint read and the output write, or a Toledo
column's explicit reads and writes.  :meth:`ChargePlan.run` then runs
each leaf's numerics in plan order with the same kernels the scope
path calls, so factors stay bit-identical, and charges the whole run as
one :class:`~repro.util.intervals.RunBatch` through
:meth:`~repro.machine.core.HierarchicalMachine.charge_intervals`, its
runs built by :meth:`~repro.matrices.tracked.TrackedMatrix.rect_runs`.
Counters, peaks and the recorded schedule equal the scope path's.

:func:`plan_eligible` gates it: a batched, single-level machine with
no observer (:meth:`~repro.machine.core.HierarchicalMachine.unobserved`),
no fault injector, and no open scope or resident data.  Every other run
— observed, guarded, faulted, ABFT-armed, multi-level, and the public
kernels :func:`~repro.sequential.rmatmul.rmatmul`,
:func:`~repro.sequential.rsyrk.rsyrk` and
:func:`~repro.sequential.rtrsm.rtrsm` — takes the element-wise scope
recursion, which stays the reference.
"""

from __future__ import annotations

import math

import numpy as np

from repro.layouts.base import lower_words
from repro.machine.core import ModelError
from repro.matrices.tracked import TrackedMatrix
from repro.sequential.flops import (
    cholesky_flops,
    column_scale_flops,
    gemm_flops,
    syrk_flops,
    trsm_flops,
)
from repro.sequential.kernels import dense_cholesky, solve_upper_right
from repro.util.imath import split_point
from repro.util.intervals import RunBatch, gather_runs, union_groups

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


def _shape(v) -> "tuple[int, int]":
    r0, r1, c0, c1, t = v
    return (c1 - c0, r1 - r0) if t else (r1 - r0, c1 - c0)


def _sub(v, a0: int, a1: int, b0: int, b1: int):
    """Sub-view in logical (post-transpose) local coordinates."""
    r0, _r1, c0, _c1, t = v
    if t:
        return (r0 + b0, r0 + b1, c0 + a0, c0 + a1, t)
    return (r0 + a0, r0 + a1, c0 + b0, c0 + b1, t)


def _transpose(v):
    return (v[0], v[1], v[2], v[3], not v[4])


def _split_rows(v, h: int):
    rows, cols = _shape(v)
    return _sub(v, 0, h, 0, cols), _sub(v, h, rows, 0, cols)


def _split_cols(v, h: int):
    rows, cols = _shape(v)
    return _sub(v, 0, rows, 0, h), _sub(v, 0, rows, h, cols)


def _quadrants(v, kr: int, kc: int):
    rows, cols = _shape(v)
    return (
        _sub(v, 0, kr, 0, kc),
        _sub(v, 0, kr, kc, cols),
        _sub(v, kr, rows, 0, kc),
        _sub(v, kr, rows, kc, cols),
    )


def _peek(data: np.ndarray, v) -> np.ndarray:
    r0, r1, c0, c1, t = v
    a = data[r0:r1, c0:c1]
    return np.array(a.T if t else a, copy=True)


def _poke(data: np.ndarray, v, values: np.ndarray) -> None:
    r0, r1, c0, c1, t = v
    values = np.asarray(values, dtype=np.float64)
    data[r0:r1, c0:c1] = values.T if t else values


# -- leaf numerics (the kernels the scope path runs at a fitting leaf) --------


def _chol(data, A) -> None:
    _poke(data, A, dense_cholesky(_peek(data, A)))


def _trsm(data, A, U) -> None:
    _poke(data, A, solve_upper_right(_peek(data, A), _peek(data, U)))


def _syrk(data, C, A) -> None:
    c = _peek(data, C)
    a = _peek(data, A)
    c -= a @ a.T
    _poke(data, C, c)


def _matmul(data, C, A, B, sign: float) -> None:
    c = _peek(data, C)
    c += sign * (_peek(data, A) @ _peek(data, B))
    _poke(data, C, c)


def _column(data, A) -> None:
    """Toledo's base case: sqrt the pivot, scale the rest of the column.

    Dividing the column whole or segment by segment gives the same
    bits, so the streamed and the fitting column share this kernel.
    """
    col = _peek(data, A)
    if col[0, 0] <= 0:
        raise np.linalg.LinAlgError("non-positive pivot: matrix is not SPD")
    col[0, 0] = math.sqrt(float(col[0, 0]))
    if col.shape[0] > 1:
        col[1:] /= col[0, 0]
    _poke(data, A, col)


class ChargePlan:
    """One recursion's leaves and transfers, planned over integer views.

    Build with :meth:`toledo` or :meth:`square`, then :meth:`run`.
    Planning raises the scope path's :class:`ModelError` when fast
    memory cannot hold a leaf, before any numerics or charge.
    """

    def __init__(self, A: TrackedMatrix) -> None:
        self.matrix = A
        self.M = A.machine.M
        self.packed = A.layout.packed
        #: ``(kernel, operands)`` per leaf, in execution order
        self.steps: list = []
        self.flops = 0
        self.peak = 0
        self._rects: dict = {}  # storage rectangle -> its index
        self._members: list[int] = []  # rectangle indices, set by set
        self._sizes: list[int] = []  # rectangles per set
        self._flags: list[bool] = []  # write flag per set

    # -- geometry -----------------------------------------------------------

    def _words(self, v) -> int:
        r0, r1, c0, c1 = v[0], v[1], v[2], v[3]
        if self.packed:
            return lower_words(r0, r1, c0, c1)
        return (r1 - r0) * (c1 - c0)

    def _transfer(self, views, is_write: bool) -> None:
        """One transfer: the union of the views' storage rectangles."""
        rects = self._rects
        for v in views:
            self._members.append(rects.setdefault(v[:4], len(rects)))
        self._sizes.append(len(views))
        self._flags.append(is_write)

    def _leaf(self, kernel, operands, reads, out, words: int, flops: int) -> None:
        """A fitting subproblem: footprint read, compute, output write."""
        self.steps.append((kernel, operands))
        self._transfer(reads, False)
        self._transfer((out,), True)
        self.peak = max(self.peak, words)
        self.flops += flops

    # -- the recursions (mirroring the scope path node for node) -------------

    def toledo(self) -> "ChargePlan":
        """Plan Algorithm 5 on the whole matrix."""
        n = self.matrix.n
        self._panel(0, n, 0, n)
        return self

    def square(self) -> "ChargePlan":
        """Plan Algorithm 6 on the whole matrix."""
        n = self.matrix.n
        self._chol((0, n, 0, n, False))
        return self

    def _panel(self, r0: int, r1: int, c0: int, c1: int) -> None:
        """Toledo's ``m × n`` panel (see ``toledo._rect_rchol_body``)."""
        m, n = r1 - r0, c1 - c0
        if n == 1:
            self._column(r0, r1, c0)
            return
        k = split_point(n)
        self._panel(r0, r1, c0, c0 + k)
        l21 = (r0 + k, r0 + n, c0, c0 + k, False)
        self._syrk((r0 + k, r0 + n, c0 + k, c1, False), l21)
        if m > n:
            self._matmul(
                (r0 + n, r1, c0 + k, c1, False),
                (r0 + n, r1, c0, c0 + k, False),
                _transpose(l21),
                -1.0,
            )
        self._panel(r0 + k, r1, c0 + k, c1)

    def _column(self, r0: int, r1: int, c: int) -> None:
        """Toledo's explicit base case (see ``toledo._factor_column``)."""
        m, M = r1 - r0, self.M
        col = (r0, r1, c, c + 1, False)
        self.steps.append((_column, (col,)))
        self.flops += column_scale_flops(m)
        if m + 1 <= M:
            self._transfer((col,), False)
            self._transfer((col,), True)
            self.peak = max(self.peak, m)
            return
        if M < 2:
            raise ModelError(f"toledo base case needs M >= 2, got M={M}")
        seg = M - 1
        pivot = (r0, r0 + 1, c, c + 1, False)
        self._transfer((pivot,), False)
        self._transfer((pivot,), True)
        for r in range(1, m, seg):
            s = (r0 + r, r0 + min(r + seg, m), c, c + 1, False)
            self._transfer((s,), False)
            self._transfer((s,), True)
        self.peak = max(self.peak, 1 + min(seg, m - 1))

    def _chol(self, A) -> None:
        """See ``square_recursive._square_rchol_body``."""
        n = _shape(A)[0]
        words = self._words(A)
        if words <= self.M:
            self._leaf(_chol, (A,), (A,), A, words, cholesky_flops(n))
            return
        k = split_point(n)
        a11, _a12, a21, a22 = _quadrants(A, k, k)
        self._chol(a11)
        self._trsm(a21, _transpose(a11))
        self._syrk(a22, a21)
        self._chol(a22)

    def _trsm(self, A, U) -> None:
        """See ``rtrsm._rtrsm``."""
        m, n = _shape(A)
        words = self._words(A) + self._words(U)
        if words <= self.M:
            self._leaf(_trsm, (A, U), (A, U), A, words, trsm_flops(m, n))
            return
        if m >= n and m > 1:
            a_top, a_bot = _split_rows(A, split_point(m))
            self._trsm(a_top, U)
            self._trsm(a_bot, U)
            return
        if n == 1:
            raise ModelError(
                f"fast memory (M={self.M}) cannot hold a single "
                "column triangular-solve working set"
            )
        h = split_point(n)
        a_left, a_right = _split_cols(A, h)
        u11, u12, _u21, u22 = _quadrants(U, h, h)
        self._trsm(a_left, u11)
        self._matmul(a_right, a_left, u12, -1.0)
        self._trsm(a_right, u22)

    def _syrk(self, C, A) -> None:
        """See ``rsyrk._rsyrk``."""
        m, k = _shape(A)
        words = self._words(A) + self._words(C)
        if words <= self.M:
            self._leaf(_syrk, (C, A), (A, C), C, words, syrk_flops(m, k))
            return
        if max(m, k) == 1:
            raise ModelError(
                f"fast memory (M={self.M}) cannot hold a 1x1 "
                "symmetric update working set"
            )
        if k > m:
            a_left, a_right = _split_cols(A, split_point(k))
            self._syrk(C, a_left)
            self._syrk(C, a_right)
            return
        h = split_point(m)
        c11, _c12, c21, c22 = _quadrants(C, h, h)
        a_top, a_bot = _split_rows(A, h)
        self._syrk(c11, a_top)
        self._matmul(c21, a_bot, _transpose(a_top), -1.0)
        self._syrk(c22, a_bot)

    def _matmul(self, C, A, B, sign: float) -> None:
        """See ``rmatmul._rmatmul``."""
        m, k = _shape(A)
        r = _shape(B)[1]
        words = self._words(A) + self._words(B) + self._words(C)
        if words <= self.M:
            self._leaf(
                _matmul, (C, A, B, sign), (A, B, C), C, words, gemm_flops(m, k, r)
            )
            return
        big = max(m, k, r)
        if big == 1:
            raise ModelError(
                f"fast memory (M={self.M}) cannot hold even a "
                "1x1x1 multiplication working set"
            )
        if m == big:
            h = split_point(m)
            a_top, a_bot = _split_rows(A, h)
            c_top, c_bot = _split_rows(C, h)
            self._matmul(c_top, a_top, B, sign)
            self._matmul(c_bot, a_bot, B, sign)
        elif k == big:
            h = split_point(k)
            a_left, a_right = _split_cols(A, h)
            b_top, b_bot = _split_rows(B, h)
            self._matmul(C, a_left, b_top, sign)
            self._matmul(C, a_right, b_bot, sign)
        else:
            h = split_point(r)
            b_left, b_right = _split_cols(B, h)
            c_left, c_right = _split_cols(C, h)
            self._matmul(c_left, A, b_left, sign)
            self._matmul(c_right, A, b_right, sign)

    # -- execution -------------------------------------------------------------

    def batch(self) -> RunBatch:
        """Every planned transfer, in charge order, as one batch."""
        runs = self.matrix.rect_runs(list(self._rects))
        runs = gather_runs(*runs, self._members)
        return RunBatch.from_runs(
            *union_groups(*runs, self._sizes), is_write=self._flags
        )

    def run(self) -> None:
        """Leaf numerics in plan order, then one charge for the run."""
        data = self.matrix.data
        for kernel, operands in self.steps:
            kernel(data, *operands)
        machine = self.matrix.machine
        machine.charge_intervals(self.batch(), peak_extra=self.peak)
        machine.add_flops(self.flops)
