"""Algorithm 5: the rectangular recursive Cholesky (Toledo-style).

The Cholesky specialization of Toledo's recursive LU [Tol97]: recurse
on the *column* dimension only, with a per-column base case that
explicitly reads, scales, and writes one column of the (rectangular)
panel.  The trailing update is performed with the cache-oblivious
multiplication/symmetric-update kernels.

The per-column base case is the algorithm's signature and its
weakness: its I/O is explicit (it happens at every level of the
hierarchy regardless of cache size), producing

* the ``+ mn log n`` bandwidth term of Claim 3.1
  — B(n,n) = Θ(n³/√M + n² log n), bandwidth-optimal except in the
  narrow range M > n²/log²n;
* latency Ω(n³/M) on column-major storage and Ω(n²) on recursive
  block storage (a column of a Morton matrix is Θ(m) runs), so it is
  *never* latency-optimal for M > n^{2/3} (Conclusion 4).

When a column is longer than fast memory the base case streams it in
pivot-pinned segments, unchanged in total words.

The recursion is written once; :func:`~repro.sequential.charge_plan.charging`
decides how its nodes and columns are charged (live scopes and
explicit transfers, or one planned batch for a run nothing observes on
one fast level).
"""

from __future__ import annotations

import math

import numpy as np

from repro.machine.core import ModelError
from repro.matrices.tracked import BlockRef, TrackedMatrix
from repro.sequential.charge_plan import charging
from repro.sequential.flops import column_scale_flops
from repro.sequential.rmatmul import _rmatmul
from repro.sequential.rsyrk import _rsyrk
from repro.util.imath import split_point


def toledo(A: TrackedMatrix) -> np.ndarray:
    """Rectangular recursive Cholesky (Algorithm 5).

    Returns the lower factor ``L`` (left in ``A``'s lower triangle).
    """
    ch = charging(A)
    _rect_rchol(ch, A.whole())
    ch.close()
    A.machine.release_all()
    return A.lower()


def _rect_rchol(ch, A: BlockRef) -> None:
    """Factor an ``m × n`` panel (``m >= n``) of the global matrix.

    The panel is the lower-left part of a positive definite matrix:
    its top ``n × n`` block is factored, the rest of the panel is
    transformed into the corresponding rows of ``L``.
    """
    guard = ch.machine.abft
    if guard is not None:
        guard.enter()
    try:
        _rect_rchol_body(ch, A, guard)
    finally:
        if guard is not None:
            guard.exit()


def _rect_rchol_body(ch, A: BlockRef, guard) -> None:
    m, n = A.shape
    if m < n:
        raise ValueError(f"panel must be at least as tall as wide, got {m}x{n}")
    with ch.machine.profiler.span("chol"):
        if n == 1:
            _factor_column(ch, A)
            if guard is not None:
                guard.phase(A.r0, A.r1, A.c0, A.c1)
            return
        k = split_point(n)
        left, right = A.split_cols(k)       # left: m×k, right: m×(n−k)
        _rect_rchol(ch, left)               # L(:, :k)
        if guard is not None:
            guard.phase(left.r0, left.r1, left.c0, left.c1)
        # trailing update of the lower-right (m−k)×(n−k) panel:
        #   A22 (diagonal block) gets a symmetric update,
        #   A32 (below it) a general one — together the paper's line 5.
        l21 = left.sub(k, n, 0, k)          # (n−k)×k
        a22 = right.sub(k, n, 0, n - k)     # (n−k)×(n−k), diagonal block
        _rsyrk(ch, a22, l21)
        if guard is not None:
            guard.phase(a22.r0, a22.r1, a22.c0, a22.c1)
        if m > n:
            l31 = left.sub(n, m, 0, k)      # (m−n)×k
            a32 = right.sub(n, m, 0, n - k) # (m−n)×(n−k)
            _rmatmul(ch, a32, l31, l21.T, -1.0)
            if guard is not None:
                guard.phase(a32.r0, a32.r1, a32.c0, a32.c1)
        tail = right.sub(k, m, 0, n - k)
        _rect_rchol(ch, tail)
        if guard is not None:
            guard.phase(tail.r0, tail.r1, tail.c0, tail.c1)


def _factor_column(ch, A: BlockRef) -> None:
    """Base case: explicitly read/scale/write one column (2m words).

    This I/O is charged at *every* hierarchy level — it is real
    traffic the algorithm issues whether or not the column is cached,
    which is exactly how Claim 3.1's recurrence charges it.  The
    numbers are scaled in place, segment by segment when the column
    streams, which gives the same bits as scaling it whole.
    """
    m, M = A.rows, ch.M
    machine = ch.machine
    col = A.view()[:, 0]  # the column's numbers, in place
    with machine.profiler.span("column"):
        if m + 1 <= M:
            ch.read(A)
            col[1:] /= _sqrt_pivot(col)
            machine.add_flops(column_scale_flops(m))
            ch.write(A)
            ch.release(A)
            return
        # column longer than fast memory: stream pivot-pinned segments
        if M < 2:
            raise ModelError(f"toledo base case needs M >= 2, got M={M}")
        seg = M - 1
        pivot_ref = A.sub(0, 1, 0, 1)
        ch.read(pivot_ref)
        pivot = _sqrt_pivot(col)
        machine.add_flops(1)
        ch.write(pivot_ref)
        for r in range(1, m, seg):
            seg_ref = A.sub(r, min(r + seg, m), 0, 1)
            ch.read(seg_ref)
            col[r : r + seg] /= pivot
            machine.add_flops(seg_ref.rows)
            ch.write(seg_ref)
            ch.release(seg_ref)
        ch.release(pivot_ref)


def _sqrt_pivot(col: np.ndarray) -> float:
    """Replace the column's pivot by its square root; return that root."""
    if col[0] <= 0:
        raise np.linalg.LinAlgError("non-positive pivot: matrix is not SPD")
    col[0] = pivot = math.sqrt(float(col[0]))
    return pivot
