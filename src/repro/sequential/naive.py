"""The naïve column-wise (and row-wise) Cholesky algorithms.

Algorithms 2 and 3 of the paper, plus the row-wise ("up-looking")
twin it mentions.  These are the baselines of Table 1: bandwidth
Θ(n³) — a factor ``sqrt(M)`` above the lower bound — because every
column update re-reads previously computed columns.

The implementations follow the paper's two regimes exactly:

* ``M >= 2n`` — two columns fit: whole-column transfers, giving the
  paper's *exact* counts (asserted to the word in the tests):

  - left-looking:  words = n³/6 + n² + 5n/6, messages = n²/2 + 3n/2,
  - right-looking: words = n³/3 + n² + 2n/3, messages = n² + n
    (messages under column-major storage);

* ``4 <= M < 2n`` — the segmented regime of §3.1.4–3.1.5: columns are
  streamed through fast memory in pivot-pinned segments, with the
  same Θ(n³) bandwidth and O(n³/M) messages.
"""

from __future__ import annotations

import math

import numpy as np

from repro.machine.core import ModelError
from repro.matrices.tracked import TrackedMatrix
from repro.sequential.flops import column_scale_flops, column_update_flops


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ModelError(msg)


def naive_left_looking(A: TrackedMatrix) -> np.ndarray:
    """Algorithm 2: naïve left-looking Cholesky.

    Column ``j`` is finalized by subtracting the contributions of all
    previous columns (re-read from slow memory each time), then scaled
    by the square root of its pivot.

    When the machine's batched fast path is on, the inner re-read loop
    charges one :class:`~repro.util.intervals.RunBatch` per column and
    computes the update as a single GEMV — the counts, the trace (after
    batch expansion), and the numbers match the element-wise loop
    exactly.

    Returns the lower factor ``L`` (also left in ``A``'s lower
    triangle).
    """
    n, machine, M = A.n, A.machine, A.machine.M
    if M >= 2 * n:
        if machine.batched:
            _left_whole_columns_batched(A)
        else:
            _left_whole_columns(A)
    else:
        _require(M >= 4, f"naïve left-looking needs M >= 4, got M={M}")
        if machine.batched:
            _left_segmented_batched(A)
        else:
            _left_segmented(A)
    machine.release_all()
    return A.lower()


def _left_whole_columns(A: TrackedMatrix) -> None:
    n, machine = A.n, A.machine
    prof = machine.profiler
    for j in range(n):
        with prof.span("column", j=j):
            colj_ref = A.block(j, n, j, j + 1)
            colj = colj_ref.load()
            for k in range(j):
                colk_ref = A.block(j, n, k, k + 1)
                colk = colk_ref.load()
                colj -= colk * colk[0, 0]
                machine.add_flops(column_update_flops(n - j))
                colk_ref.release()
            _scale_column_in_place(colj, machine)
            colj_ref.store(colj)
            colj_ref.release()


def _left_whole_columns_batched(A: TrackedMatrix) -> None:
    n, machine = A.n, A.machine
    prof = machine.profiler
    for j in range(n):
        with prof.span("column", j=j):
            colj_ref = A.block(j, n, j, j + 1)
            colj = colj_ref.load()
            if j:
                # one transfer per previous column k, in k order; each
                # is held beside the resident colj, exactly like the
                # load/release loop (default peak_extra = n - j)
                machine.read_batch(A.column_batch(j, n, 0, j))
                colj -= A.data[j:n, :j] @ A.data[j, :j, None]
                machine.add_flops(j * column_update_flops(n - j))
            _scale_column_in_place(colj, machine)
            colj_ref.store(colj)
            colj_ref.release()


def _left_segmented(A: TrackedMatrix) -> None:
    n, machine, M = A.n, A.machine, A.machine.M
    prof = machine.profiler
    seg = max(1, (M - 2) // 2)  # segment + sibling segment + 2 pinned words
    for j in range(n):
        with prof.span("column", j=j):
            pivot: float | None = None
            pivot_ref = A.block(j, j + 1, j, j + 1)
            for r in range(j, n, seg):
                re = min(r + seg, n)
                seg_ref = A.block(r, re, j, j + 1)
                vals = seg_ref.load()
                for k in range(j):
                    segk_ref = A.block(r, re, k, k + 1)
                    segk = segk_ref.load()
                    ajk_ref = A.block(j, j + 1, k, k + 1)
                    ajk = ajk_ref.load()[0, 0]
                    vals -= segk * ajk
                    machine.add_flops(column_update_flops(re - r))
                    segk_ref.release()
                    ajk_ref.release()
                if r == j:
                    _scale_column_in_place(vals, machine)
                    pivot = float(vals[0, 0])
                else:
                    vals /= pivot
                    machine.add_flops(re - r)
                seg_ref.store(vals)
                seg_ref.release()
                if r == j:
                    # pin the finished pivot (one word) for later segments
                    pivot_ref.load()
            pivot_ref.release()


def _left_segmented_batched(A: TrackedMatrix) -> None:
    n, machine, M = A.n, A.machine, A.machine.M
    prof = machine.profiler
    seg = max(1, (M - 2) // 2)
    for j in range(n):
        with prof.span("column", j=j):
            pivot: float | None = None
            pivot_ref = A.block(j, j + 1, j, j + 1)
            for r in range(j, n, seg):
                re = min(r + seg, n)
                seg_ref = A.block(r, re, j, j + 1)
                vals = seg_ref.load()
                if j:
                    # element-wise order: (segment k, multiplier a_jk)
                    # pairs; both are held at once beside the resident
                    # segment.  In the pivot segment (r == j) the
                    # multiplier's address lies inside the loaded
                    # segment, so it adds no extra word there.
                    rects = []
                    for k in range(j):
                        rects.append((r, re, k, k + 1))
                        rects.append((j, j + 1, k, k + 1))
                    machine.read_batch(
                        A.rect_batch(rects),
                        peak_extra=(re - r) + (1 if r > j else 0),
                    )
                    vals -= A.data[r:re, :j] @ A.data[j, :j, None]
                    machine.add_flops(j * column_update_flops(re - r))
                if r == j:
                    _scale_column_in_place(vals, machine)
                    pivot = float(vals[0, 0])
                else:
                    vals /= pivot
                    machine.add_flops(re - r)
                seg_ref.store(vals)
                seg_ref.release()
                if r == j:
                    pivot_ref.load()
            pivot_ref.release()


def naive_right_looking(A: TrackedMatrix) -> np.ndarray:
    """Algorithm 3: naïve right-looking Cholesky.

    Column ``j`` is finalized first, then immediately pushed into
    every trailing column (each read, updated, and written back) —
    twice the bandwidth of the left-looking variant, same Θ(n³).

    Returns the lower factor ``L``.
    """
    n, machine, M = A.n, A.machine, A.machine.M
    if M >= 2 * n:
        if machine.batched:
            _right_whole_columns_batched(A)
        else:
            _right_whole_columns(A)
    else:
        _require(M >= 4, f"naïve right-looking needs M >= 4, got M={M}")
        if machine.batched:
            _right_segmented_batched(A)
        else:
            _right_segmented(A)
    machine.release_all()
    return A.lower()


def _right_whole_columns(A: TrackedMatrix) -> None:
    n, machine = A.n, A.machine
    prof = machine.profiler
    for j in range(n):
        with prof.span("column", j=j):
            colj_ref = A.block(j, n, j, j + 1)
            colj = colj_ref.load()
            _scale_column_in_place(colj, machine)
            for k in range(j + 1, n):
                colk_ref = A.block(k, n, k, k + 1)
                colk = colk_ref.load()
                colk -= colj[k - j :] * colj[k - j, 0]
                machine.add_flops(column_update_flops(n - k))
                colk_ref.store(colk)
                colk_ref.release()
            colj_ref.store(colj)
            colj_ref.release()


def _right_whole_columns_batched(A: TrackedMatrix) -> None:
    n, machine = A.n, A.machine
    prof = machine.profiler
    for j in range(n):
        with prof.span("column", j=j):
            colj_ref = A.block(j, n, j, j + 1)
            colj = colj_ref.load()
            _scale_column_in_place(colj, machine)
            if j + 1 < n:
                # each trailing column k is read, updated and written
                # back: (read colk, write colk) pairs in k order
                rects = []
                flags = []
                for k in range(j + 1, n):
                    rects.append((k, n, k, k + 1))
                    rects.append((k, n, k, k + 1))
                    flags.extend((False, True))
                v = colj[1:, 0]
                # only the stored (lower-triangular) entries change
                A.data[j + 1 : n, j + 1 : n] -= np.tril(np.outer(v, v))
                machine.charge_intervals(A.rect_batch(rects, is_write=flags))
                machine.add_flops((n - j - 1) * (n - j))
            colj_ref.store(colj)
            colj_ref.release()


def _right_segmented(A: TrackedMatrix) -> None:
    n, machine, M = A.n, A.machine, A.machine.M
    prof = machine.profiler
    # factorization phase: segment + pinned pivot word
    seg_f = max(1, M - 1)
    # update phase: two sibling segments + pinned multiplier word
    seg_u = max(1, (M - 1) // 2)
    for j in range(n):
        with prof.span("column", j=j):
            pivot: float | None = None
            pivot_ref = A.block(j, j + 1, j, j + 1)
            for r in range(j, n, seg_f):
                re = min(r + seg_f, n)
                seg_ref = A.block(r, re, j, j + 1)
                vals = seg_ref.load()
                if r == j:
                    _scale_column_in_place(vals, machine)
                    pivot = float(vals[0, 0])
                else:
                    vals /= pivot
                    machine.add_flops(re - r)
                seg_ref.store(vals)
                seg_ref.release()
                if r == j:
                    pivot_ref.load()
            pivot_ref.release()
            for k in range(j + 1, n):
                akj_ref = A.block(k, k + 1, j, j + 1)
                akj = akj_ref.load()[0, 0]
                for r in range(k, n, seg_u):
                    re = min(r + seg_u, n)
                    segj_ref = A.block(r, re, j, j + 1)
                    segk_ref = A.block(r, re, k, k + 1)
                    segj = segj_ref.load()
                    segk = segk_ref.load()
                    segk -= segj * akj
                    machine.add_flops(column_update_flops(re - r))
                    segk_ref.store(segk)
                    segj_ref.release()
                    segk_ref.release()
                akj_ref.release()


def _right_segmented_batched(A: TrackedMatrix) -> None:
    n, machine, M = A.n, A.machine, A.machine.M
    prof = machine.profiler
    seg_f = max(1, M - 1)
    seg_u = max(1, (M - 1) // 2)
    for j in range(n):
        with prof.span("column", j=j):
            pivot: float | None = None
            pivot_ref = A.block(j, j + 1, j, j + 1)
            # factorization phase is O(n / seg) transfers — element-wise
            for r in range(j, n, seg_f):
                re = min(r + seg_f, n)
                seg_ref = A.block(r, re, j, j + 1)
                vals = seg_ref.load()
                if r == j:
                    _scale_column_in_place(vals, machine)
                    pivot = float(vals[0, 0])
                else:
                    vals /= pivot
                    machine.add_flops(re - r)
                seg_ref.store(vals)
                seg_ref.release()
                if r == j:
                    pivot_ref.load()
            pivot_ref.release()
            if j + 1 < n:
                # the whole update phase is one batch, in element-wise
                # order: per trailing column k, the multiplier a_kj, then
                # (read segj, read segk, write segk) per segment.  a_kj
                # lies inside k's first segj and leaves with it, so
                # column k peaks at its first pair of sibling segments,
                # 2·min(seg_u, n - k) words; k = j + 1 peaks highest.
                rects = []
                flags = []
                for k in range(j + 1, n):
                    rects.append((k, k + 1, j, j + 1))
                    flags.append(False)
                    for r in range(k, n, seg_u):
                        re = min(r + seg_u, n)
                        rects.append((r, re, j, j + 1))
                        rects.append((r, re, k, k + 1))
                        rects.append((r, re, k, k + 1))
                        flags.extend((False, False, True))
                v = A.data[j + 1 : n, j]
                A.data[j + 1 : n, j + 1 : n] -= np.tril(np.outer(v, v))
                machine.charge_intervals(
                    A.rect_batch(rects, is_write=flags),
                    peak_extra=2 * min(seg_u, n - j - 1),
                )
                machine.add_flops((n - j - 1) * (n - j))


def naive_up_looking(A: TrackedMatrix) -> np.ndarray:
    """The row-wise naïve variant ("up-looking", §3.1.4 closing remark).

    Computes ``L`` one row at a time, re-reading all previous rows:
    the exact mirror of the left-looking algorithm, with identical
    counts when the matrix is stored row-major instead of
    column-major.  Implemented for the whole-row regime (``M >= 2n``).

    Returns the lower factor ``L``.
    """
    n, machine, M = A.n, A.machine, A.machine.M
    _require(
        M >= 2 * n,
        f"naïve up-looking is implemented for M >= 2n (got M={M}, n={n})",
    )
    prof = machine.profiler
    batched = machine.batched
    for i in range(n):
        with prof.span("row", i=i):
            rowi_ref = A.block(i, i + 1, 0, i + 1)
            rowi = rowi_ref.load()[0]
            if batched and i:
                # the i previous-row reads coalesce into one batch; the
                # solve itself stays sequential (rowi[j] feeds rowi[j+1])
                machine.read_batch(
                    A.rect_batch([(j, j + 1, 0, j + 1) for j in range(i)])
                )
                for j in range(i):
                    rowj = A.data[j, : j + 1]
                    rowi[j] = (rowi[j] - rowi[:j] @ rowj[:j]) / rowj[j]
                machine.add_flops(i * i)
            else:
                for j in range(i):
                    rowj_ref = A.block(j, j + 1, 0, j + 1)
                    rowj = rowj_ref.load()[0]
                    rowi[j] = (rowi[j] - rowi[:j] @ rowj[:j]) / rowj[j]
                    machine.add_flops(2 * j + 1)
                    rowj_ref.release()
            pivot = rowi[i] - rowi[:i] @ rowi[:i]
            if pivot <= 0:
                raise np.linalg.LinAlgError(
                    f"non-positive pivot {pivot!r}: matrix is not positive definite"
                )
            rowi[i] = math.sqrt(pivot)
            machine.add_flops(2 * i + 1)
            rowi_ref.store(rowi[None, :])
            rowi_ref.release()
    machine.release_all()
    return A.lower()


def _scale_column_in_place(col: np.ndarray, machine) -> None:
    """Finalize a column: sqrt the pivot, divide the rest by it."""
    if col[0, 0] <= 0:
        raise np.linalg.LinAlgError(
            f"non-positive pivot {col[0, 0]!r}: matrix is not positive definite"
        )
    col[0, 0] = math.sqrt(col[0, 0])
    if col.shape[0] > 1:
        col[1:] /= col[0, 0]
    machine.add_flops(column_scale_flops(col.shape[0]))
