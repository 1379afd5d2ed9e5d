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

Each variant is one walk: every transfer the paper counts goes through
the run's charging object (:func:`~repro.sequential.charge_plan.charging`:
one machine call per transfer, or one planned batch for a run nothing
observes on one fast level).  The per-column (or per-row) transfers
are single calls; each inner loop of re-reads is handed over whole, as
one ``sweep`` of a per-step program over the steps' storage
rectangles.  The numbers are computed a column, segment or row at a
time — one GEMV, one rank-1 ``tril`` update, or one triangular solve,
where the paper's loop runs k axpys or dot products.  Both paths
therefore produce the same bits.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular

from repro.machine.core import ModelError
from repro.matrices.tracked import TrackedMatrix
from repro.sequential.charge_plan import charging
from repro.sequential.flops import column_scale_flops, column_update_flops


#: Per-step transfer programs of the inner loops (``ch.sweep``): re-read
#: one block; re-read a segment and its multiplier; read, update and
#: write back one block; and a right-looking update segment pair, with
#: the multiplier read before a column's first pair (slot 0) and
#: released after its last (slot 3), empty in the other steps.
_REREAD = (("read", 0), ("release", 0))
_REREAD_PAIR = (("read", 0), ("read", 1), ("release", 0), ("release", 1))
_UPDATE = (("read", 0), ("write", 0), ("release", 0))
_UPDATE_PAIR = (
    ("read", 0), ("read", 1), ("read", 2), ("write", 2),
    ("release", 1), ("release", 2), ("release", 3),
)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ModelError(msg)


def _steps(count: int, *slots) -> np.ndarray:
    """``count`` steps' storage rectangles, shaped ``(count, slots, 4)``:
    slot ``s`` is ``slots[s] = (r0, r1, c0, c1)``, each a number or one
    value per step."""
    rects = np.empty((count, len(slots), 4), dtype=np.int64)
    for s, rect in enumerate(slots):
        for f, value in enumerate(rect):
            rects[:, s, f] = value
    return rects


def naive_left_looking(A: TrackedMatrix) -> np.ndarray:
    """Algorithm 2: naïve left-looking Cholesky.

    Column ``j`` is finalized by subtracting the contributions of all
    previous columns (re-read from slow memory each time, one transfer
    per column, as the paper counts them), then scaled by the square
    root of its pivot.  The update itself is one GEMV over the previous
    columns.

    Returns the lower factor ``L`` (also left in ``A``'s lower
    triangle).
    """
    n, M = A.n, A.machine.M
    if M < 2 * n:
        _require(M >= 4, f"naïve left-looking needs M >= 4, got M={M}")
    ch = charging(A)
    (_left_whole_columns if M >= 2 * n else _left_segmented)(ch, A)
    ch.close()
    A.machine.release_all()
    return A.lower()


def _left_whole_columns(ch, A: TrackedMatrix) -> None:
    n, machine, data = A.n, A.machine, A.data
    prof = machine.profiler
    ks = np.arange(n + 1)
    for j in range(n):
        with prof.span("column", j=j):
            colj = A.block(j, n, j, j + 1)
            ch.read(colj)
            col = colj.view()
            if j:
                # re-read rows [j, n) of every earlier column k
                ch.sweep(_REREAD, _steps(j, (j, n, ks[:j], ks[1 : j + 1])))
                col -= data[j:n, :j] @ data[j, :j, None]
                machine.add_flops(j * column_update_flops(n - j))
            _scale_column_in_place(col, machine)
            ch.write(colj)
            ch.release(colj)


def _left_segmented(ch, A: TrackedMatrix) -> None:
    n, machine, data = A.n, A.machine, A.data
    prof = machine.profiler
    seg = max(1, (machine.M - 2) // 2)  # segment + sibling + 2 pinned words
    ks = np.arange(n + 1)
    for j in range(n):
        with prof.span("column", j=j):
            pivot: float | None = None
            pivot_ref = A.block(j, j + 1, j, j + 1)
            for r in range(j, n, seg):
                re = min(r + seg, n)
                seg_ref = A.block(r, re, j, j + 1)
                ch.read(seg_ref)
                vals = seg_ref.view()
                if j:
                    # (segment k, multiplier a_jk) pairs; in the pivot
                    # segment a_jk lies inside segment k
                    k0, k1 = ks[:j], ks[1 : j + 1]
                    ch.sweep(_REREAD_PAIR,
                             _steps(j, (r, re, k0, k1), (j, j + 1, k0, k1)))
                    vals -= data[r:re, :j] @ data[j, :j, None]
                    machine.add_flops(j * column_update_flops(re - r))
                if r == j:
                    _scale_column_in_place(vals, machine)
                    pivot = float(vals[0, 0])
                else:
                    vals /= pivot
                    machine.add_flops(re - r)
                ch.write(seg_ref)
                ch.release(seg_ref)
                if r == j:
                    # pin the finished pivot (one word) for later segments
                    ch.read(pivot_ref)
            ch.release(pivot_ref)


def naive_right_looking(A: TrackedMatrix) -> np.ndarray:
    """Algorithm 3: naïve right-looking Cholesky.

    Column ``j`` is finalized first, then immediately pushed into
    every trailing column (each read, updated, and written back) —
    twice the bandwidth of the left-looking variant, same Θ(n³).  The
    push is one rank-1 update of the trailing lower triangle.

    Returns the lower factor ``L``.
    """
    n, M = A.n, A.machine.M
    if M < 2 * n:
        _require(M >= 4, f"naïve right-looking needs M >= 4, got M={M}")
    ch = charging(A)
    (_right_whole_columns if M >= 2 * n else _right_segmented)(ch, A)
    ch.close()
    A.machine.release_all()
    return A.lower()


def _rank1_trailing_update(A: TrackedMatrix, j: int) -> None:
    """Subtract column ``j``'s outer product from the trailing lower
    triangle (only the stored, lower entries change)."""
    n = A.n
    v = A.data[j + 1 : n, j]
    A.data[j + 1 : n, j + 1 : n] -= np.tril(np.outer(v, v))
    A.machine.add_flops((n - j - 1) * (n - j))


def _right_whole_columns(ch, A: TrackedMatrix) -> None:
    n, machine = A.n, A.machine
    prof = machine.profiler
    ks = np.arange(n + 1)
    for j in range(n):
        with prof.span("column", j=j):
            colj = A.block(j, n, j, j + 1)
            ch.read(colj)
            _scale_column_in_place(colj.view(), machine)
            if j + 1 < n:
                # update the stored part, rows [k, n), of every trailing
                # column k
                k = ks[j + 1 : n]
                ch.sweep(_UPDATE, _steps(n - j - 1, (k, n, k, k + 1)))
                _rank1_trailing_update(A, j)
            ch.write(colj)
            ch.release(colj)


def _right_segmented(ch, A: TrackedMatrix) -> None:
    n, machine = A.n, A.machine
    prof = machine.profiler
    # factorization phase: segment + pinned pivot word
    seg_f = max(1, machine.M - 1)
    # update phase: two sibling segments + pinned multiplier word
    seg_u = max(1, (machine.M - 1) // 2)
    # the update steps of every column k, k by k: (k, segment [r, re));
    # column j updates the suffix of them with k > j
    ks = np.arange(n)
    counts = -(-(n - ks) // seg_u)
    start = np.cumsum(counts) - counts
    k_of = np.repeat(ks, counts)
    r_of = k_of + seg_u * (np.arange(len(k_of)) - start[k_of])
    re_of = np.minimum(r_of + seg_u, n)
    first, last = r_of == k_of, re_of == n
    for j in range(n):
        with prof.span("column", j=j):
            pivot: float | None = None
            pivot_ref = A.block(j, j + 1, j, j + 1)
            for r in range(j, n, seg_f):
                re = min(r + seg_f, n)
                seg_ref = A.block(r, re, j, j + 1)
                ch.read(seg_ref)
                vals = seg_ref.view()
                if r == j:
                    _scale_column_in_place(vals, machine)
                    pivot = float(vals[0, 0])
                else:
                    vals /= pivot
                    machine.add_flops(re - r)
                ch.write(seg_ref)
                ch.release(seg_ref)
                if r == j:
                    ch.read(pivot_ref)
            ch.release(pivot_ref)
            if j + 1 < n:
                # per trailing column k: the multiplier a_kj, then
                # (segj, segk) pairs; a_kj lies inside k's first segj
                # and leaves with it
                u = start[j + 1]
                k, r, re = k_of[u:], r_of[u:], re_of[u:]
                ch.sweep(_UPDATE_PAIR, _steps(
                    len(k),
                    (k, k + first[u:], j, j + 1),
                    (r, re, j, j + 1),
                    (r, re, k, k + 1),
                    (k, k + last[u:], j, j + 1),
                ))
                _rank1_trailing_update(A, j)


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
    ch = charging(A)
    prof, data = machine.profiler, A.data
    ks = np.arange(n + 1)
    rows = _steps(n, (ks[:n], ks[1:], 0, ks[1:]))  # the stored part of each row
    for i in range(n):
        with prof.span("row", i=i):
            rowi_ref = A.block(i, i + 1, 0, i + 1)
            ch.read(rowi_ref)
            rowi = rowi_ref.peek()[0]
            if i:
                ch.sweep(_REREAD, rows[:i])
                # forward substitution against the finished rows:
                # L[:i, :i] @ l_i = a_i
                rowi[:i] = solve_triangular(
                    data[:i, :i], rowi[:i], lower=True, check_finite=False
                )
                machine.add_flops(i * i)
            pivot = rowi[i] - rowi[:i] @ rowi[:i]
            if pivot <= 0:
                raise np.linalg.LinAlgError(
                    f"non-positive pivot {pivot!r}: matrix is not positive definite"
                )
            rowi[i] = math.sqrt(pivot)
            machine.add_flops(2 * i + 1)
            rowi_ref.poke(rowi[None, :])
            ch.write(rowi_ref)
            ch.release(rowi_ref)
    ch.close()
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
