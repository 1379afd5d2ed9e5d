"""Recursive symmetric rank-k update: ``C -= A·Aᵀ`` on a diagonal block.

The symmetric twin of Algorithm 7, used by the recursive Cholesky
algorithms for their trailing update (Algorithm 6 line 6 and the
diagonal part of Algorithm 5 line 5).  Splitting ``C`` into quadrants
gives two recursive symmetric updates (C11, C22) and one general
recursive multiplication (C21) — the standard SYRK recursion.

Counting the symmetric flops exactly (``m(m+1)k`` per update rather
than ``2m²k``) is what lets the test suite assert that every
recursive Cholesky performs *exactly* ``cholesky_flops(n)`` scalar
operations, i.e. the same arithmetic as the naïve algorithms up to
reordering (§3.1.3).

Each node is charged by the run's charging object
(:mod:`~repro.sequential.charge_plan`), live or planned, as in
:mod:`~repro.sequential.rmatmul`.
"""

from __future__ import annotations

from repro.machine.core import ModelError
from repro.matrices.tracked import BlockRef
from repro.sequential.charge_plan import ScopeCharging
from repro.sequential.flops import syrk_flops
from repro.sequential.rmatmul import _rmatmul
from repro.util.imath import split_point


def rsyrk(C: BlockRef, A: BlockRef) -> None:
    """``C -= A·Aᵀ`` with ``C`` square symmetric (lower referenced).

    ``C`` must be square with as many rows as ``A``; only the lower
    triangle of the result is meaningful (the strictly-upper part of
    a dense ``C`` block is updated too, harmlessly, to keep the
    stored operand symmetric; packed layouts charge the stored lower
    entries only either way).
    """
    m, k = A.shape
    if C.shape != (m, m):
        raise ValueError(f"C{C.shape} must be {m}x{m} for rsyrk with A{A.shape}")
    if C.matrix.machine is not A.matrix.machine:
        raise ValueError("rsyrk operands must share one machine")
    _rsyrk(ScopeCharging(C.matrix.machine), C, A)


def _rsyrk(ch, C: BlockRef, A: BlockRef) -> None:
    m, k = A.shape
    with ch.node("syrk", (A, C), C) as fits:
        if fits:
            c = C.view()
            a = A.peek()
            c -= a @ a.T
            ch.machine.add_flops(syrk_flops(m, k))
            return
        if max(m, k) == 1:
            raise ModelError(
                f"fast memory (M={ch.M}) cannot hold a 1x1 "
                "symmetric update working set"
            )
        if k > m:
            # long inner dimension: split A's columns, two half updates
            a_left, a_right = A.split_cols(split_point(k))
            _rsyrk(ch, C, a_left)
            _rsyrk(ch, C, a_right)
            return
        h = split_point(m)
        c11, _c12, c21, c22 = C.quadrants(h, h)
        a_top, a_bot = A.split_rows(h)
        _rsyrk(ch, c11, a_top)
        _rmatmul(ch, c21, a_bot, a_top.T, -1.0)
        _rsyrk(ch, c22, a_bot)
