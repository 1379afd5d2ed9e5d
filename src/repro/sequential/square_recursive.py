"""Algorithm 6: the square recursive Cholesky of Ahmed–Pingali [AP00].

The star of the paper's upper bounds (Conclusion 5): factor the
leading half, triangular-solve the panel (Algorithm 8), symmetric-
rank-k update the trailing half (recursive SYRK), recurse — with *no*
tunable parameter.  Charged through ideal-cache scopes, one run
produces, at every level ``M`` of a hierarchy simultaneously,

    B(n) = O(n³/√M + n²)       (recurrence (13))
    L(n) = O(n³/M^{3/2})       (recurrence (14), block-contiguous
                                recursive storage)

which matches the lower bounds of Corollary 2.3 / 3.2 — the only
algorithm in the census that is bandwidth- *and* latency-optimal,
cache-obliviously, at all levels.

The recursion is written once; :func:`~repro.sequential.charge_plan.charging`
decides how its nodes are charged (live scopes, or one planned batch
for a run nothing observes on one fast level).
"""

from __future__ import annotations

import numpy as np

from repro.matrices.tracked import BlockRef, TrackedMatrix
from repro.sequential.charge_plan import charging
from repro.sequential.flops import cholesky_flops
from repro.sequential.kernels import dense_cholesky
from repro.sequential.rsyrk import _rsyrk
from repro.sequential.rtrsm import _rtrsm
from repro.util.imath import split_point


def square_recursive(A: TrackedMatrix) -> np.ndarray:
    """Cache-oblivious recursive Cholesky (Algorithm 6).

    Returns the lower factor ``L`` (left in ``A``'s lower triangle;
    the strictly-upper part of ``A`` is zeroed in the process).
    """
    ch = charging(A)
    _square_rchol(ch, A.whole())
    ch.close()
    A.machine.release_all()
    return A.lower()


def _square_rchol(ch, A: BlockRef) -> None:
    guard = ch.machine.abft
    if guard is not None:
        guard.enter()
    try:
        _square_rchol_body(ch, A, guard)
    finally:
        if guard is not None:
            guard.exit()


def _square_rchol_body(ch, A: BlockRef, guard) -> None:
    """Factor ``A`` where it fits, else split it into quadrants.

    n == 1 always fits (footprint of one word, M >= 1), so a
    non-fitting subproblem is guaranteed splittable.

    The ABFT phases only act at recursion depth 1 (see
    :meth:`~repro.abft.ChecksumGuardian.phase`): the top level commits
    each child's whole footprint after the child returns, so the
    checkpoint schedule is independent of how deep the recursion goes.
    """
    n = A.rows
    with ch.node("chol", (A,), A) as fits:
        if fits:
            A.poke(dense_cholesky(A.peek()))
            ch.machine.add_flops(cholesky_flops(n))
            if guard is not None:
                guard.phase(A.r0, A.r1, A.c0, A.c1)
            return
        k = split_point(n)
        a11, _a12, a21, a22 = A.quadrants(k, k)
        _square_rchol(ch, a11)         # L11 = Chol(A11)
        if guard is not None:
            guard.phase(a11.r0, a11.r1, a11.c0, a11.c1)
        _rtrsm(ch, a21, a11.T)         # L21 = A21 · L11^{-T}
        if guard is not None:
            guard.phase(a21.r0, a21.r1, a21.c0, a21.c1)
        _rsyrk(ch, a22, a21)           # A22 <- A22 - L21 L21^T
        if guard is not None:
            guard.phase(a22.r0, a22.r1, a22.c0, a22.c1)
        _square_rchol(ch, a22)         # L22 = Chol(A22)
        if guard is not None:
            guard.phase(a22.r0, a22.r1, a22.c0, a22.c1)
