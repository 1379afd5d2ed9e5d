"""Algorithm 8: cache-oblivious recursive triangular solve.

Computes ``X = A · U^{-1}`` in place over ``A``, with ``U`` upper
triangular (in the Cholesky recursions, ``U = L11ᵀ`` is a transposed
view of an already-factored lower-triangular block).  Splitting into
quadrants yields four recursive solves and two recursive
multiplications; charging through ideal-cache scopes gives the
paper's recurrences (15)–(16):

    B(n) = O(n³/√M + n²),    L(n) = O(n³/M^{3/2})

on block-contiguous storage.  The implementation generalizes to
rectangular ``A`` (``m × n``) as the Cholesky recursions need; for
``m = n`` it performs exactly the paper's quadrant recursion.

Each node is charged by the run's charging object
(:mod:`~repro.sequential.charge_plan`), live or planned, as in
:mod:`~repro.sequential.rmatmul`.
"""

from __future__ import annotations

from repro.machine.core import ModelError
from repro.matrices.tracked import BlockRef
from repro.sequential.charge_plan import ScopeCharging
from repro.sequential.flops import trsm_flops
from repro.sequential.kernels import solve_upper_right
from repro.sequential.rmatmul import _rmatmul
from repro.util.imath import split_point


def rtrsm(A: BlockRef, U: BlockRef) -> None:
    """Overwrite ``A`` (``m × n``) with ``A · U^{-1}`` (``U`` upper ``n × n``).

    Only the upper triangle of ``U`` is referenced; passing ``L.T``
    for a lower-triangular factor ``L`` is the intended usage.
    """
    m, n = A.shape
    if U.shape != (n, n):
        raise ValueError(f"U{U.shape} must be {n}x{n} to solve A{A.shape}")
    if A.matrix.machine is not U.matrix.machine:
        raise ValueError("rtrsm operands must share one machine")
    _rtrsm(ScopeCharging(A.matrix.machine), A, U)


def _rtrsm(ch, A: BlockRef, U: BlockRef) -> None:
    m, n = A.shape
    with ch.node("trsm", (A, U), A) as fits:
        if fits:
            A.poke(solve_upper_right(A.peek(), U.peek()))
            ch.machine.add_flops(trsm_flops(m, n))
            return
        if m >= n and m > 1:
            # tall A: the two row halves solve independently
            a_top, a_bot = A.split_rows(split_point(m))
            _rtrsm(ch, a_top, U)
            _rtrsm(ch, a_bot, U)
            return
        if n == 1:
            raise ModelError(
                f"fast memory (M={ch.M}) cannot hold a single "
                "column triangular-solve working set"
            )
        # wide A: forward substitution over U's column blocks
        h = split_point(n)
        a_left, a_right = A.split_cols(h)
        u11, u12, _u21, u22 = U.quadrants(h, h)
        _rtrsm(ch, a_left, u11)
        _rmatmul(ch, a_right, a_left, u12, -1.0)
        _rtrsm(ch, a_right, u22)
