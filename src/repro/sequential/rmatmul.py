"""Algorithm 7: cache-oblivious recursive matrix multiplication.

The FLPR99 divide-and-conquer: split the largest of the three
dimensions until the working set (all three operands) fits in fast
memory, then multiply there.  Communication is charged through
ideal-cache scopes, so a single run yields the traffic at *every*
level of a hierarchical machine — which is the whole point of the
cache-oblivious construction.

Theorem 3 gives the bandwidth Θ(mnr/√M + mn + nr + mr) (all four
size regimes of its proof are exercised in the benches), and
Claim 3.3 the latency Θ(n³/M^{3/2}) on recursive block storage vs
Θ(n³/M) on column-major storage.

This scope recursion is the reference charging path.  It serves the
public kernel and every ``toledo``/``square-recursive`` run that is
observed, guarded, fault- or ABFT-armed or multi-level; an unobserved
run on a single-level batched machine walks the same recursion as a
:class:`~repro.sequential.charge_plan.ChargePlan` and charges it as
one batch, count-identical to this path.
"""

from __future__ import annotations

from repro.machine.core import ModelError
from repro.matrices.tracked import BlockRef, footprint
from repro.sequential.flops import gemm_flops
from repro.util.imath import split_point


def rmatmul(C: BlockRef, A: BlockRef, B: BlockRef, *, subtract: bool = False) -> None:
    """``C += A·B`` (or ``-=`` with ``subtract``), cache-obliviously.

    All three blocks must live on the same machine.  ``C`` is both
    read (accumulated into) and written; overlapping ``A``/``B``
    operands (e.g. a symmetric update's two views of one block) are
    handled naturally because footprints are address-set unions.
    """
    m, k = A.shape
    k2, r = B.shape
    cm, cr = C.shape
    if k != k2 or cm != m or cr != r:
        raise ValueError(
            f"shape mismatch: C{C.shape} += A{A.shape} · B{B.shape}"
        )
    if C.matrix.machine is not A.matrix.machine or C.matrix.machine is not B.matrix.machine:
        raise ValueError("rmatmul operands must share one machine")
    _rmatmul(C, A, B, -1.0 if subtract else 1.0)


def _rmatmul(C: BlockRef, A: BlockRef, B: BlockRef, sign: float) -> None:
    machine = C.matrix.machine
    m, k = A.shape
    r = B.shape[1]
    with machine.profiler.span("matmul"), machine.scope(
        footprint([A, B, C]), C.intervals, write_covered=True
    ) as sc:
        if sc.fits:
            c = C.peek()
            c += sign * (A.peek() @ B.peek())
            C.poke(c)
            machine.add_flops(gemm_flops(m, k, r))
            return
        _rmatmul_recurse(C, A, B, sign, machine, m, k, r)


def _rmatmul_recurse(
    C: BlockRef, A: BlockRef, B: BlockRef, sign: float, machine,
    m: int, k: int, r: int,
) -> None:
    """Split a too-big multiplication into smaller scopes."""
    big = max(m, k, r)
    if big == 1:
        raise ModelError(
            f"fast memory (M={machine.M}) cannot hold even a "
            "1x1x1 multiplication working set"
        )
    if m == big:
        h = split_point(m)
        a_top, a_bot = A.split_rows(h)
        c_top, c_bot = C.split_rows(h)
        _rmatmul(c_top, a_top, B, sign)
        _rmatmul(c_bot, a_bot, B, sign)
    elif k == big:
        h = split_point(k)
        a_left, a_right = A.split_cols(h)
        b_top, b_bot = B.split_rows(h)
        _rmatmul(C, a_left, b_top, sign)
        _rmatmul(C, a_right, b_bot, sign)
    else:
        h = split_point(r)
        b_left, b_right = B.split_cols(h)
        c_left, c_right = C.split_cols(h)
        _rmatmul(c_left, A, b_left, sign)
        _rmatmul(c_right, A, b_right, sign)
