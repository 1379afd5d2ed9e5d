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

Each node is charged by the run's charging object
(:mod:`~repro.sequential.charge_plan`): live, through a scope per
node, for the public kernel and every observed, guarded, fault- or
ABFT-armed or multi-level run; planned, and charged as one batch, for
an unobserved ``toledo``/``square-recursive`` run on one fast level.
"""

from __future__ import annotations

from repro.machine.core import ModelError
from repro.matrices.tracked import BlockRef
from repro.sequential.charge_plan import ScopeCharging
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
    machine = C.matrix.machine
    if machine is not A.matrix.machine or machine is not B.matrix.machine:
        raise ValueError("rmatmul operands must share one machine")
    _rmatmul(ScopeCharging(machine), C, A, B, -1.0 if subtract else 1.0)


def _rmatmul(ch, C: BlockRef, A: BlockRef, B: BlockRef, sign: float) -> None:
    m, k = A.shape
    r = B.shape[1]
    with ch.node("matmul", (A, B, C), C) as fits:
        if fits:
            c = C.view()
            if sign < 0:  # c - p is c + (-1·p), bit for bit
                c -= A.peek() @ B.peek()
            else:
                c += A.peek() @ B.peek()
            ch.machine.add_flops(gemm_flops(m, k, r))
            return
        # too big: split the largest dimension
        big = max(m, k, r)
        if big == 1:
            raise ModelError(
                f"fast memory (M={ch.M}) cannot hold even a "
                "1x1x1 multiplication working set"
            )
        if m == big:
            h = split_point(m)
            a_top, a_bot = A.split_rows(h)
            c_top, c_bot = C.split_rows(h)
            _rmatmul(ch, c_top, a_top, B, sign)
            _rmatmul(ch, c_bot, a_bot, B, sign)
        elif k == big:
            h = split_point(k)
            a_left, a_right = A.split_cols(h)
            b_top, b_bot = B.split_rows(h)
            _rmatmul(ch, C, a_left, b_top, sign)
            _rmatmul(ch, C, a_right, b_bot, sign)
        else:
            h = split_point(r)
            b_left, b_right = B.split_cols(h)
            c_left, c_right = C.split_cols(h)
            _rmatmul(ch, c_left, A, b_left, sign)
            _rmatmul(ch, c_right, A, b_right, sign)
