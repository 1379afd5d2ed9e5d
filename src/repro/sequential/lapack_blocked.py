"""Algorithm 4: LAPACK POTRF — the blocked left-looking algorithm.

The matrix is processed in ``b × b`` blocks with at most three blocks
resident at a time (the paper's ``b <= sqrt(M/3)`` assumption, which
the machine's capacity enforcement actually checks).  Per panel ``j``:

1. SYRK   — stream the ``j-1`` panel blocks through fast memory to
            update the diagonal block;
2. POTF2  — factor the diagonal block in fast memory;
3. GEMM   — stream pairs of history blocks to update each block of
            the column panel;
4. TRSM   — triangular-solve each panel block against the diagonal
            factor.

Bandwidth is Θ(n³/b + n²): optimal at ``b = Θ(sqrt(M))``, degenerating
to the naïve algorithm's Θ(n³) at ``b = 1`` (Conclusion 2).  Latency
is bandwidth/b messages on a block-contiguous layout — hitting the
Θ(n³/M^{3/2}) lower bound when ``b = Θ(sqrt(M))`` — but b-times worse
on column-major storage (Conclusion 3).
"""

from __future__ import annotations

import numpy as np

from repro.machine.core import ModelError
from repro.matrices.tracked import TrackedMatrix
from repro.sequential.charge_plan import charging
from repro.sequential.flops import (
    cholesky_flops,
    gemm_flops,
    syrk_flops,
    trsm_flops,
)
from repro.sequential.kernels import dense_cholesky, solve_lower_transposed_right
from repro.util.imath import ceil_div, largest_fitting_block
from repro.util.validation import check_positive_int


def default_block_size(M: int) -> int:
    """The paper's optimal tuning: the largest b with ``3b² <= M``."""
    return largest_fitting_block(M, matrices=3)


def lapack_blocked(A: TrackedMatrix, block: int | None = None) -> np.ndarray:
    """Blocked left-looking Cholesky (LAPACK POTRF, Algorithm 4).

    Parameters
    ----------
    A:
        The tracked operand (overwritten with ``L`` in its lower
        triangle).
    block:
        Block size ``b``; defaults to the bandwidth-optimal
        ``floor(sqrt(M/3))``.  Must satisfy ``3b² <= M`` — three
        resident blocks is what the streaming pattern needs, and the
        machine enforces it.

    Returns the lower factor ``L``.
    """
    n, machine, M = A.n, A.machine, A.machine.M
    b = default_block_size(M) if block is None else check_positive_int("block", block)
    b = min(b, n)
    if machine.enforce_capacity and 3 * b * b > M:
        raise ModelError(
            f"block size b={b} needs 3b²={3 * b * b} words resident "
            f"but M={M}; choose b <= sqrt(M/3)"
        )
    nb = ceil_div(n, b)

    def edge(k: int) -> tuple[int, int]:
        """Row/column range of block index k."""
        return k * b, min((k + 1) * b, n)

    ch = charging(A)
    prof, data = machine.profiler, A.data
    guard = machine.abft
    for J in range(nb):
        j0, j1 = edge(J)
        w = j1 - j0

        with prof.span("panel", J=J):
            # --- SYRK: A22 <- A22 - A21 A21^T, streaming history blocks ---
            with prof.span("syrk"):
                diag_ref = A.block(j0, j1, j0, j1)
                ch.read(diag_ref)
                diag = diag_ref.peek()
                if J:
                    for K in range(J):
                        hist_ref = A.block(j0, j1, *edge(K))
                        ch.read(hist_ref)
                        ch.release(hist_ref)
                    hist = data[j0:j1, :j0]
                    diag -= hist @ hist.T
                    machine.add_flops(syrk_flops(w, j0))

            # --- POTF2: factor the diagonal block in fast memory ---
            with prof.span("potf2"):
                diag_ref.poke(dense_cholesky(diag))
                machine.add_flops(cholesky_flops(w))
                ch.write(diag_ref)
                ch.release(diag_ref)

            # --- GEMM: panel blocks <- panel - A31 A21^T, streaming pairs ---
            with prof.span("gemm"):
                for I in range(J + 1, nb):
                    i0, i1 = edge(I)
                    panel_ref = A.block(i0, i1, j0, j1)
                    ch.read(panel_ref)
                    for K in range(J):
                        k0, k1 = edge(K)
                        left_ref = A.block(i0, i1, k0, k1)
                        right_ref = A.block(j0, j1, k0, k1)
                        ch.read(left_ref)
                        ch.read(right_ref)
                        ch.release(left_ref)
                        ch.release(right_ref)
                    ch.write(panel_ref)
                    ch.release(panel_ref)
                if J:
                    data[j1:n, j0:j1] -= data[j1:n, :j0] @ data[j0:j1, :j0].T
                    machine.add_flops(gemm_flops(n - j1, j0, w))

            if J + 1 == nb:
                if guard is not None:
                    # last panel is the diagonal block alone
                    guard.phase(j0, j1, j0, j1)
                break  # no panel below the last diagonal block

            # --- TRSM: panel blocks <- panel * L22^{-T} ---
            with prof.span("trsm"):
                ch.read(diag_ref)
                ldiag = diag_ref.peek()
                for I in range(J + 1, nb):
                    panel_ref = A.block(*edge(I), j0, j1)
                    ch.read(panel_ref)
                    ch.write(panel_ref)
                    ch.release(panel_ref)
                sub = data[j1:n, j0:j1]
                sub[...] = solve_lower_transposed_right(sub.copy(), ldiag)
                machine.add_flops(trsm_flops(n - j1, w))
                ch.release(diag_ref)

            if guard is not None:
                # panel J finished: everything modified since the last
                # boundary lives in [j0, n) × [j0, j1)
                guard.phase(j0, n, j0, j1)

    ch.close()
    machine.release_all()
    return A.lower()
