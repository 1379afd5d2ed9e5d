"""Blocked *right*-looking Cholesky — the sequential PxPOTRF.

Algorithm 4 in the paper is LAPACK's left-looking POTRF; ScaLAPACK's
PxPOTRF (Algorithm 9) is right-looking: factor the diagonal block,
solve the panel, then eagerly update the entire trailing matrix.  The
sequential version of that schedule is implemented here as an
ablation the paper's Table 1 implies but does not tabulate:

* the flops are identical (same scalar operations, reordered);
* the bandwidth is still Θ(n³/b) — optimal at b = Θ(√M) — but with a
  roughly 2× constant over left-looking, because every trailing block
  is read *and written back* once per panel instead of the history
  being read-only (exactly the naïve left/right asymmetry of
  §3.1.4–3.1.5, lifted to block granularity);
* at most three blocks are resident (``b <= sqrt(M/3)``, enforced).
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
from repro.sequential.lapack_blocked import default_block_size
from repro.util.imath import ceil_div
from repro.util.validation import check_positive_int


def lapack_blocked_right(A: TrackedMatrix, block: int | None = None) -> np.ndarray:
    """Blocked right-looking Cholesky (sequential PxPOTRF schedule).

    Parameters mirror :func:`repro.sequential.lapack_blocked`; returns
    the lower factor ``L``.
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
        return k * b, min((k + 1) * b, n)

    ch = charging(A)
    prof, data = machine.profiler, A.data
    for J in range(nb):
        j0, j1 = edge(J)
        w = j1 - j0

        with prof.span("panel", J=J):
            # factor the (already fully updated) diagonal block
            with prof.span("potf2"):
                diag_ref = A.block(j0, j1, j0, j1)
                ch.read(diag_ref)
                ldiag = dense_cholesky(diag_ref.peek())
                diag_ref.poke(ldiag)
                machine.add_flops(cholesky_flops(w))
                ch.write(diag_ref)

            # panel solve, diagonal factor kept resident (2 blocks)
            with prof.span("trsm"):
                if J + 1 < nb:
                    for I in range(J + 1, nb):
                        panel_ref = A.block(*edge(I), j0, j1)
                        ch.read(panel_ref)
                        ch.write(panel_ref)
                        ch.release(panel_ref)
                    sub = data[j1:n, j0:j1]
                    sub[...] = solve_lower_transposed_right(sub.copy(), ldiag)
                    machine.add_flops(trsm_flops(n - j1, w))
                ch.release(diag_ref)

            # eager trailing update: every remaining block, right now
            with prof.span("update"):
                for K in range(J + 1, nb):
                    k0, k1 = edge(K)
                    # at I == K the left operand is L(K,J) itself, so
                    # releasing it evicts the right operand too
                    right_ref = A.block(k0, k1, j0, j1)  # L(K,J)
                    ch.read(right_ref)
                    for I in range(K, nb):
                        i0, i1 = edge(I)
                        left_ref = A.block(i0, i1, j0, j1)  # L(I,J)
                        target_ref = A.block(i0, i1, k0, k1)
                        ch.read(left_ref)
                        ch.read(target_ref)
                        ch.write(target_ref)
                        ch.release(target_ref)
                        ch.release(left_ref)
                    ch.release(right_ref)
                    data[k0:n, k0:k1] -= data[k0:n, j0:j1] @ data[k0:k1, j0:j1].T
                    machine.add_flops(
                        syrk_flops(k1 - k0, w) + gemm_flops(n - k1, w, k1 - k0)
                    )

    ch.close()
    machine.release_all()
    return A.lower()
