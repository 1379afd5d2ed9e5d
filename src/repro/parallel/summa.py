"""2D parallel matrix multiplication (SUMMA) on the simulated network.

The paper's parallel lower bound for Cholesky (Corollary 2.4) is the
ITT04 matmul bound in disguise, so the natural parallel baseline is
the classical 2D multiplication algorithm itself: SUMMA
(van de Geijn–Watts), the algorithm behind PBLAS ``PDGEMM``.

Both operands are distributed over the √P × √P grid in b×b blocks
(block-cyclic).  For each of the n/b panel steps, the owners of the
current column panel of A broadcast their blocks across their grid
rows, the owners of the row panel of B broadcast down their grid
columns, and every processor accumulates into its local C blocks.

Critical-path counts mirror PxPOTRF's shape: Θ((n/b)·log P) messages
and Θ((n²/√P)·log P) words — meeting the 2D bounds of Theorem 2 /
Corollary 2.1 within the log P factor, with the same optimal block
size b = n/√P.  The benches use it to show Cholesky and matmul share
one communication profile, which is the Main Theorem's point.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.abft import AbftConfig, AbftLadder, Channel
from repro.faults.injector import FaultStats
from repro.faults.plan import FaultPlan
from repro.observability.spans import SpanProfile, observe
from repro.parallel.grid import ProcessorGrid
from repro.parallel.network import Network
from repro.parallel.pxpotrf import _checkpoint, _checkpointing, _recover
from repro.sequential.flops import gemm_flops
from repro.util.imath import ceil_div
from repro.util.validation import (
    ValidationError,
    check_finite,
    check_positive_int,
)


@dataclass
class SummaResult:
    """Outcome of a SUMMA run: the product plus the accounting."""

    C: np.ndarray
    network: Network
    n: int
    block: int
    P: int
    #: Span tree of the run (``None`` unless ``observe_spans=True``).
    profile: "SpanProfile | None" = None
    #: Realized faults + resilience overhead (``None`` on a plain run).
    fault_stats: "FaultStats | None" = None
    #: The ``abft`` counter group (config + stats + attestation) when
    #: the run was checksum-protected, else ``None``.
    abft: "dict | None" = None

    @property
    def critical_words(self) -> int:
        return self.network.critical_words

    @property
    def critical_messages(self) -> int:
        return self.network.critical_messages

    @property
    def max_flops(self) -> int:
        return self.network.max_flops

    @property
    def total_flops(self) -> int:
        return sum(p.flops for p in self.network.processors)


def summa(
    a: np.ndarray,
    b: np.ndarray,
    block: int,
    grid: ProcessorGrid | int,
    *,
    alpha: float = 1.0,
    beta: float = 1.0,
    observe_spans: bool = False,
    faults: "FaultPlan | None" = None,
    checkpoint: bool | None = None,
    abft: "AbftConfig | dict | bool | None" = None,
) -> SummaResult:
    """Multiply two square matrices on a simulated 2D grid.

    Parameters mirror :func:`repro.parallel.pxpotrf.pxpotrf`; the
    result's ``C`` equals ``a @ b`` (verified in the tests).  With
    ``observe_spans`` the per-step broadcasts and updates are recorded
    as a span tree on the result's ``profile``.  With a fault plan,
    sends run over the ack/retry transport and (when fail-stops are
    scheduled) each rank buddy-checkpoints its accumulators every
    panel step, so a fail-stopped rank is rebuilt exactly and the
    product matches the failure-free run bit for bit.  With ``abft``
    set, the panel broadcasts travel through the same sealed
    :class:`~repro.abft.Channel` and :class:`~repro.abft.AbftLadder`
    as in :func:`~repro.parallel.pxpotrf.pxpotrf`: single silently
    flipped payload elements heal on open, uncorrectable doubles
    rebuild the network and re-run under an attempt-salted schedule.
    """
    ladder = AbftLadder.coerce(abft, faults)
    attempt = partial(
        _summa_once, a, b, block, grid, alpha=alpha, beta=beta,
        observe_spans=observe_spans, faults=faults, checkpoint=checkpoint,
        ladder=ladder,
    )
    return attempt() if ladder is None else ladder.run(attempt)


def _summa_once(
    a, b, block, grid, *, alpha, beta, observe_spans, faults, checkpoint,
    ladder: "AbftLadder | None",
) -> SummaResult:
    """One attempt of :func:`summa` on a fresh simulated network."""
    if isinstance(grid, int):
        grid = ProcessorGrid.square(grid)
    check_positive_int("block", block)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n, n):
        raise ValidationError(
            f"need square operands, got {a.shape} and {b.shape}"
        )
    check_finite("a", a)
    check_finite("b", b)
    network = Network(grid.size, alpha=alpha, beta=beta)
    injector = network.attach_faults(faults)
    ckpt_on = _checkpointing(checkpoint, injector, grid.size)
    stats = injector.stats if injector is not None else FaultStats()
    recorder = observe(network, name="summa") if observe_spans else None
    prof = network.profiler
    nb = ceil_div(n, block)

    def brange(k: int) -> tuple[int, int]:
        return k * block, min((k + 1) * block, n)

    def owner(bi: int, bj: int) -> int:
        return grid.block_owner(bi, bj)

    # broadcast payloads, sealed when protected (see pxpotrf)
    channel = Channel(network, ladder)

    # scatter A, B; zero local C blocks
    for bi in range(nb):
        r0, r1 = brange(bi)
        for bj in range(nb):
            c0, c1 = brange(bj)
            p = network[owner(bi, bj)]
            p.store[("A", bi, bj)] = a[r0:r1, c0:c1].copy()
            p.store[("B", bi, bj)] = b[r0:r1, c0:c1].copy()
            p.store[("C", bi, bj)] = np.zeros((r1 - r0, c1 - c0))

    if ckpt_on:
        # step "-1" checkpoint: operands and zeroed accumulators, so a
        # rank fail-stopping at step 0 is recoverable too
        with prof.span("checkpoint", K=-1):
            for rank in range(network.P):
                _checkpoint(
                    network, rank, list(network[rank].store.keys()), stats
                )

    for K in range(nb):
        if injector is not None:
            for rank in injector.failstops_due(K):
                with prof.span("recover", K=K, rank=rank):
                    _recover(network, rank, stats)
        with prof.span("step", K=K):
            # owners of A's column panel K broadcast along their grid rows
            with prof.span("bcast-A"):
                a_by_owner: dict[int, list[int]] = defaultdict(list)
                for bi in range(nb):
                    a_by_owner[owner(bi, K)].append(bi)
                for rank, rows in sorted(a_by_owner.items()):
                    proc = network[rank]
                    bundle = {
                        bi: channel.seal(rank, proc.store[("A", bi, K)])
                        for bi in rows
                    }
                    r = grid.position(rank)[0]
                    network.broadcast(
                        rank,
                        grid.row_group(r),
                        words=channel.size(bundle.values()),
                        payload=bundle,
                        key=("Arow", K, r),
                    )
            # owners of B's row panel K broadcast down their grid columns
            with prof.span("bcast-B"):
                b_by_owner: dict[int, list[int]] = defaultdict(list)
                for bj in range(nb):
                    b_by_owner[owner(K, bj)].append(bj)
                for rank, cols in sorted(b_by_owner.items()):
                    proc = network[rank]
                    bundle = {
                        bj: channel.seal(rank, proc.store[("B", K, bj)])
                        for bj in cols
                    }
                    c = grid.position(rank)[1]
                    network.broadcast(
                        rank,
                        grid.col_group(c),
                        words=channel.size(bundle.values()),
                        payload=bundle,
                        key=("Bcol", K, c),
                    )
            # local accumulation; no sends interleave with the compute
            # charges, so per-rank flop totals applied in one ``compute``
            # call per rank advance the clocks as one call per block would
            flops_by_rank: "defaultdict[int, int]" = defaultdict(int)
            with prof.span("update"):
                for bi in range(nb):
                    for bj in range(nb):
                        rank = owner(bi, bj)
                        proc = network[rank]
                        r, c = grid.position(rank)
                        ablk = channel.open(rank, ("Arow", K, r), bi)
                        bblk = channel.open(rank, ("Bcol", K, c), bj)
                        proc.store[("C", bi, bj)] += ablk @ bblk
                        flops_by_rank[rank] += gemm_flops(
                            ablk.shape[0], ablk.shape[1], bblk.shape[1]
                        )
                for rank, flops in flops_by_rank.items():
                    network.compute(rank, flops)
            # per-step buddy checkpoint: only the accumulators changed
            if ckpt_on:
                with prof.span("checkpoint", K=K):
                    for rank in range(network.P):
                        ckeys = sorted(
                            k for k in network[rank].store if k[0] == "C"
                        )
                        _checkpoint(network, rank, ckeys, stats)
            channel.clear()

    # gather C (free verification step, like pxpotrf's gather)
    out = np.zeros((n, n))
    for bi in range(nb):
        r0, r1 = brange(bi)
        for bj in range(nb):
            c0, c1 = brange(bj)
            out[r0:r1, c0:c1] = network[owner(bi, bj)].store[("C", bi, bj)]
    return SummaResult(
        C=out,
        network=network,
        n=n,
        block=block,
        P=grid.size,
        profile=None if recorder is None else recorder.profile(),
        fault_stats=stats if (injector is not None or ckpt_on) else None,
        abft=None if ladder is None else ladder.record(out),
    )
