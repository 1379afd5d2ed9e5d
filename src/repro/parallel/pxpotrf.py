"""Algorithm 9: ScaLAPACK's PxPOTRF on the simulated network.

Per panel ``J`` (Figure 6, right):

1. the owner of the diagonal block factors it locally;
2. the factor is broadcast down the grid column that owns panel ``J``
   (``b(b+1)/2`` words, ⌈log₂ P_r⌉ deep);
3. every processor owning panel blocks triangular-solves *all* of
   them, then broadcasts the bundle across its grid row in **one**
   message (the batching §3.3.1's count relies on);
4. every processor owning trailing diagonal blocks re-broadcasts the
   panel blocks its grid column needs down that column (again one
   bundled message per source);
5. every owner of a trailing block updates it with the two panel
   blocks it received.

Every processor touches only blocks it owns or has received — a
forgotten broadcast is a numerically wrong factor, which is what the
correctness tests would catch.

**Fault tolerance** (:mod:`repro.faults`): with a fault plan attached,
sends run over the network's ack/retry transport, and per-round buddy
checkpointing guards against fail-stop ranks.  After every panel each
rank bundles the blocks it modified that round into one message to its
buddy ``(rank+1) mod P``; when a rank fail-stops at the start of round
``k`` it lost everything, but the buddy holds exactly its
end-of-round-``k−1`` state, so one restore message rebuilds it and the
factorization continues to the *bit-identical* factor a failure-free
run produces.  Checkpoint and recovery traffic is charged to the same
clocks and path counters as the algorithm's own sends and reported
separately in :class:`~repro.faults.FaultStats`.

§3.3.1's critical-path predictions, which the T2 bench reproduces:

    messages = (3/2)·(n/b)·log₂P,
    words    = (n·b/4 + n²/√P)·log₂P,

latency-optimal at the largest block size ``b = n/√P``, while flops
stay O(n³/P) — losing nothing on the computational bound.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.abft import AbftConfig, AbftLadder, Channel
from repro.faults.injector import FaultInjector, FaultStats
from repro.faults.plan import FaultPlan
from repro.observability.spans import SpanProfile, observe
from repro.parallel.blockcyclic import BlockCyclicMatrix
from repro.parallel.grid import ProcessorGrid
from repro.parallel.network import Network
from repro.results import Measurement
from repro.sequential.flops import cholesky_flops, gemm_flops, syrk_flops, trsm_flops
from repro.sequential.kernels import dense_cholesky, solve_lower_transposed_right
from repro.util.validation import (
    ValidationError,
    check_finite,
    check_positive_int,
)


@dataclass
class ParallelRunResult:
    """Outcome of a PxPOTRF run: the factor plus the accounting."""

    L: np.ndarray
    network: Network
    n: int
    block: int
    P: int
    #: Span tree of the run (``None`` unless ``observe=True``).
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

    @property
    def max_words(self) -> int:
        return self.network.max_words

    @property
    def peak_buffer_words(self) -> int:
        return max(p.peak_buffer_words for p in self.network.processors)

    @property
    def measurement(self) -> Measurement:
        """The run in the unified :class:`~repro.results.Measurement` schema.

        ``words``/``messages`` carry the critical-path counts and
        ``flops`` the max per-processor work, so Table 1 and Table 2
        consumers read one type.  The DAM read/write split does not
        exist on the network; ``words_read`` mirrors ``words`` and
        ``words_written`` is 0 by convention.
        """
        return Measurement(
            algorithm="pxpotrf",
            layout="block-cyclic",
            n=self.n,
            M=None,
            words=int(self.critical_words),
            messages=int(self.critical_messages),
            words_read=int(self.critical_words),
            words_written=0,
            flops=int(self.max_flops),
            correct=True,
            P=self.P,
            block=self.block,
            profile=None if self.profile is None else self.profile.to_dict(),
            faults=None if self.fault_stats is None else self.fault_stats.to_dict(),
            abft=self.abft,
        )

    @property
    def recovery_words(self) -> int:
        """Words spent rebuilding fail-stopped ranks (0 on a clean run)."""
        return 0 if self.fault_stats is None else self.fault_stats.recovery_words

    @property
    def recovery_messages(self) -> int:
        """Messages spent rebuilding fail-stopped ranks (0 on a clean run)."""
        return (
            0 if self.fault_stats is None else self.fault_stats.recovery_messages
        )

    @property
    def peak_memory_words(self) -> int:
        """Largest per-processor footprint: owned blocks + transient
        receive buffers.  The 2D memory-scalability premise
        (M = O(n²/P), Section 1) demands this stay O(n²/P + n·b)."""
        return max(
            sum(int(v.size) for v in p.store.values()) + p.peak_buffer_words
            for p in self.network.processors
        )


def _buddy(rank: int, P: int) -> int:
    """The rank holding ``rank``'s checkpoints: its grid successor."""
    return (rank + 1) % P


def _checkpoint(
    network: Network,
    rank: int,
    keys,
    stats: FaultStats,
) -> None:
    """Send copies of ``rank``'s blocks under ``keys`` to its buddy.

    One bundled message (the same batching discipline as the panel
    broadcasts); charged like any other send, tallied as checkpoint
    overhead.  The buddy files the copies under the owner's rank.
    """
    proc = network[rank]
    blocks = {k: proc.store[k].copy() for k in keys if k in proc.store}
    if not blocks:
        return
    words = sum(int(v.size) for v in blocks.values())
    buddy = _buddy(rank, network.P)
    network.send(rank, buddy, words)
    network[buddy].ckpt.setdefault(rank, {}).update(blocks)
    stats.checkpoint_words += words
    stats.checkpoint_messages += 1


def _checkpointing(
    checkpoint: "bool | None", injector: "FaultInjector | None", P: int
) -> bool:
    """Whether a pxpotrf/SUMMA run buddy-checkpoints its rounds.

    By default exactly when the plan schedules fail-stops; forcing it
    off under fail-stops, or on with fewer than 2 processors, is an
    error.
    """
    failstops = injector is not None and bool(injector.plan.failstops)
    on = failstops if checkpoint is None else bool(checkpoint)
    if failstops and not on:
        raise ValidationError(
            "fault plan schedules fail-stops but checkpointing is disabled; "
            "a failed rank could never be recovered"
        )
    if on and P < 2:
        raise ValidationError("buddy checkpointing needs at least 2 processors")
    return on


def _recover(network: Network, rank: int, stats: FaultStats) -> None:
    """Rebuild a fail-stopped rank from its buddy's checkpoint.

    The rank restarts empty; the buddy streams back its
    end-of-last-round state in one bundled message.  Because the rank
    also *held* checkpoints (for its predecessor) that died with it,
    the predecessor re-checkpoints its current state afterwards —
    strict state loss, no free lunches.  All traffic is charged to the
    ordinary counters and tallied as recovery overhead.
    """
    P = network.P
    buddy = _buddy(rank, P)
    network.fail(rank)
    network.restart(rank)
    saved = network[buddy].ckpt.get(rank, {})
    words = sum(int(v.size) for v in saved.values())
    network.send(buddy, rank, words)
    network[rank].store.update({k: v.copy() for k, v in saved.items()})
    stats.recovery_words += words
    stats.recovery_messages += 1
    # the checkpoints this rank held for its predecessor died with it
    prev = (rank - 1) % P
    if prev != rank:
        prev_blocks = {
            k: v.copy() for k, v in network[prev].store.items()
        }
        pwords = sum(int(v.size) for v in prev_blocks.values())
        network.send(prev, rank, pwords)
        network[rank].ckpt[prev] = prev_blocks
        stats.recovery_words += pwords
        stats.recovery_messages += 1


def pxpotrf(
    a: np.ndarray,
    block: int,
    grid: ProcessorGrid | int,
    *,
    alpha: float = 1.0,
    beta: float = 1.0,
    gamma: float = 0.0,
    observe_spans: bool = False,
    faults: "FaultPlan | None" = None,
    checkpoint: bool | None = None,
    guard=None,
    abft: "AbftConfig | dict | bool | None" = None,
) -> ParallelRunResult:
    """Run Algorithm 9 on a fresh simulated network.

    Parameters
    ----------
    a:
        Symmetric positive definite matrix.
    block:
        Distribution/algorithm block size ``b``.
    grid:
        A :class:`ProcessorGrid`, or an integer P (perfect square)
        for the paper's square grid.
    alpha, beta, gamma:
        Per-message, per-word, and per-flop costs of the simulated
        machine (only the critical-path *time* depends on them; the
        word/message counts do not).
    observe_spans:
        If true, attach a span recorder to the network and record one
        ``panel`` span per step with children for each of the five
        sub-steps; the tree is returned as the result's ``profile``.
        Counters are read-only snapshots, so the measured counts are
        identical either way.
    faults:
        A :class:`~repro.faults.FaultPlan` to inject; panel rounds are
        the plan's fail-stop rounds.  ``None`` or an empty plan keeps
        every counter bit-identical to the historical failure-free
        run.
    checkpoint:
        Force buddy checkpointing on/off; by default it is enabled
        exactly when the plan schedules fail-stops.  Requires P ≥ 2.
    guard:
        Optional :class:`~repro.serving.budget.BudgetGuard`; every
        transmission and compute call reports its cost to it, and the
        run aborts with
        :class:`~repro.serving.budget.BudgetExceeded` when a cap is
        crossed.  ``None`` keeps the unmetered fast path.
    abft:
        Checksum protection (an :class:`~repro.abft.AbftConfig`, a
        config dict, or ``True``): every broadcast payload travels
        checksum-sealed through the attempt's
        :class:`~repro.abft.Channel`; receivers verify on open,
        correct a single silently flipped element in place, and a
        double fault moves the :class:`~repro.abft.AbftLadder` to a
        fresh network under an attempt-salted schedule
        (``max_attempts`` bound).  Checksum words ride the same
        broadcasts and summing flops go through the per-rank compute
        clocks; the result's ``abft`` record carries the counter group
        and a factor attestation digest.

    Returns a :class:`ParallelRunResult` whose ``L`` satisfies
    ``L·Lᵀ = a`` — under fail-stop faults too (checkpoint recovery
    reconstructs lost state exactly).
    """
    ladder = AbftLadder.coerce(abft, faults)
    attempt = partial(
        _pxpotrf_once, a, block, grid, alpha=alpha, beta=beta, gamma=gamma,
        observe_spans=observe_spans, faults=faults, checkpoint=checkpoint,
        guard=guard, ladder=ladder,
    )
    return attempt() if ladder is None else ladder.run(attempt)


def _pxpotrf_once(
    a, block, grid, *, alpha, beta, gamma, observe_spans, faults, checkpoint,
    guard, ladder: "AbftLadder | None",
) -> ParallelRunResult:
    """One attempt of :func:`pxpotrf` on a fresh simulated network."""
    if isinstance(grid, int):
        grid = ProcessorGrid.square(grid)
    check_positive_int("block", block)
    check_finite("a", a)
    network = Network(grid.size, alpha=alpha, beta=beta, gamma=gamma)
    injector = network.attach_faults(faults)
    network.attach_guard(guard)
    ckpt_on = _checkpointing(checkpoint, injector, grid.size)
    stats = injector.stats if injector is not None else FaultStats()
    recorder = observe(network, name="pxpotrf") if observe_spans else None
    prof = network.profiler
    dist = BlockCyclicMatrix(a, block, grid, network)
    nb = dist.nblocks
    # Every broadcast payload goes through the channel: sealed with its
    # exact checksums when protected, so a receiver heals a silently
    # flipped element (or raises) before the block reaches any update.
    channel = Channel(network, ladder)

    if ckpt_on:
        # round "-1" checkpoint: every rank's initial blocks, so a rank
        # fail-stopping at round 0 is recoverable too
        with prof.span("checkpoint", J=-1):
            for rank in range(network.P):
                _checkpoint(
                    network, rank, list(network[rank].store.keys()), stats
                )

    for J in range(nb):
        # fail-stops fire at round boundaries: the rank lost everything
        # after finishing round J-1, which is exactly the state its
        # buddy checkpointed — recover before any round-J traffic
        if injector is not None:
            for rank in injector.failstops_due(J):
                with prof.span("recover", J=J, rank=rank):
                    _recover(network, rank, stats)

        jc = J % grid.cols
        w = dist.block_dim(J)
        diag_owner = dist.owner(J, J)
        dirty: dict[int, set] = defaultdict(set)

        with prof.span("panel", J=J):
            # -- 1. local factorization of the diagonal block --------------
            with prof.span("potf2"):
                owner_proc = network[diag_owner]
                ljj = dense_cholesky(
                    owner_proc.store[("A", J, J)], stage=f"pxpotrf panel J={J}"
                )
                owner_proc.store[("A", J, J)] = ljj
                network.compute(diag_owner, cholesky_flops(w))
                dirty[diag_owner].add(("A", J, J))

            if J == nb - 1:
                break  # no trailing work after the last panel

            # -- 2. broadcast the factor down the owning grid column -------
            with prof.span("bcast-diag"):
                payload = channel.seal(diag_owner, ljj)
                network.broadcast(
                    diag_owner,
                    grid.col_group(jc),
                    words=w * (w + 1) // 2 + channel.overhead(payload),
                    payload=payload,
                    key=("diag", J),
                )

            # -- 3. panel solves + bundled row broadcasts --------------------
            with prof.span("panel-solve"):
                panel_by_owner: dict[int, list[int]] = defaultdict(list)
                for I in range(J + 1, nb):
                    panel_by_owner[dist.owner(I, J)].append(I)
                for rank, rows in sorted(panel_by_owner.items()):
                    proc = network[rank]
                    ljj_local = channel.open(rank, ("diag", J))
                    bundle: dict = {}
                    for I in rows:
                        lij = solve_lower_transposed_right(
                            proc.store[("A", I, J)], ljj_local
                        )
                        proc.store[("A", I, J)] = lij
                        network.compute(rank, trsm_flops(dist.block_dim(I), w))
                        bundle[I] = channel.seal(rank, lij)
                        dirty[rank].add(("A", I, J))
                    r = grid.position(rank)[0]
                    network.broadcast(
                        rank,
                        grid.row_group(r),
                        words=channel.size(bundle.values()),
                        payload=bundle,
                        key=("panelrow", J, r),
                    )

            # -- 4. bundled re-broadcasts down the trailing grid columns -----
            with prof.span("bcast-panel"):
                diag_by_owner: dict[int, list[int]] = defaultdict(list)
                for l in range(J + 1, nb):
                    diag_by_owner[dist.owner(l, l)].append(l)
                for rank, diags in sorted(diag_by_owner.items()):
                    r, c = grid.position(rank)
                    # forward the received payloads unopened: this rank
                    # never *uses* the values, and a sealed envelope
                    # keeps protecting the payload through the re-hop
                    row_bundle = channel.received(rank, ("panelrow", J, r))
                    col_bundle = {l: row_bundle[l] for l in diags}
                    # key includes the source grid row: on non-square grids a
                    # column hosts several diagonal owners (one per grid row)
                    network.broadcast(
                        rank,
                        grid.col_group(c),
                        words=channel.size(col_bundle.values()),
                        payload=col_bundle,
                        key=("panelcol", J, c, r),
                    )

            # -- 5. trailing updates with received panel blocks ---------------
            # No sends interleave with the compute charges below, so the
            # per-rank flop totals are applied in one ``compute`` call
            # per rank: each call only advances that rank's own clock
            # additively, as one call per block would.
            flops_by_rank: "defaultdict[int, int]" = defaultdict(int)
            with prof.span("update"):
                for l in range(J + 1, nb):
                    for k in range(l, nb):
                        rank = dist.owner(k, l)
                        proc = network[rank]
                        lkj = channel.open(
                            rank, ("panelrow", J, grid.position(rank)[0]), k
                        )
                        llj = channel.open(
                            rank, ("panelcol", J, l % grid.cols, l % grid.rows), l
                        )
                        proc.store[("A", k, l)] = (
                            proc.store[("A", k, l)] - lkj @ llj.T
                        )
                        dirty[rank].add(("A", k, l))
                        dk, dl = dist.block_dim(k), dist.block_dim(l)
                        if k == l:
                            flops_by_rank[rank] += syrk_flops(dk, w)
                        else:
                            flops_by_rank[rank] += gemm_flops(dk, w, dl)
                for rank, flops in flops_by_rank.items():
                    network.compute(rank, flops)

            # -- 6. per-round buddy checkpoint of every modified block ------
            if ckpt_on:
                with prof.span("checkpoint", J=J):
                    for rank in sorted(dirty):
                        _checkpoint(network, rank, sorted(dirty[rank]), stats)

            channel.clear()

    L = dist.gather_lower()
    return ParallelRunResult(
        L=L,
        network=network,
        n=dist.global_n,
        block=block,
        P=grid.size,
        profile=None if recorder is None else recorder.profile(),
        fault_stats=stats if (injector is not None or ckpt_on) else None,
        abft=None if ladder is None else ladder.record(L),
    )
