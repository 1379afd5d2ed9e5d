"""Checksum-sealed message payloads for the parallel drivers.

SUMMA and pxpotrf move blocks between ranks as raw arrays; the
reliable transport catches *detected* corruption — its own seeded
``corrupt`` draws perturb a payload and the stop-and-wait layer
retries — but a silent flip that bypasses that path would be computed
on as if it were data.  A :class:`SealedBlock` closes the gap: the
sender attaches the block's exact bit-checksums
(:func:`~repro.abft.checksums.block_checksums`), the receiver re-sums
on open, corrects a single flipped element from the syndrome pair, and
escalates doubles as :class:`~repro.abft.SilentCorruptionError`.

Both drivers reach every broadcast payload through one
:class:`Channel` per attempt: it seals, sizes, opens and clears, and
when the run is unprotected it passes raw arrays with zero checksum
words, so one driver body serves both modes.  The extra ``h + w``
checksum words ride the same broadcast the block does, and the
sender's summing and receiver's re-summing flops go through the
network's per-rank compute clock — lower-order against the ``h·w``
payload itself.

Silent payload strikes are injected at *open* time, keyed by the
message's logical identity (broadcast key + receiving rank), never by
delivery order — so the schedule is byte-identical however the
simulated delivery interleaves.  Because the simulated broadcast
aliases one payload object into every inbox, a struck receiver first
copies the block and flips the copy: corruption at one rank must never
leak into another rank's (or the sender's) view.
"""

from __future__ import annotations

import numpy as np

from repro.abft.checksums import block_checksums, flip_bit, verify_block
from repro.abft.guardian import AbftLadder, AbftStats, SilentInjector


class SealedBlock:
    """One block payload plus its exact row/column bit-checksums."""

    __slots__ = ("data", "row_sums", "col_sums")

    def __init__(self, data: np.ndarray) -> None:
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.row_sums, self.col_sums = block_checksums(self.data)

    @property
    def shape(self) -> "tuple[int, int]":
        return self.data.shape

    @property
    def size(self) -> int:
        """Payload words (the checksums are :attr:`overhead_words`)."""
        return self.data.size

    @property
    def overhead_words(self) -> int:
        """Checksum words carried on top of the payload (``h + w``)."""
        h, w = self.data.shape
        return h + w

    def __repr__(self) -> str:
        return f"SealedBlock(shape={self.data.shape})"


def seal(data: np.ndarray) -> SealedBlock:
    """Seal a block for transmission."""
    return SealedBlock(data)


def open_sealed(
    sealed: SealedBlock,
    *,
    injector: "SilentInjector | None" = None,
    stats: "AbftStats | None" = None,
    key: tuple = (),
) -> np.ndarray:
    """Verify (and if necessary heal) a sealed payload at the receiver.

    ``key`` is the message's logical identity — it seeds the silent
    strike decision and labels any escalation.  Returns the verified
    block; the returned array is a private copy only when a strike
    actually landed (the clean path stays zero-copy).
    """
    data = sealed.data
    h, w = data.shape
    strikes = (
        injector.payload_strikes(key, h, w)
        if injector is not None and injector.armed
        else []
    )
    if strikes:
        # the broadcast aliases this array into every inbox: flip a
        # private copy, never the shared payload
        data = np.array(data, copy=True)
        for i, j, bit in strikes:
            flip_bit(data, i, j, bit)
        if stats is not None:
            if len(strikes) == 1:
                stats.injected_single += 1
            else:
                stats.injected_double += 1
    try:
        fixed = verify_block(
            data, sealed.row_sums, sealed.col_sums, tile=("payload",) + key
        )
    except Exception:
        if stats is not None:
            stats.detected += 1
            stats.double_faults += 1
        raise
    if stats is not None:
        stats.boundaries += 1
        stats.checksum_words += sealed.overhead_words
        stats.checksum_messages += 1
        stats.checksum_flops += 2 * h * w
        if fixed:
            stats.detected += fixed
            stats.corrected += fixed
    if data is not sealed.data and np.array_equal(
        data.view(np.uint64), sealed.data.view(np.uint64)
    ):
        # A healed strike restored the exact original bits, so hand
        # back the *shared* payload object rather than the private
        # scratch copy: numpy special-cases aliased operands (``a @
        # a.T`` dispatches to syrk, distinct-buffer operands to gemm),
        # so preserving object identity with every other opener keeps
        # a corrected run bit-identical to a failure-free one.
        return sealed.data
    return data


class Channel:
    """The broadcast payloads of one parallel attempt.

    Built on the attempt's fresh network with the run's
    :class:`~repro.abft.AbftLadder`, which it starts; with
    ``ladder=None`` every method passes raw arrays through and no
    checksum word or flop is charged.
    """

    def __init__(self, network, ladder: "AbftLadder | None" = None) -> None:
        self.network = network
        self.ladder = ladder
        self.injector = None if ladder is None else ladder.start()
        self._opened: dict = {}

    def seal(self, rank: int, data: np.ndarray):
        """Seal one outgoing block, charging the summing flops to ``rank``."""
        if self.ladder is None:
            return data
        sealed = SealedBlock(data)
        h, w = sealed.shape
        self.network.compute(rank, 2 * h * w)
        self.ladder.stats.checksum_flops += 2 * h * w
        return sealed

    def overhead(self, payload) -> int:
        """Checksum words riding with one payload."""
        return 0 if self.ladder is None else payload.overhead_words

    def size(self, payloads) -> int:
        """Words a broadcast of ``payloads`` charges, checksums included."""
        return sum(p.size + self.overhead(p) for p in payloads)

    def received(self, rank: int, key: tuple):
        """What ``rank`` received under ``key``, still sealed (to forward)."""
        return self.network.processors[rank].inbox[key]

    def open(self, rank: int, key: tuple, idx: "int | None" = None) -> np.ndarray:
        """The verified block ``rank`` received under ``key`` (item ``idx``).

        Memoized per round, so a rank that uses one received block in
        several updates pays its ``2·h·w`` re-summing flops once.
        """
        payload = self.network.processors[rank].inbox[key]
        if idx is not None:
            payload = payload[idx]
        if self.ladder is None:
            return payload
        memo = (rank, key, idx)
        data = self._opened.get(memo)
        if data is None:
            ident = key + ((idx,) if idx is not None else ()) + (rank,)
            data = open_sealed(
                payload, injector=self.injector, stats=self.ladder.stats,
                key=ident,
            )
            h, w = data.shape
            self.network.compute(rank, 2 * h * w)
            self._opened[memo] = data
        return data

    def clear(self) -> None:
        """End a round: drop every inbox and the open memo."""
        self.network.clear_inboxes()
        self._opened.clear()


__all__ = ["Channel", "SealedBlock", "open_sealed", "seal"]
