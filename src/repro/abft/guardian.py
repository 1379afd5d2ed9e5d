"""The attempt ladder and the checksum guardian.

:class:`AbftLadder` is the one retry ladder of every protected run:
``run_algorithm``, ``pxpotrf`` and ``summa`` all retry through it.

One :class:`ChecksumGuardian` is armed on the machine
(``machine.abft``) for the duration of one protected ``run_algorithm``
attempt.  It tiles the tracked matrix into ``t × t`` protection tiles,
each carrying exact row/column bit-checksums
(:mod:`repro.abft.checksums`), and advances through *checkpoint
boundaries*:

1. **commit** — the algorithm (via its ``phase`` hooks) declares the
   rectangle it legitimately modified since the last boundary; every
   overlapping tile's checksums are recomputed and written back;
2. **inject** — the seeded silent-fault schedule
   (``FaultPlan.silent`` / ``silent_double``) decides, as a pure
   SHA-256 function of ``(seed, attempt, boundary)``, whether to flip
   a bit somewhere in the matrix — modelling corruption that struck
   the resident working set during the preceding compute phase;
3. **verify** — every tile is re-summed against its stored checksums.
   A single corrupted element is localized by its (row, column)
   syndrome pair and corrected bit-identically in place; a double
   fault in one tile raises
   :class:`~repro.abft.SilentCorruptionError`, which the registry
   escalates to the ladder (snapshot restore + attempt-salted re-run).

Because injection happens *only* at boundaries and every boundary
verifies immediately, no corruption ever flows into a compute phase —
the factor an ABFT run returns is exactly the factor a clean run
produces.  Algorithms without interior ``phase`` hooks (the naïve
family) still get initialize/finalize protection: their silent strikes
land only at those two boundaries.

Charging: every checksum vector lives in a reserved slow-memory region
and its traffic goes through the machine's *normal* chokepoints —
commits ``allocate + write + release`` the tile's ``h + w`` checksum
words, verifies ``read + release`` them, and the re-summing arithmetic
is charged as flops.  Re-reading the tile data itself is not
re-charged: verification scrubs data the algorithm's own transfers
already paid for (see MODEL.md).  All overhead is additionally
reported in the separate ``abft`` counter group
(:class:`AbftStats`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Mapping

import numpy as np

from repro.abft.checksums import (
    SilentCorruptionError,
    block_checksums,
    factor_attestation,
    flip_bit,
    verify_block,
)
from repro.faults.plan import FaultPlan, fault_unit
from repro.util.intervals import IntervalSet


def default_tile(M: int, n: int) -> int:
    """The default protection-tile size: the natural block ``√(M/3)``.

    Matches :func:`repro.sequential.lapack_blocked.default_block_size`
    so the checksum-vector overhead per tile (``2t`` words against a
    ``t²``-word tile transfer) is the lower-order ``O(1/t)`` the
    Huang–Abraham construction promises.
    """
    t = max(2, math.isqrt(max(M, 12) // 3))
    return max(1, min(int(n), t))


@dataclass(frozen=True)
class AbftConfig:
    """Per-run ABFT protection settings.

    Parameters
    ----------
    block:
        Protection-tile size; ``None`` derives :func:`default_tile`
        from the machine at arming time.
    max_attempts:
        Bound on end-to-end re-runs after uncorrectable double faults
        before the :class:`~repro.abft.SilentCorruptionError`
        propagates to the caller.
    plan:
        Optional silent-fault schedule carrier.  Normally the silent
        probabilities ride the run's ordinary
        :class:`~repro.faults.FaultPlan`; this field exists because a
        silent-*only* plan arms neither the machine's read-fault
        injector nor the network transport, so the guardian would
        otherwise never see it.
    """

    block: "int | None" = None
    max_attempts: int = 3
    plan: "FaultPlan | None" = None

    def __post_init__(self) -> None:
        if self.block is not None:
            object.__setattr__(self, "block", int(self.block))
            if self.block < 1:
                raise ValueError(f"block must be >= 1, got {self.block}")
        if int(self.max_attempts) < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        object.__setattr__(self, "max_attempts", int(self.max_attempts))

    @classmethod
    def coerce(cls, value: "AbftConfig | Mapping | bool | None") -> "AbftConfig | None":
        """Normalize the user-facing ``abft=`` argument.

        ``None``/``False`` → off; ``True`` → defaults; a mapping →
        :meth:`from_dict`; a config → itself.
        """
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        raise TypeError(f"cannot interpret abft={value!r}")

    def with_plan(self, plan: "FaultPlan | None") -> "AbftConfig":
        """This config carrying ``plan`` (existing plan wins)."""
        if self.plan is not None or plan is None:
            return self
        return replace(self, plan=plan)

    # -- serialization (the plan rides the point's ``faults`` field) ----

    def to_dict(self) -> dict:
        """JSON-ready canonical dict (spec/cache-key input).

        Deliberately excludes :attr:`plan` — in specs the silent
        schedule is part of the point's ``faults`` field, and keying
        it twice would let the two copies drift.
        """
        return {"block": self.block, "max_attempts": self.max_attempts}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "AbftConfig":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in dict(d).items() if k in known})

    def freeze(self) -> tuple:
        """Hashable canonical form (spec points embed this)."""
        return tuple(sorted(self.to_dict().items()))

    @classmethod
    def from_frozen(cls, frozen) -> "AbftConfig":
        return cls.from_dict({k: v for k, v in frozen})


@dataclass
class AbftStats:
    """The ``abft`` counter group of one protected run.

    ``checksum_*`` is the overhead the protection itself charged
    through the machine/network chokepoints during the attempt the
    run's counters report (the ladder zeroes it when an attempt
    starts); the injection/detection, ``boundaries`` and ``attempts``
    counters span the whole ladder and describe the realized
    silent-fault schedule and what the syndromes did about it.
    """

    injected_single: int = 0
    injected_double: int = 0
    detected: int = 0
    corrected: int = 0
    double_faults: int = 0
    attempts: int = 1
    boundaries: int = 0
    checksum_words: int = 0
    checksum_messages: int = 0
    checksum_flops: int = 0
    verified: bool = False

    def any_injected(self) -> bool:
        return bool(self.injected_single or self.injected_double)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "AbftStats":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in dict(d).items() if k in known})


class SilentInjector:
    """Seeded silent-fault decisions, pure functions of identity.

    Every decision hashes ``(seed, kind, attempt, identity)`` through
    :func:`~repro.faults.plan.fault_unit` — content-independent, so
    schedules are byte-identical across runs, processes, and
    ``jobs=1`` vs ``jobs=N``.  The ``attempt`` salt is what makes
    :class:`AbftLadder` terminate: a re-run after an
    uncorrectable fault draws a *different* (deterministic) schedule
    instead of replaying the same catastrophe forever.
    """

    def __init__(self, plan: "FaultPlan | None", attempt: int = 0) -> None:
        self.plan = plan
        self.attempt = int(attempt)

    @property
    def armed(self) -> bool:
        return self.plan is not None and self.plan.has_silent()

    def _unit(self, kind: str, *parts: object) -> float:
        return fault_unit(self.plan.seed, kind, self.attempt, *parts)

    def _strikes(
        self, parts: tuple, h: int, w: int, tile: int
    ) -> "list[tuple[int, int, int]]":
        """The ``(i, j, bit)`` flips for one boundary/payload identity."""
        if not self.armed:
            return []
        if self._unit("silent", *parts) >= self.plan.silent:
            return []
        i = min(h - 1, int(self._unit("silent-i", *parts) * h))
        j = min(w - 1, int(self._unit("silent-j", *parts) * w))
        bit = min(63, int(self._unit("silent-bit", *parts) * 64))
        strikes = [(i, j, bit)]
        double = (
            self.plan.silent_double
            and self._unit("silent-double", *parts) < self.plan.silent_double
        )
        if double:
            # the second flip lands in the SAME protection tile, which
            # is what makes the pair uncorrectable by construction
            r0, c0 = (i // tile) * tile, (j // tile) * tile
            th = min(tile, h - r0)
            tw = min(tile, w - c0)
            if th * tw > 1:
                i2 = r0 + min(th - 1, int(self._unit("silent-i2", *parts) * th))
                j2 = c0 + min(tw - 1, int(self._unit("silent-j2", *parts) * tw))
                if (i2, j2) == (i, j):
                    j2 = c0 + (j2 - c0 + 1) % tw
                    if (i2, j2) == (i, j):
                        i2 = r0 + (i2 - r0 + 1) % th
                bit2 = min(63, int(self._unit("silent-bit2", *parts) * 64))
                strikes.append((i2, j2, bit2))
        return strikes

    def matrix_strikes(
        self, boundary: int, n: int, tile: int
    ) -> "list[tuple[int, int, int]]":
        """Strikes against the tracked matrix at checkpoint ``boundary``."""
        return self._strikes(("matrix", boundary), n, n, tile)

    def payload_strikes(
        self, key: tuple, h: int, w: int
    ) -> "list[tuple[int, int, int]]":
        """Strikes against one delivered message payload.

        Keyed by the message's logical identity (broadcast key +
        receiving rank), never by delivery order — the transport's
        detection path (drops/corrupt draws) is untouched.
        """
        return self._strikes(("payload",) + tuple(key), h, w, max(h, w))


class AbftLadder:
    """The attempt ladder of one protected run: the config, the resolved
    silent plan, the shared :class:`AbftStats` and the attempt number.

    ``plan`` is the run's own fault plan; a plan carried on the config
    wins (a silent-only plan arms neither machine nor transport, so
    the config is how it reaches the ladder).  Each attempt calls
    :meth:`start` on a reset machine or a fresh network, which zeroes
    the ``checksum_*`` overhead so the group describes the attempt the
    counters report; every other counter spans the whole ladder.
    """

    def __init__(self, config: AbftConfig, plan: "FaultPlan | None" = None) -> None:
        self.config = config
        self.plan = config.plan or plan
        self.stats = AbftStats()
        self.attempt = 0

    @classmethod
    def coerce(
        cls, abft: "AbftConfig | Mapping | bool | None", plan: "FaultPlan | None" = None
    ) -> "AbftLadder | None":
        """A ladder for the user-facing ``abft=`` argument, ``None`` when off."""
        config = AbftConfig.coerce(abft)
        return None if config is None else cls(config, plan)

    def start(self) -> SilentInjector:
        """Open the current attempt; returns its attempt-salted injector."""
        stats = self.stats
        stats.attempts = self.attempt + 1
        stats.checksum_words = stats.checksum_messages = stats.checksum_flops = 0
        return SilentInjector(self.plan, self.attempt)

    def retry(self, exc: SilentCorruptionError) -> None:
        """Move past a double fault, or re-raise it once attempts are spent."""
        self.attempt += 1
        if self.attempt >= self.config.max_attempts:
            raise exc

    def run(self, once):
        """Call ``once()``, one attempt on fresh state, until an attempt
        finishes without a double fault."""
        while True:
            try:
                return once()
            except SilentCorruptionError as exc:
                self.retry(exc)

    def record(self, factor) -> dict:
        """The result's ``abft`` group: config, stats, factor attestation."""
        self.stats.verified = True
        return {
            "config": self.config.to_dict(),
            "stats": self.stats.to_dict(),
            "attestation": factor_attestation(factor),
        }


class ChecksumGuardian:
    """Tile checksums + checkpoint boundaries for one protected attempt.

    Constructing it on the (reset) machine opens the ladder's attempt.
    """

    def __init__(self, matrix, ladder: AbftLadder) -> None:
        self.matrix = matrix
        self.machine = matrix.machine
        self.stats = ladder.stats
        self.injector = ladder.start()
        n = int(matrix.layout.n)
        self.n = n
        self.t = ladder.config.block or default_tile(self.machine.M, n)
        self.nt = -(-n // self.t)
        # one (rows, cols) checksum pair per tile; edge tiles use a prefix
        self._rows = np.zeros((self.nt, self.nt, self.t), dtype=np.uint64)
        self._cols = np.zeros((self.nt, self.nt, self.t), dtype=np.uint64)
        #: slow-memory region holding the checksum vectors — real
        #: addresses so their traffic is modeled like any other data
        self._cs_base = self.machine.reserve_address_space(
            self.nt * self.nt * 2 * self.t
        )
        self.depth = 0
        self.boundary = 0

    # -- tiling ---------------------------------------------------------

    def _bounds(self, bi: int, bj: int) -> "tuple[int, int, int, int]":
        t = self.t
        return (
            bi * t,
            min(self.n, (bi + 1) * t),
            bj * t,
            min(self.n, (bj + 1) * t),
        )

    def _cs_ivs(self, bi: int, bj: int, h: int, w: int) -> IntervalSet:
        start = self._cs_base + (bi * self.nt + bj) * 2 * self.t
        return IntervalSet.single(start, start + h + w)

    def _charge(self, ivs: IntervalSet, *, write: bool, flops: int) -> None:
        machine = self.machine
        if write:
            # freshly computed checksums: allocate, write back, evict
            machine.allocate(ivs)
            machine.write(ivs)
            machine.release(ivs)
        else:
            machine.read(ivs)
            machine.release(ivs)
        machine.add_flops(flops)
        self.stats.checksum_words += ivs.words
        self.stats.checksum_messages += ivs.messages(cap=machine.M)
        self.stats.checksum_flops += flops

    # -- the three boundary steps --------------------------------------

    def _commit_tile(self, bi: int, bj: int) -> None:
        r0, r1, c0, c1 = self._bounds(bi, bj)
        h, w = r1 - r0, c1 - c0
        rows, cols = block_checksums(self.matrix.data[r0:r1, c0:c1])
        self._rows[bi, bj, :h] = rows
        self._cols[bi, bj, :w] = cols
        self._charge(self._cs_ivs(bi, bj, h, w), write=True, flops=2 * h * w)

    def commit(self, r0: int, r1: int, c0: int, c1: int) -> None:
        """Refresh the checksums of every tile the rect touches."""
        if r1 <= r0 or c1 <= c0:
            return
        t = self.t
        for bi in range(max(0, r0 // t), -(-min(r1, self.n) // t)):
            for bj in range(max(0, c0 // t), -(-min(c1, self.n) // t)):
                self._commit_tile(bi, bj)

    def _inject(self) -> None:
        strikes = self.injector.matrix_strikes(self.boundary, self.n, self.t)
        for i, j, bit in strikes:
            flip_bit(self.matrix.data, i, j, bit)
        if len(strikes) == 1:
            self.stats.injected_single += 1
        elif len(strikes) == 2:
            self.stats.injected_double += 1

    def verify_all(self) -> int:
        """Re-sum every tile; correct single faults; escalate doubles."""
        corrected = 0
        for bi in range(self.nt):
            for bj in range(self.nt):
                r0, r1, c0, c1 = self._bounds(bi, bj)
                h, w = r1 - r0, c1 - c0
                block = self.matrix.data[r0:r1, c0:c1]
                self._charge(
                    self._cs_ivs(bi, bj, h, w), write=False, flops=2 * h * w
                )
                try:
                    fixed = verify_block(
                        block,
                        self._rows[bi, bj, :h],
                        self._cols[bi, bj, :w],
                        tile=(bi, bj),
                    )
                except SilentCorruptionError:
                    self.stats.detected += 1
                    self.stats.double_faults += 1
                    raise
                if fixed:
                    self.stats.detected += fixed
                    self.stats.corrected += fixed
                    corrected += fixed
        return corrected

    def checkpoint(self) -> None:
        """One inject + verify boundary (commit is the caller's part)."""
        self._inject()
        self.boundary += 1
        self.stats.boundaries += 1
        self.verify_all()

    # -- the algorithm-facing hooks ------------------------------------

    def enter(self) -> None:
        """A recursive algorithm entered one recursion level."""
        self.depth += 1

    def exit(self) -> None:
        self.depth -= 1

    def phase(self, r0: int, r1: int, c0: int, c1: int) -> None:
        """Block boundary: the algorithm finished modifying a rect.

        Recursive algorithms call this at every level; only depth-1
        calls act (the top level commits each child's whole footprint
        after the child returns), so the boundary schedule — and with
        it the injection schedule — is independent of recursion shape.
        """
        if self.depth > 1:
            return
        self.commit(r0, r1, c0, c1)
        self.checkpoint()

    def initialize(self) -> None:
        """Arm: checksum the whole input, then run one boundary."""
        self.commit(0, self.n, 0, self.n)
        self.checkpoint()

    def finalize(self) -> None:
        """Disarm: commit the final state, verify end-to-end."""
        self.commit(0, self.n, 0, self.n)
        self.checkpoint()


__all__ = [
    "AbftConfig",
    "AbftLadder",
    "AbftStats",
    "ChecksumGuardian",
    "SilentInjector",
    "default_tile",
]
