"""Algorithm-based fault tolerance: checksum-protected Cholesky.

Huang–Abraham row/column checksums over exact float64 *bit patterns*
(:mod:`~repro.abft.checksums`); one attempt ladder
(:class:`AbftLadder`) that ``run_algorithm``, ``pxpotrf`` and
``summa`` all retry through, with a per-attempt checkpoint guardian
for the sequential algorithms (:mod:`~repro.abft.guardian`); and one
sealed payload :class:`Channel` for the parallel drivers
(:mod:`~repro.abft.sealing`).  Armed via ``run_algorithm(...,
abft=...)`` / ``pxpotrf(..., abft=...)`` and a ``FaultPlan`` with
``silent > 0``; overhead is charged through the normal machine/network
chokepoints and reported as the ``abft`` counter group, whose
``checksum_*`` fields describe the attempt the counters report.
"""

from repro.abft.checksums import (
    SilentCorruptionError,
    bit_view,
    block_checksums,
    factor_attestation,
    flip_bit,
    verify_block,
)
from repro.abft.guardian import (
    AbftConfig,
    AbftLadder,
    AbftStats,
    ChecksumGuardian,
    SilentInjector,
    default_tile,
)
from repro.abft.sealing import Channel, SealedBlock, open_sealed, seal

__all__ = [
    "AbftConfig",
    "AbftLadder",
    "AbftStats",
    "Channel",
    "ChecksumGuardian",
    "SealedBlock",
    "SilentCorruptionError",
    "SilentInjector",
    "bit_view",
    "block_checksums",
    "default_tile",
    "factor_attestation",
    "flip_bit",
    "open_sealed",
    "seal",
    "verify_block",
]
