"""Content-addressed on-disk cache for experiment results.

A typed view over :class:`~repro.util.store.EntryStore`: one entry per
:class:`~repro.experiments.spec.SpecPoint` at
``<cache-dir>/<key[:2]>/<key>.result``, keyed by the SHA-256 of the
code version plus the point's own key (:meth:`SpecPoint.key`):

* the **point** part means any change to the configuration — n, M,
  seed, params, verify flag — is a different key (spec-change
  invalidation is automatic);
* the **code version** part (:func:`~repro.util.store.code_version`)
  is a digest over every ``.py`` source file of the ``repro`` package,
  so editing any simulator/algorithm code invalidates the whole cache
  rather than serving stale counters.

The store's header line carries the key, the code version and the
SHA-256 of the payload.  The payload is two lines of canonical JSON:
the measurement, then ``{"attestation", "point", "wall_time"}`` (plus
``"producer"`` when a cluster shard wrote it).  ``attestation`` is the
SHA-256 of the measurement line, so a read checks the stored bytes
without re-encoding them.  The payload digest already covers every
byte; the attestation is the check behind it, which a measurement that
drifted under a re-stamped digest still fails (the "silent storage"
fault class of ``docs/FAULTS.md``).

Any damage — a truncated file, a flipped byte, a failed attestation, a
measurement that is not a mapping — is logged, counted under
``repro_cache_lookups_total{result="corrupt"}`` and treated as a miss:
the engine recomputes the point and the next ``put`` overwrites the
damaged file.  A failed write is logged and dropped (the store's one
failure policy), so neither damage nor an unwritable directory ever
costs a run.

The default location is ``$REPRO_CACHE_DIR`` or ``.repro-cache/`` next
to the repository root.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.experiments.spec import SpecPoint
from repro.observability.metrics import METRICS
from repro.util.store import (
    CORRUPT,
    DISK,
    MEMORY,
    MISS,
    EntryStore,
    canonical_json,
    code_version,
)

CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: ``repro_cache_lookups_total`` label of each store outcome (a memory
#: hit never reaches the disk tier, so it is not counted there).
_LOOKUP_LABEL = {DISK: "hit", MISS: "miss", CORRUPT: "corrupt"}


def measurement_attestation(measurement) -> str:
    """The attestation an entry stores for ``measurement``.

    SHA-256 of the measurement's canonical JSON, the line an entry
    stores it as; :meth:`ResultCache.put` hashes the line it writes
    and a read the line it reads, so neither encodes twice.
    """
    return hashlib.sha256(canonical_json(measurement)).hexdigest()


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` if set, else ``.repro-cache`` at the repo root."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    here = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.normpath(os.path.join(here, "..", "..", ".."))
    if os.path.isdir(repo):
        return os.path.join(repo, ".repro-cache")
    return os.path.join(os.getcwd(), ".repro-cache")


class ResultCache:
    """Persistent point → measurement store with hit/miss accounting.

    Parameters
    ----------
    directory:
        Root of the cache tree (created lazily on first ``put``).
    version:
        Code-version token mixed into every key; defaults to
        :func:`code_version`.  Tests inject fixed tokens to exercise
        invalidation without editing source files.
    """

    #: Capacity of the memory tier of decoded entries (none here).
    memory_entries = 0
    #: The producing shard, recorded in every entry this cache writes.
    producer: "str | None" = None

    def __init__(self, directory: str | os.PathLike, *, version: str | None = None):
        self.store = EntryStore(
            directory,
            suffix=".result",
            name="result",
            version=version,
            memory_entries=self.memory_entries,
        )

    @classmethod
    def default(cls) -> "ResultCache":
        """The cache at :func:`default_cache_dir`."""
        return cls(default_cache_dir())

    @property
    def directory(self) -> str:
        """Root of the cache tree."""
        return self.store.directory

    @property
    def version(self) -> str:
        """The code-version token mixed into every key."""
        return self.store.version

    @property
    def hits(self) -> int:
        """Lookups served, from memory or disk."""
        stats = self.store.stats()
        return stats[MEMORY] + stats[DISK]

    @property
    def misses(self) -> int:
        """Lookups that found no entry or a damaged one."""
        stats = self.store.stats()
        return stats[MISS] + stats[CORRUPT]

    def key_for(self, point: SpecPoint) -> str:
        """Content-address of a point under the current code version."""
        return hashlib.sha256((self.version + point.key()).encode("utf-8")).hexdigest()

    def path_for(self, point: SpecPoint) -> str:
        """On-disk path the point's entry lives at."""
        return self.store.path(self.key_for(point))

    def get(self, point: SpecPoint) -> dict | None:
        """The entry for ``point``; ``None`` (a miss) if absent or damaged.

        An entry is ``{"measurement", "point", "wall_time",
        "attestation"}`` plus ``"producer"`` if a shard wrote it.
        """
        entry, outcome = self.store.get(self.key_for(point), self._decode)
        self._count(outcome, entry)
        return entry

    def _decode(self, payload: bytes) -> dict:
        line, _, rest = payload.partition(b"\n")
        entry, measurement = json.loads(rest), json.loads(line)
        if not isinstance(entry, dict) or not isinstance(measurement, dict):
            self._damaged("torn")
            raise ValueError("entry holds no measurement mapping")
        attestation = entry.get("attestation")
        if attestation is not None and attestation != hashlib.sha256(line).hexdigest():
            self._damaged("attestation")
            raise ValueError("measurement fails its attestation")
        entry["measurement"] = measurement
        return entry

    def _damaged(self, kind: str) -> None:
        """Hook for a digest-valid entry the decode rejects (``torn`` or
        ``attestation``); the store counts and logs it either way."""

    def _count(self, outcome: str, entry: "dict | None") -> None:
        if outcome in _LOOKUP_LABEL:
            METRICS.counter(
                "repro_cache_lookups_total", result=_LOOKUP_LABEL[outcome]
            ).inc()

    def put(self, point: SpecPoint, measurement, wall_time: float) -> str | None:
        """Store a computed measurement; returns the path written.

        ``measurement`` may be a :class:`~repro.results.Measurement`
        (serialized via ``to_dict``) or an already-serialized mapping.
        A write that fails is logged and dropped (``None``): a lost
        entry costs one recomputation, never the run.
        """
        serialized = (
            measurement.to_dict()
            if hasattr(measurement, "to_dict")
            else dict(measurement)
        )
        line = canonical_json(serialized)
        entry = {
            "attestation": hashlib.sha256(line).hexdigest(),
            "point": point.to_dict(),
            "wall_time": float(wall_time),
        }
        if self.producer is not None:
            entry["producer"] = self.producer
        payload = line + b"\n" + canonical_json(entry)
        entry["measurement"] = serialized
        return self.store.put(self.key_for(point), entry, payload)

    def __len__(self) -> int:
        """Number of result entries currently on disk (all versions).

        Only ``<key[:2]>/<key>.result`` files count, so the schedule
        tier kept at ``<cache-dir>/schedules`` and result entries of
        older formats are never counted.
        """
        return len(self.store)


__all__ = [
    "ResultCache",
    "code_version",
    "default_cache_dir",
    "measurement_attestation",
    "CACHE_DIR_ENV",
]
