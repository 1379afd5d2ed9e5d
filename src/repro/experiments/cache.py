"""Content-addressed on-disk cache for experiment results.

A cache entry is one JSON file per :class:`~repro.experiments.spec.SpecPoint`,
addressed by ``sha256(point + code version)``:

* the **point** part means any change to the configuration — n, M,
  seed, params, verify flag — is a different key (spec-change
  invalidation is automatic);
* the **code version** part is a digest over every ``.py`` source file
  of the ``repro`` package, so editing any simulator/algorithm code
  invalidates the whole cache rather than serving stale counters.

Layout on disk::

    <cache-dir>/<key[:2]>/<key>.json

Each file holds ``{"key", "code_version", "point", "measurement",
"wall_time", "created", "digest"}``.  Writes are atomic (temp file +
rename), so a concurrent reader never sees a torn entry.  ``digest`` is
a SHA-256 over the canonical JSON of the rest of the entry: a reader
recomputes it on every ``get``, so bit-level corruption (truncated
file, flipped byte, hand-edited counters) is *detected* rather than
served — the entry is logged, counted under the ``corrupt`` metric
label, and treated as a miss, which means the engine recomputes the
point and the next ``put`` overwrites the damaged file.

The default location is ``$REPRO_CACHE_DIR`` or ``.repro-cache/`` next
to the repository root.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from functools import lru_cache

from repro.experiments.spec import SpecPoint
from repro.observability.metrics import METRICS
from repro.util.serialization import atomic_write_json

CACHE_DIR_ENV = "REPRO_CACHE_DIR"

logger = logging.getLogger("repro.experiments.cache")


def entry_digest(entry: dict) -> str:
    """SHA-256 over the canonical JSON of an entry (sans its digest)."""
    body = {k: v for k, v in entry.items() if k != "digest"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of the ``repro`` package sources (plus its version string).

    Computed once per process; any change to any ``.py`` file under
    the installed package changes the digest and thereby every cache
    key.
    """
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    h = hashlib.sha256()
    for dirpath, _dirnames, filenames in sorted(os.walk(root)):
        for fn in sorted(filenames):
            if not fn.endswith(".py"):
                continue
            path = os.path.join(dirpath, fn)
            h.update(os.path.relpath(path, root).encode("utf-8"))
            with open(path, "rb") as fh:
                h.update(fh.read())
    h.update(repro.__version__.encode("utf-8"))
    return h.hexdigest()[:16]


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

    def __init__(self, directory: str | os.PathLike, *, version: str | None = None):
        self.directory = str(directory)
        self.version = version if version is not None else code_version()
        self.hits = 0
        self.misses = 0

    @classmethod
    def default(cls) -> "ResultCache":
        """The cache at :func:`default_cache_dir`."""
        return cls(default_cache_dir())

    def key_for(self, point: SpecPoint) -> str:
        """Content-address of a point under the current code version."""
        blob = json.dumps(
            {"version": self.version, "point": point.to_dict()},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def path_for(self, point: SpecPoint) -> str:
        """On-disk path the point's entry lives at."""
        key = self.key_for(point)
        return os.path.join(self.directory, key[:2], f"{key}.json")

    def get(self, point: SpecPoint) -> dict | None:
        """Load the entry for ``point``; ``None`` (a miss) if absent/corrupt.

        Every hit is digest-verified: an entry whose stored ``digest``
        is missing or does not match its recomputed content hash is
        corrupt (truncation, bit flip, manual edit) and is demoted to a
        logged miss — the caller recomputes and the write-back
        overwrites the damaged file.  Corruption never crashes a run.
        """
        path = self.path_for(point)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
            if not isinstance(entry, dict) or "measurement" not in entry:
                raise ValueError("malformed cache entry")
        except FileNotFoundError:
            self.misses += 1
            METRICS.counter("repro_cache_lookups_total", result="miss").inc()
            return None
        except (OSError, ValueError):
            self.misses += 1
            METRICS.counter("repro_cache_lookups_total", result="corrupt").inc()
            logger.warning(
                "unreadable cache entry at %s; treating as a miss", path
            )
            return None
        if entry.get("digest") != entry_digest(entry):
            self.misses += 1
            METRICS.counter("repro_cache_lookups_total", result="corrupt").inc()
            logger.warning(
                "cache entry digest mismatch at %s (corrupt or tampered); "
                "treating as a miss",
                path,
            )
            return None
        self.hits += 1
        METRICS.counter("repro_cache_lookups_total", result="hit").inc()
        return entry

    def put(
        self,
        point: SpecPoint,
        measurement,
        wall_time: float,
        *,
        extra: dict | None = None,
    ) -> str:
        """Atomically store a computed measurement; returns the path.

        ``measurement`` may be a :class:`~repro.results.Measurement`
        (serialized via ``to_dict``) or an already-serialized mapping.
        ``extra`` is an optional JSON-ready provenance dict stored
        verbatim under the entry's ``"extra"`` key (and covered by its
        digest) — the serving cluster's shared result store records the
        producing shard there so cross-shard hits are attributable.
        """
        path = self.path_for(point)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        serialized = (
            measurement.to_dict()
            if hasattr(measurement, "to_dict")
            else dict(measurement)
        )
        entry = {
            "key": self.key_for(point),
            "code_version": self.version,
            "point": point.to_dict(),
            "measurement": serialized,
            "wall_time": float(wall_time),
            "created": time.time(),
        }
        if extra:
            entry["extra"] = dict(extra)
        entry["digest"] = entry_digest(entry)
        return atomic_write_json(path, entry, sort_keys=True)

    def __len__(self) -> int:
        """Number of entries currently on disk (all versions).

        Counts only ``<key[:2]>/<key>.json`` files, so the schedule
        tier kept at ``<cache-dir>/schedules`` (including entries of
        its old JSON format) is never counted as results.
        """
        if not os.path.isdir(self.directory):
            return 0
        return sum(
            name.endswith(".json")
            for shard in os.scandir(self.directory)
            if shard.is_dir() and len(shard.name) == 2
            for name in os.listdir(shard.path)
        )


__all__ = [
    "ResultCache",
    "code_version",
    "default_cache_dir",
    "entry_digest",
    "CACHE_DIR_ENV",
]
