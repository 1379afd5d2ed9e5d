"""One verified key → bytes store: the disk and memory tier of every cache.

The result cache (:mod:`repro.experiments.cache`), the cluster's shard
views (:mod:`repro.serving.store`) and the schedule cache
(:mod:`repro.schedule.cache`) are typed views over one
:class:`EntryStore`.  A view turns its values into payload bytes and
back; the store owns everything else:

* the path, ``<dir>/<key[:2]>/<key><suffix>``;
* the entry format: one line of canonical JSON
  ``{"digest", "key", "version"}``, then the payload, where ``digest``
  is the SHA-256 of the payload;
* the check: key, version and digest must match before the view's
  ``decode`` sees a byte;
* an optional in-memory LRU of decoded values;
* counted lookup outcomes (:data:`MEMORY`, :data:`DISK`, :data:`MISS`,
  :data:`CORRUPT`);
* the write: temp file, fsync, atomic rename
  (:func:`~repro.util.serialization.atomic_write_bytes`);
* one failure policy.  Damage of any kind — an unreadable file, a
  header for another key or code version, a digest mismatch, a payload
  the view's ``decode`` rejects — is a logged ``corrupt`` miss, and the
  caller's next ``put`` of the key overwrites it.  A failed write is
  logged, counted under ``repro_store_write_failures_total`` and
  dropped: the value still enters the memory tier, and the caller never
  sees the error, because a store write must never cost the job that
  produced the value.

Every key a view derives includes :func:`code_version`, so an edit to
any source file moves every lookup to fresh keys instead of serving
values computed by other code.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
from collections import OrderedDict
from functools import lru_cache
from typing import Callable

from repro.observability.metrics import METRICS
from repro.util.serialization import atomic_write_bytes

#: Lookup outcomes, counted by :meth:`EntryStore.stats`.
MEMORY, DISK, MISS, CORRUPT = "memory", "disk", "miss", "corrupt"

logger = logging.getLogger("repro.util.store")


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of the ``repro`` package sources (plus its version string).

    Computed once per process; any change to any ``.py`` file under
    the installed package changes the digest and thereby every key.
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


def canonical_json(obj) -> bytes:
    """Compact, key-sorted JSON: the one encoding entries are hashed in."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


class EntryStore:
    """Verified ``key → bytes`` entries on disk, plus a decoded-value LRU.

    Parameters
    ----------
    directory:
        Root of the entry tree (created on the first write), or
        ``None`` for a memory-only store.
    suffix:
        File suffix of an entry (``".sched"``, ``".result"``).
    name:
        The ``store`` label of ``repro_store_write_failures_total``.
    version:
        Code-version token every entry header carries; defaults to
        :func:`code_version`, resolved on first use.
    memory_entries:
        Capacity of the decoded-value tier (``0``: no memory tier).

    Thread-safe: a shard's worker threads share one store.
    """

    def __init__(
        self,
        directory: "str | os.PathLike | None",
        *,
        suffix: str,
        name: str,
        version: "str | None" = None,
        memory_entries: int = 0,
    ) -> None:
        self.directory = None if directory is None else str(directory)
        self.suffix = suffix
        self.name = name
        self._version = version
        self.memory_entries = int(memory_entries)
        self._memory: "OrderedDict[str, object]" = OrderedDict()
        self._lock = threading.Lock()
        self._counts = dict.fromkeys((MEMORY, DISK, MISS, CORRUPT), 0)

    @property
    def version(self) -> str:
        """The code-version token entries are written and checked with."""
        if self._version is None:
            self._version = code_version()
        return self._version

    def path(self, key: str) -> str:
        """Where the entry for ``key`` lives."""
        return os.path.join(self.directory, key[:2], key + self.suffix)

    def get(self, key: str, decode: Callable[[bytes], object]) -> tuple:
        """``(value, outcome)`` for ``key``; ``value`` is ``None`` unless
        the outcome is :data:`MEMORY` or :data:`DISK`.

        ``decode`` turns a verified payload into the view's value and
        raises ``ValueError`` on content it rejects (a ``corrupt``
        outcome, like any other damage).
        """
        with self._lock:
            value = self._memory.get(key)
            if value is not None:
                self._memory.move_to_end(key)
                self._counts[MEMORY] += 1
                return value, MEMORY
        value, outcome = self._load(key, decode)
        with self._lock:
            self._counts[outcome] += 1
            if value is not None:
                self._remember(key, value)
        return value, outcome

    def _load(self, key: str, decode) -> tuple:
        if self.directory is None:
            return None, MISS
        path = self.path(key)
        try:
            with open(path, "rb") as fh:
                head, _, payload = fh.read().partition(b"\n")
            header = json.loads(head)
            if (
                not isinstance(header, dict)
                or header.get("key") != key
                or header.get("version") != self.version
            ):
                raise ValueError("header names another key or code version")
            if header.get("digest") != hashlib.sha256(payload).hexdigest():
                raise ValueError("payload digest mismatch")
            return decode(payload), DISK
        except (FileNotFoundError, NotADirectoryError):
            return None, MISS
        except (OSError, ValueError) as exc:
            logger.warning("damaged entry %s (%s); treating as a miss", path, exc)
            return None, CORRUPT

    def put(self, key: str, value, payload: "bytes | None") -> "str | None":
        """Remember ``value``; write ``payload`` under ``key`` unless it is
        ``None``.  Returns the path written, or ``None`` if nothing was.
        """
        with self._lock:
            self._remember(key, value)
        if payload is None or self.directory is None:
            return None
        path = self.path(key)
        header = canonical_json({
            "digest": hashlib.sha256(payload).hexdigest(),
            "key": key,
            "version": self.version,
        })
        try:
            return atomic_write_bytes(path, header + b"\n" + payload)
        except OSError as exc:
            METRICS.counter("repro_store_write_failures_total", store=self.name).inc()
            logger.warning("cannot write entry %s (%s); dropped", path, exc)
            return None

    def _remember(self, key: str, value) -> None:
        if self.memory_entries <= 0:
            return
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    def stats(self) -> dict:
        """Lookup counts by outcome, plus the memory tier's size."""
        with self._lock:
            return dict(self._counts, entries=len(self._memory))

    def __len__(self) -> int:
        """Entries with this store's suffix on disk (every version)."""
        if self.directory is None or not os.path.isdir(self.directory):
            return 0
        return sum(
            name.endswith(self.suffix)
            for shard in os.scandir(self.directory)
            if shard.is_dir() and len(shard.name) == 2
            for name in os.listdir(shard.path)
        )


__all__ = [
    "CORRUPT",
    "DISK",
    "EntryStore",
    "MEMORY",
    "MISS",
    "canonical_json",
    "code_version",
]
