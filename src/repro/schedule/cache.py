"""Content-addressed cache for compiled transfer schedules.

A schedule is valid for exactly one *shape*: the tuple (algorithm,
layout incl. block size and packing, matrix base address, machine
capacities and enforcement, algorithm params, fault plan) — plus the
code version, so editing any simulator or algorithm source invalidates
every cached schedule rather than replaying stale counts.

Two tiers, mirroring :class:`repro.experiments.cache.ResultCache`:

* an in-process LRU of decoded :class:`TransferSchedule` objects (the
  hot tier — repeated same-spec jobs on a serving shard hit here);
* an on-disk tier at ``$REPRO_SCHEDULE_DIR`` or
  ``<cache-root>/schedules``, content-addressed as
  ``<dir>/<key[:2]>/<key>.sched``: one line of JSON holding the key,
  the code version and the SHA-256 of the schedule's
  :meth:`~TransferSchedule.to_bytes` encoding, then that encoding.
  Writes are atomic, and a load checks the key, the version and the
  digest of the raw bytes before it decodes anything, then re-runs the
  schedule's self-check, so corruption demotes to a miss instead of
  replaying damaged counts.  Entries of the old JSON format
  (``<key>.json``) are never read.

Every lookup is counted under ``repro_schedule_cache_hits_total``
(labelled by tier) or ``repro_schedule_cache_misses_total`` so the
compile-vs-replay speedup is attributable from metrics alone.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
from collections import OrderedDict

from repro.observability.metrics import METRICS
from repro.schedule.compiled import ScheduleError, TransferSchedule
from repro.util.serialization import atomic_write_bytes

SCHEDULE_DIR_ENV = "REPRO_SCHEDULE_DIR"

#: Schedules with more runs than this stay memory-only (a naive n=512
#: schedule is ~130k runs ≈ 1 MB encoded; the cap keeps pathological
#: captures from writing cache entries of tens of MB).
MAX_DISK_RUNS = 2_000_000

logger = logging.getLogger("repro.schedule.cache")


def fault_plan_digest(plan) -> str | None:
    """Canonical digest of a fault plan (``None`` stays ``None``).

    Hashes the plan's ``to_dict`` form, so two plans with identical
    parameters share schedules and any parameter change (seed,
    probability) is a different key.
    """
    if plan is None:
        return None
    blob = json.dumps(plan.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def schedule_key(
    *,
    algorithm: str,
    layout,
    base: int,
    machine,
    params: dict,
    fault_plan=None,
    abft=None,
    version: str | None = None,
) -> str:
    """Content-address of one run shape under the current code version.

    Raises ``TypeError`` for params that have no canonical JSON form —
    the caller treats that as "not compilable" and runs uncompiled.
    ``abft`` is the run's protection mode (an
    :class:`~repro.abft.AbftConfig` or its dict form): protected runs
    never share a key with unprotected ones, and an unprotected run's
    key is byte-identical to the pre-ABFT format so existing cached
    schedules stay valid.
    """
    if version is None:
        from repro.experiments.cache import code_version

        version = code_version()
    payload = {
        "version": version,
        "algorithm": algorithm,
        "layout": {
            "name": layout.name,
            "n": layout.n,
            "block": getattr(layout, "block", None),
            "packed": layout.packed,
            "storage_words": layout.storage_words,
        },
        "base": int(base),
        "capacities": [lvl.capacity for lvl in machine.levels],
        "enforce_capacity": machine.enforce_capacity,
        "params": sorted((str(k), v) for k, v in params.items()),
        "faults": fault_plan_digest(fault_plan),
    }
    if abft is not None:
        payload["abft"] = abft if isinstance(abft, dict) else abft.to_dict()
    blob = json.dumps(
        payload,
        sort_keys=True,
        separators=(",", ":"),
        default=_reject_unknown,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _reject_unknown(obj):
    raise TypeError(f"parameter {obj!r} has no canonical JSON form")


class ScheduleCache:
    """Two-tier (memory LRU + disk) store of compiled schedules.

    Parameters
    ----------
    directory:
        Disk tier root, or ``None`` for a memory-only cache (tests and
        benches use this to isolate runs from ambient disk state).
    version:
        Code-version token recorded in disk entries; defaults to
        :func:`repro.experiments.cache.code_version`.
    memory_entries:
        LRU capacity of the in-process tier.
    max_disk_runs:
        Largest schedule (in runs) the disk tier will persist.
    """

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        *,
        version: str | None = None,
        memory_entries: int = 32,
        max_disk_runs: int = MAX_DISK_RUNS,
    ) -> None:
        self.directory = str(directory) if directory is not None else None
        self._version = version
        self.memory_entries = int(memory_entries)
        self.max_disk_runs = int(max_disk_runs)
        self._memory: "OrderedDict[str, TransferSchedule]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits_memory = 0
        self.hits_disk = 0
        self.misses = 0

    @property
    def version(self) -> str:
        """The code-version token mixed into disk entries (lazy)."""
        if self._version is None:
            from repro.experiments.cache import code_version

            self._version = code_version()
        return self._version

    def _path_for(self, key: str) -> str | None:
        if self.directory is None:
            return None
        return os.path.join(self.directory, key[:2], f"{key}.sched")

    def get(self, key: str) -> TransferSchedule | None:
        """Look up a compiled schedule; ``None`` on miss or corruption."""
        with self._lock:
            sched = self._memory.get(key)
            if sched is not None:
                self._memory.move_to_end(key)
                self.hits_memory += 1
                METRICS.counter(
                    "repro_schedule_cache_hits_total", tier="memory"
                ).inc()
                return sched
        sched = self._load_disk(key)
        if sched is not None:
            with self._lock:
                self._remember(key, sched)
                self.hits_disk += 1
            METRICS.counter(
                "repro_schedule_cache_hits_total", tier="disk"
            ).inc()
            return sched
        with self._lock:
            self.misses += 1
        METRICS.counter("repro_schedule_cache_misses_total").inc()
        return None

    def _load_disk(self, key: str) -> TransferSchedule | None:
        path = self._path_for(key)
        if path is None:
            return None
        try:
            with open(path, "rb") as fh:
                head, _, blob = fh.read().partition(b"\n")
        except FileNotFoundError:
            return None
        except OSError as exc:
            logger.warning("unreadable schedule entry %s: %s", path, exc)
            return None
        try:
            entry = json.loads(head)
            if (
                not isinstance(entry, dict)
                or entry.get("key") != key
                or entry.get("version") != self.version
            ):
                raise ValueError("malformed or stale schedule entry")
            if hashlib.sha256(blob).hexdigest() != entry.get("digest"):
                raise ValueError("schedule entry digest mismatch")
            sched = TransferSchedule.from_bytes(blob)
            sched.verify()
            return sched
        except (ValueError, ScheduleError) as exc:
            logger.warning("corrupt schedule entry %s: %s", path, exc)
            return None

    def put(self, key: str, schedule: TransferSchedule) -> None:
        """Store a schedule in both tiers (disk only below the run cap)."""
        with self._lock:
            self._remember(key, schedule)
        path = self._path_for(key)
        if path is None or schedule.nruns > self.max_disk_runs:
            return
        blob = schedule.to_bytes()
        head = json.dumps(
            {
                "key": key,
                "version": self.version,
                "digest": hashlib.sha256(blob).hexdigest(),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        try:
            atomic_write_bytes(path, head.encode("utf-8") + b"\n" + blob)
        except OSError as exc:  # cache dir unwritable: degrade, don't fail
            logger.warning("cannot persist schedule %s: %s", path, exc)

    def _remember(self, key: str, schedule: TransferSchedule) -> None:
        self._memory[key] = schedule
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    def stats(self) -> dict:
        """Hit/miss counters for summaries and engine reports."""
        with self._lock:
            return {
                "hits_memory": self.hits_memory,
                "hits_disk": self.hits_disk,
                "misses": self.misses,
                "entries_memory": len(self._memory),
            }


_default_cache: ScheduleCache | None = None
_default_lock = threading.Lock()


def default_schedule_dir() -> str:
    """``$REPRO_SCHEDULE_DIR`` if set, else ``<cache-root>/schedules``."""
    env = os.environ.get(SCHEDULE_DIR_ENV)
    if env:
        return env
    from repro.experiments.cache import default_cache_dir

    return os.path.join(default_cache_dir(), "schedules")


def default_cache() -> ScheduleCache:
    """The process-wide schedule cache (created on first use)."""
    global _default_cache
    with _default_lock:
        if _default_cache is None:
            _default_cache = ScheduleCache(default_schedule_dir())
        return _default_cache


def set_default_cache(cache: ScheduleCache | None) -> ScheduleCache | None:
    """Swap the process-wide cache; returns the previous one.

    Tests and benches install a memory-only cache to isolate
    themselves from (and avoid polluting) the on-disk tier.
    """
    global _default_cache
    with _default_lock:
        prev = _default_cache
        _default_cache = cache
        return prev
