"""Content-addressed cache for compiled transfer schedules.

A schedule is valid for exactly one *shape*: the tuple (algorithm,
layout incl. block size and packing, matrix base address, machine
capacities and enforcement, algorithm params, fault plan) — plus the
code version, so editing any simulator or algorithm source invalidates
every cached schedule rather than replaying stale counts.

:class:`ScheduleCache` is a typed view over
:class:`~repro.util.store.EntryStore`, the store the result caches use
too, with two tiers:

* an in-process LRU of decoded :class:`TransferSchedule` objects (the
  hot tier — repeated same-spec jobs on a serving shard hit here);
* an on-disk tier at ``$REPRO_SCHEDULE_DIR`` or
  ``<cache-root>/schedules``, content-addressed as
  ``<dir>/<key[:2]>/<key>.sched``: the store's header line (the key,
  the code version and the SHA-256 of the payload), then the
  schedule's :meth:`~TransferSchedule.to_bytes` encoding (one line of
  canonical JSON, a few hundred bytes whatever the run's length) as
  the payload.  The store checks key, version and digest before
  anything is decoded, and the decoder refuses anything
  :meth:`~TransferSchedule.to_bytes` would not have written, so damage
  demotes to a miss instead of replaying damaged counts; a failed
  write is logged and dropped.  Entries of older formats are never
  replayed.

Every lookup is counted under ``repro_schedule_cache_hits_total``
(labelled by tier) or ``repro_schedule_cache_misses_total`` so the
compile-vs-replay speedup is attributable from metrics alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading

from repro.observability.metrics import METRICS
from repro.schedule.compiled import ScheduleError, TransferSchedule
from repro.util.store import (
    CORRUPT,
    DISK,
    MEMORY,
    MISS,
    EntryStore,
    code_version,
)

SCHEDULE_DIR_ENV = "REPRO_SCHEDULE_DIR"


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

    A typed view over :class:`~repro.util.store.EntryStore` whose
    payload is :meth:`TransferSchedule.to_bytes`; a payload that does
    not decode is damage.

    Parameters
    ----------
    directory:
        Disk tier root, or ``None`` for a memory-only cache (tests and
        benches use this to isolate runs from ambient disk state).
    version:
        Code-version token recorded in disk entries; defaults to
        :func:`repro.util.store.code_version`.
    memory_entries:
        LRU capacity of the in-process tier.
    """

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        *,
        version: str | None = None,
        memory_entries: int = 32,
    ) -> None:
        self.store = EntryStore(
            directory,
            suffix=".sched",
            name="schedule",
            version=version,
            memory_entries=memory_entries,
        )

    @property
    def directory(self) -> str | None:
        """Disk tier root (``None``: memory only)."""
        return self.store.directory

    @property
    def version(self) -> str:
        """The code-version token mixed into disk entries (lazy)."""
        return self.store.version

    def get(self, key: str) -> TransferSchedule | None:
        """Look up a compiled schedule; ``None`` on miss or corruption."""
        sched, outcome = self.store.get(key, _decode)
        if sched is None:
            METRICS.counter("repro_schedule_cache_misses_total").inc()
        else:
            METRICS.counter("repro_schedule_cache_hits_total", tier=outcome).inc()
        return sched

    def put(self, key: str, schedule: TransferSchedule) -> None:
        """Store a schedule in both tiers."""
        self.store.put(key, schedule, schedule.to_bytes())

    def stats(self) -> dict:
        """Hit/miss counters for summaries and engine reports."""
        stats = self.store.stats()
        return {
            "hits_memory": stats[MEMORY],
            "hits_disk": stats[DISK],
            "misses": stats[MISS] + stats[CORRUPT],
            "entries_memory": stats["entries"],
        }


def _decode(blob: bytes) -> TransferSchedule:
    try:
        return TransferSchedule.from_bytes(blob)
    except ScheduleError as exc:
        raise ValueError(str(exc)) from exc


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
