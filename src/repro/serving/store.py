"""The cluster's shared, content-addressed result store.

One on-disk directory shared by every shard, plus one small in-memory
"warm" tier per shard incarnation.  Each incarnation of a shard opens
its own :class:`ShardStoreView` over the shared directory: a
:class:`~repro.experiments.cache.ResultCache` with a 512-entry memory
tier, the shard recorded as each entry's producer, and per-tier
accounting.  A respawned shard therefore starts cold, as a restarted
process does, and is warmed from the shared directory.  A lookup walks
the tiers cheapest-first:

``memory``
    The shard's own bounded LRU of recently served entries.  The
    consistent-hash front door routes identical specs to the same
    shard, so this tier has high hit rates under repeat traffic.
``shared``
    The on-disk store, *entry produced by a different shard*.  This is
    what makes the cluster more than N isolated caches: after a
    rebalance (shard death, breaker quarantine) the new owner of a key
    serves the old owner's work instead of recomputing it.  The
    memory-for-recomputation trade is the serving-side analogue of
    2.5D replication (Kwasniewski et al., arXiv:2108.09337): spend
    redundant storage, save redundant work and cross-shard traffic.
``disk``
    The on-disk store, entry produced by this shard earlier (e.g.
    evicted from the memory tier, or a previous incarnation).

Entries are the result cache's (see :mod:`repro.experiments.cache`)
and the disk tier is its :class:`~repro.util.store.EntryStore`: atomic,
fsync'd writes, so concurrent shard processes never read torn entries;
key, version and digest checked before a byte is decoded; a failed
write logged and dropped, so a store write never costs a job its
terminal response.  Two damage classes get a counter of their own:

* a digest-valid entry whose measurement is not a mapping (e.g.
  written by a foreign tool against the same key) counts under
  ``repro_cluster_store_torn_total``;
* a measurement that drifted under a re-stamped digest fails its
  attestation and counts under
  ``repro_cluster_store_attestation_failures_total`` — the store-tier
  leg of the ABFT end-to-end guarantee.

Either way, as for any damage, the lookup is a miss: the shard
recomputes, and the write-back heals the entry in place.  A damaged
entry therefore costs one recomputation, never a crash and never a
poisoned response.

A :class:`ShardStoreView` is the ``get(point)`` /
``put(point, measurement, wall_time)`` interface
:class:`~repro.serving.service.FactorizationService` expects from its
``cache`` parameter, so a shard's service needs no cluster-specific
code path.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.experiments.cache import ResultCache
from repro.experiments.cache import measurement_attestation  # noqa: F401 - re-exported
from repro.observability.metrics import METRICS
from repro.util.store import DISK, MEMORY

#: Lookup outcome tiers (metric label values, cheapest first).
TIER_MEMORY = "memory"
TIER_SHARED = "shared"
TIER_DISK = "disk"
TIER_MISS = "miss"

#: Counter of each damage class a shard view's decode rejects.
_DAMAGE_METRIC = {
    "torn": "repro_cluster_store_torn_total",
    "attestation": "repro_cluster_store_attestation_failures_total",
}


class ShardStoreView(ResultCache):
    """One shard incarnation's handle on the shared store (memory tier
    + provenance).

    Thread-safe: a shard's worker threads share one view.
    """

    memory_entries = 512

    def __init__(
        self, directory: str, shard_id: str, *, version: "str | None" = None
    ) -> None:
        super().__init__(directory, version=version)
        self.shard_id = self.producer = str(shard_id)
        self._lock = threading.Lock()
        self._tiers = {
            TIER_MEMORY: 0, TIER_SHARED: 0, TIER_DISK: 0, TIER_MISS: 0,
            "puts": 0,
        }
        #: Optional telemetry hook called with the tier of every lookup
        #: (the cluster wires it to the shard's event bus; ``None``
        #: costs nothing).
        self.on_lookup: "Callable[[str], None] | None" = None

    def _damaged(self, kind: str) -> None:
        METRICS.counter(_DAMAGE_METRIC[kind], shard=self.shard_id).inc()

    def _count(self, outcome: str, entry: "dict | None") -> None:
        super()._count(outcome, entry)
        if outcome == MEMORY:
            tier = TIER_MEMORY
        elif outcome == DISK:
            own = entry.get("producer") == self.shard_id
            tier = TIER_DISK if own else TIER_SHARED
        else:
            tier = TIER_MISS
        with self._lock:
            self._tiers[tier] += 1
        METRICS.counter(
            "repro_cluster_store_lookups_total", shard=self.shard_id, tier=tier
        ).inc()
        if self.on_lookup is not None:
            self.on_lookup(tier)

    def put(self, point, measurement, wall_time: float) -> "str | None":
        """Write through to disk and the memory tier (see
        :meth:`ResultCache.put`), counted under ``puts``."""
        with self._lock:
            self._tiers["puts"] += 1
        return super().put(point, measurement, wall_time)

    def stats(self) -> dict:
        """Lookup counts by tier plus writes (health payload)."""
        with self._lock:
            return dict(self._tiers)


__all__ = [
    "ShardStoreView",
    "TIER_DISK",
    "TIER_MEMORY",
    "TIER_MISS",
    "TIER_SHARED",
]
