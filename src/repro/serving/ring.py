"""Consistent-hash ring: the cluster front door's routing table.

Every shard is hashed onto a ring at ``replicas`` virtual positions
(SHA-256 of ``"<shard>#<i>"``); a job routes to the first shard
clockwise from the hash of its cache key.  The two properties the
cluster leans on:

* **Affinity** — identical specs hash identically, so repeat jobs land
  on the same shard and hit its warm in-memory result tier.  This is
  the serving-side analogue of the paper's observation that a
  factorization's counts are a pure function of its configuration:
  caching is sound, so route for cache locality.
* **Minimal disruption** — removing a shard only reassigns the keys it
  owned (they fall through to their next clockwise neighbour); every
  other key keeps its owner, so a rebalance does not cold-start the
  whole cluster's caches.

Routing is a pure function of (node set, replicas, key): two front
doors with the same ring state assign every key identically, which is
what makes the cluster determinism suite possible.

:meth:`HashRing.nodes_for` returns the first *k* distinct owners
clockwise — the preference list a key falls through as its owners
leave the ring (the order of resubmission after shard deaths).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable


def ring_hash(text: str) -> int:
    """Deterministic 64-bit position for ``text`` (SHA-256 prefix).

    Process- and platform-independent, unlike ``hash()`` — ring
    layouts must agree across shard processes and across runs.
    """
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent hashing over named nodes with virtual replicas."""

    def __init__(self, nodes: Iterable[str] = (), *, replicas: int = 64) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = int(replicas)
        self._nodes: "set[str]" = set()
        #: Sorted virtual positions and their owners, kept in lockstep.
        self._points: "list[int]" = []
        self._owners: "list[str]" = []
        for node in nodes:
            self.add(node)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    @property
    def nodes(self) -> "tuple[str, ...]":
        """The member nodes, sorted (deterministic iteration order)."""
        return tuple(sorted(self._nodes))

    def add(self, node: str) -> bool:
        """Insert ``node`` at its virtual positions; False if present."""
        if node in self._nodes:
            return False
        self._nodes.add(node)
        for i in range(self.replicas):
            pos = ring_hash(f"{node}#{i}")
            idx = bisect.bisect(self._points, pos)
            self._points.insert(idx, pos)
            self._owners.insert(idx, node)
        return True

    def remove(self, node: str) -> bool:
        """Remove ``node``; only its own keys are reassigned."""
        if node not in self._nodes:
            return False
        self._nodes.discard(node)
        keep = [i for i, owner in enumerate(self._owners) if owner != node]
        self._points = [self._points[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]
        return True

    def node_for(self, key: str) -> "str | None":
        """The owner of ``key``: first node clockwise from its hash."""
        if not self._points:
            return None
        idx = bisect.bisect(self._points, ring_hash(key)) % len(self._points)
        return self._owners[idx]

    def nodes_for(self, key: str, count: int = 2) -> "list[str]":
        """The first ``count`` distinct owners clockwise from ``key``.

        The preference list: element 0 is :meth:`node_for`'s answer,
        later elements are the owners the key falls through to, in
        order, as earlier ones are removed.
        """
        if not self._points or count < 1:
            return []
        found: "list[str]" = []
        start = bisect.bisect(self._points, ring_hash(key))
        for step in range(len(self._points)):
            owner = self._owners[(start + step) % len(self._points)]
            if owner not in found:
                found.append(owner)
                if len(found) >= min(count, len(self._nodes)):
                    break
        return found

    def spread(self, keys: Iterable[str]) -> "dict[str, int]":
        """How many of ``keys`` each node owns (balance diagnostics)."""
        counts = {node: 0 for node in self.nodes}
        for key in keys:
            owner = self.node_for(key)
            if owner is not None:
                counts[owner] += 1
        return counts

    def snapshot(self) -> dict:
        """JSON-ready ring state (health endpoint payload)."""
        return {
            "nodes": list(self.nodes),
            "replicas": self.replicas,
            "points": len(self._points),
        }


__all__ = ["HashRing", "ring_hash"]
