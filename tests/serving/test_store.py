"""Shared-store disk-tier integrity: torn entries miss, write-backs heal.

Two distinct damage classes, two distinct detectors:

* *bit-level* corruption (truncated file, flipped byte) fails the
  cache's digest verification and is already demoted to a logged miss;
* *structural* corruption — a digest-valid entry whose measurement
  payload is not a mapping (e.g. written by a foreign tool against the
  same key) — passes the digest check, so the view adds its own check
  and counts it under ``repro_cluster_store_torn_total``.

Either way the contract is the same: the lookup is a miss (the shard
recomputes), never a crash and never a poisoned response, and the
recompute's atomic write-back overwrites the damaged file so the next
lookup hits the disk tier again.  A write that fails outright is
logged, counted and dropped: every job still gets its response.

Also here: the encode/hash budget of one fresh job, and a thread
stress test of the view's counters.
"""

import pytest

from repro.experiments.cache import ResultCache
from repro.observability.metrics import METRICS
from repro.serving.api import DONE, chol_request
from repro.serving.cluster import ServingCluster
from repro.serving.service import FactorizationService
from repro.serving.store import (
    ShardStoreView,
    TIER_DISK,
    TIER_MEMORY,
    TIER_MISS,
)
from repro.serving.workloads import repeated_spec_workload
from tests.store_entries import read_entry, write_entry

MEASUREMENT = {"words": 123.0, "messages": 4.0}


def _view(tmp_path, shard):
    return ShardStoreView(str(tmp_path / "store"), shard, version="test")


def _point():
    return repeated_spec_workload(1, seed=0, unique=1)[0].point


def _lookups(result):
    return METRICS.value("repro_cache_lookups_total", result=result) or 0


def test_truncated_entry_is_a_miss_and_put_heals_it(tmp_path):
    point = _point()
    writer = _view(tmp_path, "shard-0")
    path = writer.put(point, MEASUREMENT, wall_time=0.5)

    # truncate mid-file: the digest check fails on the next disk read
    blob = open(path, encoding="utf-8").read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(blob[: len(blob) // 2])

    # a fresh view (empty memory tier) must hit the damaged disk entry
    reader = _view(tmp_path, "shard-0")
    assert reader.get(point) is None
    assert reader.stats()[TIER_MISS] == 1

    # the recompute write-back heals the file in place
    reader.put(point, MEASUREMENT, wall_time=0.5)
    healed = _view(tmp_path, "shard-0")
    entry = healed.get(point)
    assert entry is not None
    assert entry["measurement"] == MEASUREMENT
    assert healed.stats()[TIER_DISK] == 1


def test_digest_valid_but_structurally_torn_entry_counts_as_torn(tmp_path):
    point = _point()
    view = _view(tmp_path, "shard-0")
    path = view.put(point, MEASUREMENT, wall_time=0.5)

    # rewrite the entry with a non-mapping measurement and a *matching*
    # digest: the cache's integrity check passes, the view's structural
    # check must not
    _, _, meta = read_entry(path)
    write_entry(path, "not-a-mapping", meta)

    before = METRICS.value(
        "repro_cluster_store_torn_total", shard="shard-1"
    ) or 0
    lookups = {r: _lookups(r) for r in ("hit", "corrupt")}
    reader = _view(tmp_path, "shard-1")
    assert reader.get(point) is None
    assert reader.stats()[TIER_MISS] == 1
    after = METRICS.value("repro_cluster_store_torn_total", shard="shard-1")
    assert after == before + 1
    # a torn entry is a corrupt lookup, never a hit the view demotes
    assert _lookups("corrupt") == lookups["corrupt"] + 1
    assert _lookups("hit") == lookups["hit"]

    # heal on write-back, then the same view serves it from memory and
    # a fresh view from disk
    reader.put(point, MEASUREMENT, wall_time=0.5)
    fresh = _view(tmp_path, "shard-2")
    entry = fresh.get(point)
    assert entry is not None
    assert entry["measurement"] == MEASUREMENT


def test_memory_tier_shields_a_view_from_later_disk_damage(tmp_path):
    point = _point()
    view = _view(tmp_path, "shard-0")
    path = view.put(point, MEASUREMENT, wall_time=0.5)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{")  # destroy the disk entry outright
    # the producing view still serves from its warm tier
    entry = view.get(point)
    assert entry is not None
    assert entry["measurement"] == MEASUREMENT
    assert view.stats()["memory"] == 1


class TestUnwritableStore:
    """A failed store write is logged, counted and dropped: the job that
    produced the value still gets its terminal response, and the
    worker that ran it lives on to serve the next one."""

    @staticmethod
    def _unwritable(tmp_path):
        # the store directory's parent is a regular file, so every
        # write fails (NotADirectoryError), also for root
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        return str(blocker / "store")

    @staticmethod
    def _failures(store):
        return METRICS.value("repro_store_write_failures_total", store=store) or 0

    @pytest.mark.parametrize("workers", [0, 1])
    def test_service_serves_every_job(self, tmp_path, workers):
        cache = ResultCache(self._unwritable(tmp_path))
        before = self._failures("result")
        corrupt = _lookups("corrupt")
        svc = FactorizationService(workers=workers, retries=0, cache=cache)
        try:
            tickets = [
                svc.submit(chol_request(algorithm="naive-left", n=12, seed=s))
                for s in (1, 2)
            ]
            if workers == 0:
                svc.run_pending()
            responses = [t.result(timeout=60) for t in tickets]
        finally:
            svc.stop()
        assert [r.status for r in responses] == [DONE, DONE]
        assert self._failures("result") == before + 2
        # an entry under a path that cannot exist is a miss, not damage
        assert (cache.misses, _lookups("corrupt")) == (2, corrupt)

    def test_inline_cluster_serves_through_its_shard_view(self, tmp_path):
        cluster = ServingCluster(
            shards=2, mode="inline", store_dir=self._unwritable(tmp_path)
        )
        try:
            tickets = [
                cluster.submit(chol_request(algorithm="naive-left", n=12, seed=s))
                for s in (1, 2, 1)
            ]
            cluster.run_pending()
            responses = [t.result(timeout=0) for t in tickets]
        finally:
            cluster.stop()
        assert [r.status for r in responses] == [DONE, DONE, DONE]
        # the dropped write still warmed the producing shard's memory tier
        assert responses[2].detail.get("cached") is True
        assert cluster.health()["store"]["puts"] == 2


def test_a_fresh_job_derives_its_key_once_and_encodes_once(tmp_path):
    """Call counts of one fresh job through an inline 2-shard cluster,
    after a warm-up job of the same shape (schedule in memory): the
    point key is derived once, the result key once per lookup and once
    per write, and the measurement encoded once, hashed once for the
    attestation and once inside the payload digest."""
    import cProfile
    import pstats

    from repro.schedule import ScheduleCache, set_default_cache

    prev = set_default_cache(ScheduleCache(None))
    cluster = ServingCluster(shards=2, mode="inline", store_dir=str(tmp_path))
    try:
        def serve(seed):
            ticket = cluster.submit(
                chol_request(algorithm="naive-left", n=16, seed=seed)
            )
            cluster.run_pending()
            return ticket.result(timeout=0)

        assert serve(1).status == DONE
        profile = cProfile.Profile()
        profile.enable()
        response = serve(2)
        profile.disable()
    finally:
        cluster.stop()
        set_default_cache(prev)
    assert response.status == DONE and not response.detail.get("cached")
    calls = {}
    for (path, _, name), row in pstats.Stats(profile).stats.items():
        if "sha256" in name:
            tag = "sha256"
        elif path.endswith("json/__init__.py") and name == "dumps":
            tag = "json.dumps"
        elif path.endswith("spec.py") and name == "to_dict":
            tag = "SpecPoint.to_dict"
        elif path.endswith("cache.py") and name == "key_for":
            tag = "ResultCache.key_for"
        else:
            continue
        calls[tag] = calls.get(tag, 0) + row[1]
    bounds = {
        "json.dumps": 5,
        "sha256": 7,
        "SpecPoint.to_dict": 2,
        "ResultCache.key_for": 2,
    }
    over = [k for k, bound in bounds.items() if calls.get(k, 0) > bound]
    assert not over, calls


def test_concurrent_lookups_lose_no_count(tmp_path):
    """Worker threads share one view: every memory hit is counted once,
    in the store's outcomes and in the view's tiers alike."""
    import dataclasses
    import sys
    import threading

    view = _view(tmp_path, "shard-0")
    points = [dataclasses.replace(_point(), seed=s) for s in range(16)]
    for point in points:
        view.put(point, MEASUREMENT, wall_time=0.5)
    rounds = 500

    def lookups(point):
        for _ in range(rounds):
            view.get(point)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lookups, args=(p,)) for p in points]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    total = rounds * len(points)
    assert view.stats()[TIER_MEMORY] == view.hits == total
