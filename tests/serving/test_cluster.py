"""The sharded cluster: determinism, rebalancing, the shared store.

The inline-mode tests are the cluster determinism suite: every shard
runs ``workers=0`` on a shared virtual clock and is pumped in sorted
shard order, so a run is a pure function of (workload, shard count,
store state) — the same seed must produce byte-identical response
payloads whether one shard serves it or three, and two identical runs
must assign every job to the same shard.
"""

import glob
import json
import time

import pytest

from repro.serving.api import (
    DEGRADED,
    DONE,
    SHED,
    pxpotrf_request,
    response_to_wire,
)
from repro.serving.client import ServingClient
from repro.serving.cluster import ServingCluster
from repro.serving.workloads import repeated_spec_workload
from repro.faults.plan import FaultPlan

JOBS = 36
UNIQUE = 9


def run_workload(shards: int, store_dir: str, count: int = JOBS):
    """One deterministic inline run; returns normalized payloads."""
    cluster = ServingCluster(
        shards=shards, mode="inline", store_dir=store_dir, replicas=32
    )
    try:
        jobs = repeated_spec_workload(count, seed=0, unique=UNIQUE)
        tickets = [cluster.submit(job) for job in jobs]
        cluster.run_pending()
        responses = [t.result(timeout=0) for t in tickets]
        # job ids come from a process-global counter: normalize to the
        # submission index before comparing across runs
        payloads = []
        for i, r in enumerate(responses):
            wire = response_to_wire(r)
            wire["job_id"] = i
            payloads.append(wire)
        assignments = [shard for _job_id, shard in cluster.assignments]
        return payloads, assignments
    finally:
        cluster.stop()


def test_one_shard_and_three_shards_give_identical_payloads(tmp_path):
    solo, _ = run_workload(1, str(tmp_path / "store1"))
    trio, _ = run_workload(3, str(tmp_path / "store3"))
    assert solo == trio
    assert all(p["status"] == DONE for p in solo)
    # the virtual clock means wall time is identically zero everywhere
    assert all(p["wall_seconds"] == 0.0 for p in solo)


def test_two_runs_assign_every_job_identically(tmp_path):
    _, first = run_workload(3, str(tmp_path / "a"))
    _, second = run_workload(3, str(tmp_path / "b"))
    assert first == second
    assert len(first) == JOBS
    # affinity: all repeats of a spec land on one shard
    by_spec = {}
    for i, shard in enumerate(first):
        by_spec.setdefault(i % UNIQUE, set()).add(shard)
    assert all(len(shards) == 1 for shards in by_spec.values())
    # and a 3-shard ring actually spreads the specs around
    assert len({s for shards in by_spec.values() for s in shards}) > 1


def test_shard_kill_loses_no_accepted_job(tmp_path):
    cluster = ServingCluster(
        shards=3, mode="inline", store_dir=str(tmp_path / "store"), replicas=32
    )
    try:
        jobs = repeated_spec_workload(JOBS, seed=0, unique=UNIQUE)
        tickets = [cluster.submit(job) for job in jobs]
        victim = cluster.assignments[0][1]  # owns at least job 0
        cluster.kill_shard(victim)  # before anything ran: all stranded
        cluster.run_pending()
        responses = [t.result(timeout=0) for t in tickets]
        assert [r.status for r in responses] == [DONE] * JOBS
        health = cluster.health()
        assert health["rebalances"] >= 1
        assert health["resubmitted"] > 0
        assert victim not in health["ring"]["nodes"]
        # the dead shard's store view never produced anything the
        # survivors could not recompute: every answer is exact
        assert all(r.measurement is not None for r in responses)
    finally:
        cluster.stop()


def test_mid_soak_kill_rebalances_and_completes(tmp_path):
    cluster = ServingCluster(
        shards=3, mode="inline", store_dir=str(tmp_path / "store"), replicas=32
    )
    try:
        jobs = repeated_spec_workload(JOBS, seed=0, unique=UNIQUE)
        tickets = [cluster.submit(job) for job in jobs]
        cluster.run_pending(max_jobs=8)  # part of the soak has run
        victim = next(
            shard for _jid, shard in cluster.assignments
            if any(not t.done() and t.job.job_id == _jid for t in tickets)
        )
        cluster.kill_shard(victim)
        cluster.run_pending()
        statuses = [t.result(timeout=0).status for t in tickets]
        assert statuses == [DONE] * JOBS
        assert cluster.health()["rebalances"] == 1
    finally:
        cluster.stop()


def test_shared_store_serves_a_dead_shards_results(tmp_path):
    cluster = ServingCluster(
        shards=3, mode="inline", store_dir=str(tmp_path / "store"), replicas=32
    )
    try:
        # phase A: compute every unique spec once, across all shards
        warm = repeated_spec_workload(UNIQUE, seed=0, unique=UNIQUE)
        tickets = [cluster.submit(job) for job in warm]
        cluster.run_pending()
        assert all(t.result(timeout=0).status == DONE for t in tickets)
        victim = cluster.assignments[0][1]
        killed_keys = [
            warm[i].point for i, (_jid, shard) in enumerate(cluster.assignments)
            if shard == victim
        ]
        assert killed_keys  # the victim owned something
        cluster.kill_shard(victim)
        # phase B: resubmit the dead shard's specs — survivors must
        # serve them from the shared store, not recompute
        tickets = [cluster.submit(point) for point in killed_keys]
        cluster.run_pending()
        for t in tickets:
            response = t.result(timeout=0)
            assert response.status == DONE
            assert response.detail.get("cached") is True
            assert response.attempts == 0
        store = cluster.health()["store"]
        assert store["shared"] >= len(killed_keys)
    finally:
        cluster.stop()


def test_breaker_quarantine_and_recovery_move_the_ring(tmp_path):
    cluster = ServingCluster(
        shards=2,
        mode="inline",
        store_dir=str(tmp_path / "store"),
        replicas=32,
        breaker_threshold=1,
        breaker_cooldown=30.0,
        retries=0,
    )
    try:
        # a deterministic hard failure: every message dropped until the
        # transport gives up, so the one admitted attempt trips the
        # breaker of whichever shard owns this spec
        bad = pxpotrf_request(
            n=16,
            P=4,
            block=8,
            verify=False,
            faults=FaultPlan(seed=3, drop=0.99, max_attempts=1),
        )
        owner = cluster.ring.node_for(cluster.route_key(bad.point))
        ticket = cluster.submit(bad)
        cluster.run_pending()
        # threshold=1: the job's own failure trips the breaker, so the
        # service serves the degradation ladder for this very job
        response = ticket.result(timeout=0)
        assert response.status == DEGRADED
        assert response.reason == "breaker-open"
        actions = cluster.check_shards()
        assert actions.get(owner) == "quarantined"
        assert owner not in cluster.ring
        assert cluster.readiness()["ready"]  # the other shard still serves
        # new traffic for the quarantined shard's keys reroutes
        rerouted = cluster.submit(pxpotrf_request(n=16, P=4, block=8, verify=False))
        cluster.run_pending()
        assert rerouted.result(timeout=0).status == DONE
        # cooldown elapses on the virtual clock: the breaker probes and
        # the shard rejoins the ring
        cluster.clock.advance(31.0)
        actions = cluster.check_shards()
        assert actions.get(owner) == "restored"
        assert owner in cluster.ring
        assert cluster.health()["rebalances"] == 2  # remove + re-add
    finally:
        cluster.stop()


def test_empty_ring_sheds_with_a_structured_reason(tmp_path):
    cluster = ServingCluster(
        shards=1, mode="inline", store_dir=str(tmp_path / "store")
    )
    try:
        cluster.kill_shard("shard-0")
        ticket = cluster.submit(repeated_spec_workload(1)[0])
        response = ticket.result(timeout=0)  # resolves immediately
        assert response.status == SHED
        assert response.reason == "no-shards"
        assert not cluster.readiness()["ready"]
    finally:
        cluster.stop()


def test_front_door_refuses_an_in_flight_job_id(tmp_path):
    from repro.util.validation import ValidationError

    cluster = ServingCluster(
        shards=2, mode="inline", store_dir=str(tmp_path / "store")
    )
    try:
        job = repeated_spec_workload(1)[0]
        ticket = cluster.submit(job)
        with pytest.raises(ValidationError, match="in flight"):
            cluster.submit(job)
        assert len(cluster.assignments) == 1
        cluster.run_pending()
        assert ticket.result(timeout=0).status == DONE
        # once terminal, the id may be submitted again
        again = cluster.submit(job)
        cluster.run_pending()
        assert again.result(timeout=0).status == DONE
    finally:
        cluster.stop()


def test_cluster_health_snapshot_write_is_atomic_and_complete(tmp_path):
    cluster = ServingCluster(
        shards=2, mode="inline", store_dir=str(tmp_path / "store")
    )
    try:
        tickets = [cluster.submit(j) for j in repeated_spec_workload(6)]
        cluster.run_pending()
        assert all(t.done() for t in tickets)
        path = str(tmp_path / "health.json")
        cluster.write_health(path)
        doc = json.load(open(path))
        assert doc["mode"] == "inline"
        assert doc["readiness"]["ready"]
        assert sorted(doc["shards"]) == ["shard-0", "shard-1"]
        assert doc["jobs"].get("done") == 6
        assert doc["store"]["puts"] > 0
    finally:
        cluster.stop()


@pytest.mark.slow
def test_process_mode_cluster_end_to_end(tmp_path):
    """Real shard processes: pipes, heartbeats, kill, shared store."""
    cluster = ServingCluster(
        shards=2,
        mode="process",
        workers_per_shard=2,
        queue_capacity=64,
        store_dir=str(tmp_path / "store"),
        health_dir=str(tmp_path / "health"),
        heartbeat_interval=0.1,
    )
    client = ServingClient(cluster, own_backend=False)
    try:
        jobs = repeated_spec_workload(24, seed=0, unique=6)
        responses = client.submit_many(jobs, window=12, timeout=120)
        assert [r.status for r in responses] == [DONE] * 24
        # pick the victim so it owns at least one of the unique specs
        owners = {
            cluster.ring.node_for(cluster.route_key(j.point))
            for j in jobs[:6]
        }
        victim = sorted(owners)[0]
        survivor_count = 2 - 1
        cluster.kill_shard(victim)
        assert len(cluster.ring) == survivor_count
        # the survivor serves the dead shard's specs from the store
        again = client.submit_many(
            repeated_spec_workload(12, seed=0, unique=6), window=12, timeout=120
        )
        assert [r.status for r in again] == [DONE] * 12
        assert all(r.detail.get("cached") for r in again)
        store = cluster.health()["store"]
        assert store["shared"] > 0
        # heartbeats write parseable (never torn) health snapshots;
        # give the survivor's next tick a moment to land
        deadline = time.monotonic() + 10.0
        snapshots: "list[str]" = []
        while not snapshots and time.monotonic() < deadline:
            snapshots = sorted(glob.glob(str(tmp_path / "health" / "*.json")))
            if not snapshots:
                time.sleep(0.05)
        assert snapshots
        for path in snapshots:
            snap = json.load(open(path))
            assert snap["health"]["reachable"]
    finally:
        cluster.stop()
