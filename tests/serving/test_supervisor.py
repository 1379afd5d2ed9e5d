"""Shard supervision: seeded backoff policy and cluster respawn.

The policy half is pure (no threads, injected time), so those tests
are exact.  The cluster half runs inline on the virtual clock: kill a
shard, watch ``check_shards`` walk it through backoff → respawn → back
in the ring, all deterministically.  The process-mode test is the
satellite-1 regression: a slow-but-alive shard (stalled heartbeats
inside the rebalance debounce) must be flagged *suspect* — never
evicted — and must serve again once its heartbeats resume.
"""

import time

from repro.serving.api import DONE
from repro.serving.cluster import ServingCluster
from repro.serving.supervisor import (
    BACKOFF,
    DECIDE_EXHAUSTED,
    DECIDE_RESPAWN,
    DECIDE_WAIT,
    EXHAUSTED,
    RUNNING,
    ShardSupervisor,
)
from repro.serving.workloads import demo_workload, repeated_spec_workload


# -- the policy object -----------------------------------------------------


def test_backoff_delays_are_seeded_and_reproducible():
    a = ShardSupervisor(seed=42)
    b = ShardSupervisor(seed=42)
    c = ShardSupervisor(seed=43)
    delays_a = [a.delay("shard-0", r) for r in range(5)]
    delays_b = [b.delay("shard-0", r) for r in range(5)]
    delays_c = [c.delay("shard-0", r) for r in range(5)]
    assert delays_a == delays_b
    assert delays_a != delays_c
    # jitter stays within +/-25% of the exponential envelope
    for r, d in enumerate(delays_a):
        envelope = min(a.backoff_cap, a.backoff_base * 2.0 ** r)
        assert 0.75 * envelope <= d <= 1.25 * envelope
    # distinct shards draw distinct jitter from the same seed
    assert a.delay("shard-0", 0) != a.delay("shard-1", 0)


def test_backoff_is_capped():
    sup = ShardSupervisor(seed=0, backoff_base=1.0, backoff_cap=4.0)
    assert sup.delay("s", 10) <= 4.0 * 1.25


def test_on_dead_walks_wait_then_respawn():
    sup = ShardSupervisor(seed=1, backoff_base=1.0, backoff_cap=10.0)
    assert sup.on_dead("shard-0", now=100.0) == DECIDE_WAIT
    assert sup.state_of("shard-0") == BACKOFF
    due = sup.snapshot()["shard-0"]["due"]
    assert 100.75 <= due <= 101.25
    assert sup.on_dead("shard-0", now=due - 0.01) == DECIDE_WAIT
    assert sup.on_dead("shard-0", now=due) == DECIDE_RESPAWN
    assert sup.note_respawned("shard-0") == 1
    assert sup.state_of("shard-0") == RUNNING
    assert sup.respawns == 1


def test_budget_exhaustion_is_terminal():
    sup = ShardSupervisor(seed=1, restart_budget=2, backoff_base=0.0)
    for expected_restarts in (1, 2):
        assert sup.on_dead("s", now=0.0) in (DECIDE_WAIT, DECIDE_RESPAWN)
        # backoff_base=0: the respawn is due immediately
        assert sup.on_dead("s", now=0.0) == DECIDE_RESPAWN
        assert sup.note_respawned("s") == expected_restarts
    assert sup.on_dead("s", now=0.0) == DECIDE_EXHAUSTED
    assert sup.state_of("s") == EXHAUSTED
    # exhaustion is sticky
    assert sup.on_dead("s", now=1e9) == DECIDE_EXHAUSTED


def test_failed_respawn_charges_the_budget():
    sup = ShardSupervisor(seed=2, restart_budget=2, backoff_base=1.0)
    sup.on_dead("s", now=0.0)
    sup.note_respawn_failed("s", now=5.0)
    st = sup.snapshot()["s"]
    assert st["restarts"] == 1
    assert st["state"] == BACKOFF
    assert st["due"] > 5.0  # backed off again, from the failure time
    sup.note_respawn_failed("s", now=10.0)
    assert sup.state_of("s") == EXHAUSTED
    assert sup.respawns == 0  # only successes count


# -- inline cluster respawn (virtual clock, deterministic) -----------------


def test_inline_kill_backoff_respawn_rejoin(tmp_path):
    cluster = ServingCluster(
        shards=3,
        mode="inline",
        store_dir=str(tmp_path / "store"),
        supervise=True,
        supervisor_seed=9,
        restart_backoff_base=1.0,
        telemetry=True,
    )
    try:
        first = [cluster.submit(j) for j in demo_workload(6)]
        cluster.run_pending()
        assert all(t.result(timeout=0).status == DONE for t in first)

        cluster.kill_shard("shard-1")
        assert "shard-1" not in cluster.ring
        actions = cluster.check_shards()
        assert actions["shard-1"] == "backoff"
        assert "shard-1" not in cluster.ring  # still waiting

        cluster.clock.advance(2.0)  # past the jittered ~1s backoff
        actions = cluster.check_shards()
        assert actions["shard-1"] == "respawned"
        assert "shard-1" in cluster.ring
        assert len(cluster.ring) == 3

        # the respawned shard serves traffic again
        second = [cluster.submit(j) for j in demo_workload(6)]
        cluster.run_pending()
        assert all(t.result(timeout=0).status == DONE for t in second)

        health = cluster.health()
        assert health["supervisor"]["respawns"] == 1
        shard_state = health["supervisor"]["shards"]["shard-1"]
        assert shard_state["state"] == RUNNING
        assert shard_state["restarts"] == 1
        kinds = [e.kind for e in cluster.telemetry.recent()]
        assert "respawn" in kinds
    finally:
        cluster.stop()


def test_inline_respawn_warms_from_the_shared_store(tmp_path):
    cluster = ServingCluster(
        shards=2,
        mode="inline",
        store_dir=str(tmp_path / "store"),
        supervise=True,
        restart_backoff_base=0.0,
    )
    try:
        jobs = repeated_spec_workload(8, seed=0, unique=4)
        tickets = [cluster.submit(j) for j in jobs]
        cluster.run_pending()
        assert all(t.result(timeout=0).status == DONE for t in tickets)
        cluster.kill_shard("shard-0")
        assert cluster.check_shards()["shard-0"] in ("backoff", "respawned")
        cluster.clock.advance(1.0)
        cluster.check_shards()
        assert "shard-0" in cluster.ring
        # re-serving the same specs hits a warm tier, recomputes nothing:
        # the respawned shard starts cold, so only the warm-up can have
        # put them in its memory tier
        before = cluster.health()["store"]
        again = [
            cluster.submit(j)
            for j in repeated_spec_workload(4, seed=0, unique=4)
        ]
        cluster.run_pending()
        responses = [t.result(timeout=0) for t in again]
        assert all(r.status == DONE for r in responses)
        assert all(r.detail.get("cached") for r in responses)
        after = cluster.health()["store"]
        assert {k: after[k] - before[k] for k in after} == {
            "memory": 4, "shared": 0, "disk": 0, "miss": 0, "puts": 0,
        }
        assert "shard-0" in {shard for _, shard in cluster.assignments[-4:]}
    finally:
        cluster.stop()


def _respawned_shard_state(store_dir, mode):
    """Serve 8 jobs, kill shard-0, let the supervisor respawn it; the
    respawned shard's store stats and the cluster's warm events."""
    cluster = ServingCluster(
        shards=2,
        mode=mode,
        workers_per_shard=1,
        store_dir=store_dir,
        supervise=True,
        restart_backoff_base=0.0,
        telemetry=True,
    )
    try:
        jobs = repeated_spec_workload(8, seed=0, unique=4)
        tickets = [cluster.submit(j) for j in jobs]
        cluster.run_pending()
        assert all(t.result(timeout=120).status == DONE for t in tickets)
        cluster.kill_shard("shard-0")
        # backoff 0: the first pass schedules the respawn, the next runs it
        assert cluster.check_shards()["shard-0"] == "backoff"
        assert cluster.check_shards()["shard-0"] == "respawned"
        # a process shard answers the health RPC after the warm op, and
        # ships the warm event before that answer
        store = cluster.health()["shards"]["shard-0"]["store"]
        warms = [
            (e.shard, e.attrs)
            for e in cluster.telemetry.recent()
            if e.kind == "warm"
        ]
        return store, warms
    finally:
        cluster.stop()


def test_a_respawned_shard_starts_cold_on_either_transport(tmp_path):
    inline = _respawned_shard_state(str(tmp_path / "inline"), "inline")
    process = _respawned_shard_state(str(tmp_path / "process"), "process")
    assert inline == process
    store, warms = inline
    # a fresh view: nothing served or written yet; the warm-up read the
    # 8 recent points from disk (4 distinct, each twice: disk or shared
    # first, then memory)
    assert store["memory"] == 4
    assert store["shared"] + store["disk"] == 4
    assert store["miss"] == store["puts"] == 0
    assert warms == [("shard-0", (("count", 8),))]


def test_exhausted_shard_stays_out_of_the_ring(tmp_path):
    cluster = ServingCluster(
        shards=2,
        mode="inline",
        store_dir=str(tmp_path / "store"),
        supervise=True,
        restart_budget=1,
        restart_backoff_base=0.0,
    )
    try:
        cluster.kill_shard("shard-0")
        cluster.clock.advance(1.0)
        assert cluster.check_shards()["shard-0"] in ("backoff", "respawned")
        cluster.clock.advance(1.0)
        cluster.check_shards()
        assert "shard-0" in cluster.ring  # respawn 1/1 landed

        cluster.kill_shard("shard-0")
        cluster.clock.advance(10.0)
        actions = cluster.check_shards()
        assert actions["shard-0"] == "exhausted"
        assert "shard-0" not in cluster.ring
        # further passes never flap the ring
        cluster.clock.advance(100.0)
        assert cluster.check_shards().get("shard-0") == "exhausted"
        assert "shard-0" not in cluster.ring
        health = cluster.health()
        assert health["supervisor"]["shards"]["shard-0"]["state"] == EXHAUSTED
    finally:
        cluster.stop()


# -- satellite 1: the slow-but-alive shard regression (process mode) -------


def test_stalled_shard_is_suspect_not_evicted(tmp_path):
    """Heartbeat-stale inside the debounce window => no rebalance."""
    cluster = ServingCluster(
        shards=2,
        mode="process",
        workers_per_shard=1,
        store_dir=str(tmp_path / "store"),
        heartbeat_interval=0.1,
        heartbeat_timeout=0.5,
        rebalance_debounce=30.0,
    )
    try:
        jobs = repeated_spec_workload(4, seed=0, unique=2)
        tickets = [cluster.submit(j) for j in jobs]
        assert all(t.result(timeout=120).status == DONE for t in tickets)

        assert cluster.stall_shard("shard-1", 1.5)
        time.sleep(0.8)  # past heartbeat_timeout, inside the stall
        actions = cluster.check_shards()
        assert actions.get("shard-1") == "suspect"
        assert "shard-1" in cluster.ring  # never evicted
        assert cluster.health()["rebalances"] == 0

        # the stall ends, heartbeats resume, suspicion clears
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            actions = cluster.check_shards()
            if actions.get("shard-1") != "suspect":
                break
            time.sleep(0.1)
        assert actions.get("shard-1") is None
        assert "shard-1" in cluster.ring
        assert cluster.health()["rebalances"] == 0

        # and the recovered shard still serves
        again = [cluster.submit(j) for j in repeated_spec_workload(2, seed=0, unique=2)]
        assert all(t.result(timeout=120).status == DONE for t in again)
    finally:
        cluster.stop()
