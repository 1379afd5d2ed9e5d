"""Telemetry bus: events, wire round-trip, aggregation, cluster wiring."""

import json

import pytest

from repro.experiments.spec import SpecPoint
from repro.faults.plan import FaultPlan
from repro.observability.metrics import MetricsRegistry
from repro.serving.cluster import ServingCluster
from repro.serving.service import FactorizationService
from repro.serving.telemetry import (
    BREAKER_STATES,
    ClusterTelemetry,
    TelemetryBus,
    TelemetryEvent,
    make_event,
)
from repro.serving.workloads import demo_workload


def seq_point(n=32, M=96, seed=0, **kw):
    return SpecPoint(
        kind="sequential", algorithm="lapack", layout="column-major",
        n=n, M=M, seed=seed, **kw,
    )


class TestEvent:
    def test_wire_roundtrip_exact(self):
        e = make_event("shed", "shard-1", 1.5, {"reason": "queue-full",
                                                "job_id": "job-3"})
        wire = json.loads(json.dumps(e.to_wire()))
        assert TelemetryEvent.from_wire(wire) == e

    def test_attrs_are_sorted(self):
        e = make_event("x", "s", 0.0, {"b": 1, "a": 2})
        assert [k for k, _ in e.attrs] == ["a", "b"]
        assert e.attr("a") == 2
        assert e.attr("missing", "d") == "d"


class TestBus:
    def test_emit_counts_and_recent(self):
        bus = TelemetryBus("shard-0", capacity=4)
        for i in range(6):
            bus.emit("done", float(i), {"job_id": f"job-{i}"})
        assert bus.counts() == {"done": 6}
        recent = bus.recent()
        assert len(recent) == 4  # bounded ring
        assert recent[-1].t == 5.0

    def test_drain_wire_hands_off_exactly_once(self):
        bus = TelemetryBus("shard-0")
        bus.emit("shed", 0.0, {"reason": "queue-full"})
        batch = bus.drain_wire()
        assert len(batch) == 1 and batch[0]["kind"] == "shed"
        assert bus.drain_wire() == []
        assert bus.counts() == {"shed": 1}  # counts survive draining

    def test_subscribers_see_every_emit(self):
        bus = TelemetryBus("shard-0")
        seen = []
        bus.subscribe(seen.append)
        bus.emit("retry", 1.0)
        assert [e.kind for e in seen] == ["retry"]


class TestAggregator:
    def test_ingest_publishes_per_shard_metrics(self):
        reg = MetricsRegistry()
        agg = ClusterTelemetry(registry=reg)
        agg.ingest(make_event("queue_wait", "shard-0", 0.0,
                              {"seconds": 0.25}))
        agg.ingest(make_event("store", "shard-0", 0.0, {"tier": "shared"}))
        agg.ingest(make_event("breaker", "shard-1", 0.0,
                              {"algorithm": "pxpotrf", "to": "open"}))
        assert reg.value("repro_telemetry_events_total", shard="shard-0",
                         kind="store") == 1
        hist = reg.value("repro_shard_queue_wait_seconds", shard="shard-0")
        assert hist.count == 1 and hist.total == pytest.approx(0.25)
        assert reg.value("repro_shard_store_events_total", shard="shard-0",
                         tier="shared") == 1
        assert reg.value("repro_cluster_breaker_state", shard="shard-1",
                         algorithm="pxpotrf") == BREAKER_STATES["open"]


class TestServiceEvents:
    def test_terminal_and_queue_events_flow(self):
        events = []
        svc = FactorizationService(
            workers=0, queue_capacity=16, retries=0,
            on_event=lambda kind, t, attrs: events.append((kind, attrs)),
        )
        with svc:
            ticket = svc.submit(seq_point())
            svc.run_pending()
            ticket.result(timeout=0)
        kinds = [k for k, _ in events]
        assert kinds == ["queue_wait", "done"]
        done_attrs = dict(events[-1][1])
        assert done_attrs["cached"] is False

    def test_retry_and_breaker_events(self):
        events = []
        plan = FaultPlan(seed=1, drop=0.99, max_attempts=1)
        point = SpecPoint(
            kind="parallel", algorithm="pxpotrf", layout="block-cyclic",
            n=16, P=4, block=8, seed=1, verify=False, faults=plan.freeze(),
        )
        svc = FactorizationService(
            workers=0, queue_capacity=16, retries=1, breaker_threshold=2,
            on_event=lambda kind, t, attrs: events.append(kind),
        )
        with svc:
            ticket = svc.submit(point)
            svc.run_pending()
            ticket.result(timeout=0)
        assert "retry" in events
        assert "breaker" in events  # two consecutive failures trip it

    def test_no_callback_means_no_events(self):
        svc = FactorizationService(workers=0, queue_capacity=4, retries=0)
        assert svc.on_event is None
        with svc:
            t = svc.submit(seq_point())
            svc.run_pending()
            assert t.result(timeout=0).status == "done"


class TestClusterTelemetry:
    def test_inline_cluster_aggregates_per_shard(self):
        cluster = ServingCluster(shards=2, mode="inline", telemetry=True)
        try:
            tickets = [cluster.submit(j) for j in demo_workload(8)]
            cluster.run_pending()
            for t in tickets:
                t.result(timeout=0)
            counts = cluster.telemetry.counts()
        finally:
            cluster.stop()
        assert set(counts) <= {"shard-0", "shard-1"}
        total_done = sum(c.get("done", 0) for c in counts.values())
        assert total_done == 8
        # every executed job passed the queue and did a store lookup
        for shard_counts in counts.values():
            assert shard_counts["queue_wait"] == shard_counts["done"]
            assert shard_counts["store"] == shard_counts["done"]

    def test_telemetry_off_is_none(self):
        cluster = ServingCluster(shards=1, mode="inline")
        try:
            assert cluster.telemetry is None
            t = cluster.submit(demo_workload(1)[0])
            cluster.run_pending()
            assert t.result(timeout=0).status == "done"
        finally:
            cluster.stop()

    def test_health_embeds_telemetry_counts(self):
        cluster = ServingCluster(shards=1, mode="inline", telemetry=True)
        try:
            t = cluster.submit(demo_workload(1)[0])
            cluster.run_pending()
            t.result(timeout=0)
            h = cluster.health()
        finally:
            cluster.stop()
        assert h["telemetry"]["shard-0"]["done"] == 1
