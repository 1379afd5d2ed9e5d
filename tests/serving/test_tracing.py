"""Distributed tracing: deterministic ids, reconciliation, determinism.

The inline cluster's shared :class:`ManualClock` never moves, so every
timestamp is 0.0 and trace determinism can be asserted *byte-for-byte*
— across repeated runs, and across shard counts via the placement-free
:func:`canonical_trace` form.  Counter reconciliation is the
cross-process extension of the span-profile invariant: leaf spans sum
exactly to the job's measured totals.
"""

import json

import pytest

from repro.experiments.spec import SpecPoint
from repro.serving.api import (
    DEGRADED,
    DONE,
    SCHEMA_VERSION,
    SHED,
    Job,
    job_from_wire,
    response_from_wire,
)
from repro.serving.budget import Budget
from repro.serving.cluster import ServingCluster
from repro.serving.service import FactorizationService
from repro.serving.workloads import demo_workload
from repro.observability.export import chrome_trace_events
from repro.observability.tracing import (
    ROOT_SPAN,
    SPAN_ID_HEX,
    TRACE_ID_HEX,
    TraceContext,
    TraceInvariantError,
    canonical_trace,
    derive_span_id,
    job_span,
    mint_trace_id,
    root_context,
    trace_coverage,
    trace_from_records,
    trace_records,
    validate_trace,
)


def seq_point(algorithm="lapack", n=32, M=96, seed=0, **kw):
    return SpecPoint(
        kind="sequential",
        algorithm=algorithm,
        layout="column-major",
        n=n,
        M=M,
        seed=seed,
        **kw,
    )


def traced_service(**kw):
    kw.setdefault("workers", 0)
    kw.setdefault("queue_capacity", 16)
    kw.setdefault("retries", 0)
    kw.setdefault("tracing", True)
    return FactorizationService(**kw)


def run_one(svc, job_or_point, **kw):
    ticket = svc.submit(job_or_point, **kw)
    svc.run_pending()
    return ticket.result(timeout=0)


def totals_of(response):
    m = response.measurement
    if m is None:
        return {"words": 0, "messages": 0, "flops": 0}
    return {"words": m.words, "messages": m.messages, "flops": m.flops}


class TestIds:
    def test_trace_id_is_content_derived(self):
        key = seq_point().key()
        assert mint_trace_id(key) == mint_trace_id(key)
        assert len(mint_trace_id(key)) == TRACE_ID_HEX
        assert mint_trace_id(key) != mint_trace_id(seq_point(seed=1).key())

    def test_span_id_depends_on_all_coordinates(self):
        base = derive_span_id("t" * 32, None, "queue", 0)
        assert len(base) == SPAN_ID_HEX
        assert base != derive_span_id("t" * 32, None, "queue", 1)
        assert base != derive_span_id("t" * 32, "p" * 16, "queue", 0)
        assert base != derive_span_id("t" * 32, None, "execute", 0)

    def test_root_context_shape(self):
        ctx = root_context(seq_point().key())
        assert ctx.parent_span_id is None
        assert ctx.span_id == derive_span_id(ctx.trace_id, None, ROOT_SPAN, 0)
        assert ctx.traceparent() == f"00-{ctx.trace_id}-{ctx.span_id}-01"

    def test_context_child_and_roundtrip(self):
        ctx = root_context(seq_point().key())
        child = ctx.child("route")
        assert child.parent_span_id == ctx.span_id
        assert child.trace_id == ctx.trace_id
        assert TraceContext.from_dict(ctx.to_dict()) == ctx


class SteppingClock:
    """Advances one second per reading, so every stage has width."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def trace_of(*children, words=0, messages=0, flops=0, t_end=2.0):
    return job_span(
        ROOT_SPAN, 0.0, t_end, process="svc", status=DONE,
        counts={"words": words, "messages": messages, "flops": flops},
        children=children, trace_id=root_context("k").trace_id,
    )


class TestJobTrace:
    def test_stages_tile_the_window(self):
        with traced_service(clock=SteppingClock()) as svc:
            response = run_one(svc, seq_point())
        root = response.trace
        queue, execute = root.children
        assert (queue.name, execute.name) == ("queue", "execute")
        assert queue.t_start == root.t_start < queue.t_end
        assert queue.t_end == execute.t_start < execute.t_end == root.t_end

    def test_repeated_names_get_distinct_ids(self):
        trace = trace_of(
            job_span("retry", 0.0, 1.0, process="svc"),
            job_span("retry", 1.0, 2.0, process="svc"),
        )
        root, a, b = (r["span_id"] for r in trace_records(trace))
        assert a != b
        assert a == derive_span_id(trace.trace_id, root, "retry", 0)
        assert b == derive_span_id(trace.trace_id, root, "retry", 1)

    def test_root_span_id_is_the_context_span(self):
        ctx = root_context(seq_point().key())
        with traced_service() as svc:
            response = run_one(svc, seq_point())
        root = trace_records(response.trace)[0]
        assert root["name"] == ROOT_SPAN
        assert (root["trace_id"], root["span_id"]) == (ctx.trace_id, ctx.span_id)
        assert root["parent_span_id"] is None
        validate_trace(response.trace, totals_of(response))


class TestInvariants:
    def _trace(self):
        return trace_of(
            job_span("queue", 0.0, 1.0, process="svc"),
            job_span("execute", 1.0, 2.0, process="svc", status=DONE,
                     counts={"words": 10, "messages": 2, "flops": 5}),
            words=10, messages=2, flops=5,
        )

    def test_tree_and_leaf_sums(self):
        root = trace_from_records(trace_records(self._trace()))
        assert root == self._trace()
        assert root.name == ROOT_SPAN
        assert len(root.children) == 2
        sums = validate_trace(
            root, {"words": 10, "messages": 2, "flops": 5}
        )
        assert sums == {"words": 10, "messages": 2, "flops": 5}

    def test_total_mismatch_raises(self):
        with pytest.raises(TraceInvariantError):
            validate_trace(self._trace(), {"words": 11, "messages": 2,
                                           "flops": 5})

    def test_empty_and_orphan_rejected(self):
        with pytest.raises(TraceInvariantError):
            trace_from_records([])
        records = trace_records(self._trace())
        orphan = dict(records[1], parent_span_id="b" * 16)
        with pytest.raises(TraceInvariantError):
            trace_from_records([records[0], orphan, records[2]])

    def test_coverage_of_tiled_spans_is_total(self):
        assert trace_coverage(self._trace()) == 1.0

    def test_coverage_flags_gaps(self):
        trace = trace_of(
            job_span("queue", 0.0, 1.0, process="svc"),
            job_span("execute", 9.0, 10.0, process="svc"),  # 8s unaccounted
            t_end=10.0,
        )
        assert trace_coverage(trace) == pytest.approx(0.2)


class TestServiceTracing:
    def test_done_job_reconciles_and_covers(self):
        with traced_service() as svc:
            response = run_one(svc, seq_point())
        assert response.trace is not None
        validate_trace(response.trace, totals_of(response))
        assert response.trace.status == DONE
        names = {r.name for r in response.trace}
        assert {"job", "queue", "execute"} <= names
        assert trace_coverage(response.trace) >= 0.99

    def test_profile_grafts_under_execute(self):
        with traced_service() as svc:
            response = run_one(svc, seq_point(observe=True))
        assert response.measurement.profile is not None
        # the engine's in-process phase spans hang off the execute span
        (execute,) = [s for s in response.trace if s.name == "execute"]
        (phases,) = execute.children
        assert len({s.name for s in phases}) > 1
        assert {s.process for s in phases} == {"service"}
        validate_trace(response.trace, totals_of(response))

    def test_unreconciled_profile_is_left_out(self):
        from repro.observability.tracing import attach_phases

        execute = job_span("execute", 1.0, 2.0, process="svc",
                           counts={"words": 10, "messages": 2, "flops": 5})
        profile = job_span("run", 0.0, 0.5, process="", counts={"words": 9})
        assert attach_phases(execute, profile.to_dict()) is execute
        assert attach_phases(execute, None) is execute

    def test_cache_hit_records_cache_span(self, tmp_path):
        from repro.experiments.cache import ResultCache

        point = seq_point()
        with traced_service(cache=ResultCache(tmp_path / "c")) as svc:
            run_one(svc, point)
            second = run_one(svc, point)
        assert second.detail.get("cached") is True
        assert "cache" in {r.name for r in second.trace}
        validate_trace(second.trace, totals_of(second))

    def test_degraded_job_reconciles_to_prediction_counts(self):
        with traced_service() as svc:
            response = run_one(
                svc,
                Job(point=seq_point(n=64, M=192), budget=Budget(max_words=10)),
            )
        assert response.status == DEGRADED
        validate_trace(response.trace, totals_of(response))

    def test_shed_job_reconciles_to_zero(self):
        with traced_service(queue_capacity=1) as svc:
            svc.submit(seq_point(seed=1))
            shed = svc.submit(seq_point(seed=2)).result(timeout=0)
            svc.run_pending()
        assert shed.status == SHED
        validate_trace(shed.trace, {"words": 0, "messages": 0, "flops": 0})

    def test_tracing_off_is_zero_cost(self):
        with traced_service(tracing=False) as svc:
            response = run_one(svc, seq_point())
        assert response.trace is None
        assert "trace" not in response.to_dict()


class TestWireSchema:
    def test_job_roundtrip_carries_trace(self):
        job = Job(point=seq_point(), trace=root_context(seq_point().key()))
        wire = job.to_wire()
        assert wire["schema_version"] == SCHEMA_VERSION == 3
        back = job_from_wire(json.loads(json.dumps(wire)))
        assert back.trace == job.trace

    def test_untraced_job_wire_has_no_trace_key(self):
        wire = Job(point=seq_point()).to_wire()
        assert "trace" not in wire

    def test_legacy_v1_job_accepted(self):
        wire = Job(point=seq_point()).to_wire()
        wire["schema_version"] = 1
        back = job_from_wire(wire)
        assert back.trace is None

    def test_response_roundtrip_carries_trace(self):
        with traced_service() as svc:
            response = run_one(svc, seq_point())
        wire = json.loads(json.dumps(response.to_wire()))
        back = response_from_wire(wire)
        assert back.trace == response.trace
        validate_trace(back.trace, totals_of(back))

    def test_response_trace_records_keep_their_keys(self):
        with traced_service() as svc:
            response = run_one(svc, seq_point(observe=True))
        records = response.to_wire()["trace"]
        assert {tuple(r) for r in records} == {(
            "trace_id", "span_id", "parent_span_id", "name", "process",
            "t_start", "t_end", "status", "words", "messages", "flops",
            "attrs",
        )}
        assert len({r["span_id"] for r in records}) == len(records)
        assert len(records) == sum(1 for _ in response.trace)

    def test_broken_trace_is_a_wire_error(self):
        from repro.serving.api import WireError

        with traced_service() as svc:
            wire = run_one(svc, seq_point()).to_wire()
        wire["trace"] = wire["trace"][1:]  # drop the root
        with pytest.raises(WireError, match="root"):
            response_from_wire(wire)


class TestClusterDeterminism:
    def _run(self, shards, count=10):
        cluster = ServingCluster(
            shards=shards, mode="inline", tracing=True
        )
        try:
            tickets = [cluster.submit(j) for j in demo_workload(count)]
            cluster.run_pending()
            return [t.result(timeout=0) for t in tickets]
        finally:
            cluster.stop()

    def test_repeat_runs_are_byte_identical(self):
        first = self._run(3)
        second = self._run(3)
        for a, b in zip(first, second):
            assert json.dumps(canonical_trace(a.trace)) == json.dumps(
                canonical_trace(b.trace)
            )

    def test_shard_count_does_not_change_canonical_traces(self):
        one = self._run(1)
        three = self._run(3)
        for a, b in zip(one, three):
            assert canonical_trace(a.trace) == canonical_trace(b.trace)

    def test_every_trace_reconciles_and_has_frontdoor_root(self):
        for response in self._run(3):
            validate_trace(response.trace, totals_of(response))
            assert response.trace.process == "frontdoor"
            assert "route" in {r.name for r in response.trace}

    def test_chrome_doc_links_tracks_by_trace_id(self):
        responses = self._run(3, count=6)
        events = chrome_trace_events([r.trace for r in responses])
        tracks = {
            e["args"]["name"] for e in events if e["name"] == "thread_name"
        }
        assert "frontdoor" in tracks
        assert any(t.startswith("shard-") for t in tracks)
        slices = [e for e in events if e["ph"] == "X"]
        assert {e["args"]["trace_id"] for e in slices} == {
            r.trace.trace_id for r in responses
        }
        for ev in events:
            for key in ("ph", "ts", "pid", "tid", "name"):
                assert key in ev


@pytest.mark.slow
class TestProcessModeTracing:
    def test_merged_trace_covers_observed_latency(self):
        cluster = ServingCluster(
            shards=2, mode="process", tracing=True, workers_per_shard=2
        )
        jobs = demo_workload(6) + [Job(point=seq_point(n=64, M=192, observe=True))]
        try:
            tickets = [cluster.submit(j) for j in jobs]
            responses = [t.result(timeout=120) for t in tickets]
        finally:
            cluster.stop()
        for response in responses:
            assert response.status == DONE
            validate_trace(response.trace, totals_of(response))
            assert response.trace.duration > 0.0
            assert trace_coverage(response.trace) >= 0.99
            processes = {r.process for r in response.trace}
            assert "frontdoor" in processes
            assert any(p.startswith("shard-") for p in processes)
        # re-based onto the front door's clock, the observed run's
        # phases still sit inside its execute span
        (execute,) = [s for s in responses[-1].trace if s.name == "execute"]
        (phases,) = execute.children
        for span in phases:
            assert execute.t_start <= span.t_start <= span.t_end <= execute.t_end
