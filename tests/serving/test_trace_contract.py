"""The served-job trace contract: a canonical-trace golden and phase nesting.

``canonical_traces.golden.json`` holds the :func:`canonical_trace` JSON of
a fixed traced workload on an inline 3-shard cluster: an observed
``lapack`` job (so its phase tree hangs under ``execute``), a repeat of
the same spec served from the shared store, a word-capped job degraded
at admission, and a job the front door sheds.  Span identity, structure,
status, counters and attributes must reproduce it byte-for-byte.
"""

import json
import os

from repro.experiments.spec import SpecPoint
from repro.observability.tracing import canonical_trace
from repro.serving.api import DONE, Job
from repro.serving.budget import Budget
from repro.serving.clock import MONOTONIC
from repro.serving.cluster import ServingCluster
from repro.serving.service import FactorizationService

GOLDEN = os.path.join(os.path.dirname(__file__), "canonical_traces.golden.json")


def seq_point(n=32, M=96, seed=0, **kw):
    return SpecPoint(
        kind="sequential",
        algorithm="lapack",
        layout="column-major",
        n=n,
        M=M,
        seed=seed,
        **kw,
    )


def golden_workload_traces():
    cluster = ServingCluster(shards=3, mode="inline", tracing=True)
    try:
        responses = []
        for job in (
            Job(point=seq_point(observe=True)),
            Job(point=seq_point(observe=True)),
            Job(point=seq_point(n=64, M=192), budget=Budget(max_words=10)),
        ):
            ticket = cluster.submit(job)
            cluster.run_pending()
            responses.append(ticket.result(timeout=0))
    finally:
        cluster.stop()
    # a closed front door sheds without touching a shard
    responses.append(cluster.submit(seq_point(seed=1)).result(timeout=0))
    return responses


def test_canonical_traces_match_the_golden():
    responses = golden_workload_traces()
    assert [r.status for r in responses] == ["done", "done", "degraded", "shed"]
    assert responses[1].detail.get("cached") is True
    text = json.dumps([canonical_trace(r.trace) for r in responses], indent=1)
    with open(GOLDEN, encoding="utf-8") as fh:
        assert fh.read() == text + "\n"


def test_observed_phases_nest_inside_execute_on_the_monotonic_clock():
    svc = FactorizationService(
        workers=0, retries=0, tracing=True, clock=MONOTONIC
    )
    try:
        ticket = svc.submit(seq_point(observe=True))
        svc.run_pending()
        response = ticket.result(timeout=0)
    finally:
        svc.stop()
    assert response.status == DONE
    spans = list(response.trace)
    execute = next(s for s in spans if s.name == "execute")
    phases = [s for s in spans if s.name not in ("job", "queue", "execute")]
    assert phases, "an observed run grafts its phase tree under execute"
    for span in phases:
        assert execute.t_start <= span.t_start <= span.t_end <= execute.t_end, (
            span.name, span.t_start, span.t_end, execute.t_start, execute.t_end
        )
