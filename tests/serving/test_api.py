"""The typed request/response API: wire round-trips, versioning, tickets."""

import pytest

from repro.results import Measurement
from repro.serving.api import (
    DEGRADED,
    DONE,
    SCHEMA_VERSION,
    JobTicket,
    ServiceResponse,
    WireError,
    chol_request,
    job_from_wire,
    job_to_wire,
    pxpotrf_request,
    response_from_wire,
    response_to_wire,
)
from repro.serving.budget import Budget
from repro.serving.degrade import predict_point
from repro.serving.queue import PRIORITY_HIGH, PRIORITY_NORMAL


def _measurement(n=8) -> Measurement:
    return Measurement(
        algorithm="lapack",
        layout="column-major",
        n=n,
        M=3 * n,
        words=10,
        messages=2,
        words_read=8,
        words_written=2,
        flops=30,
        correct=True,
        seed=1,
    )


# -- builders --------------------------------------------------------------


def test_chol_request_defaults_and_overrides():
    job = chol_request(n=48)
    assert job.point.kind == "sequential"
    assert job.point.M == 144  # 3*n default
    assert job.point.verify
    assert job.priority == PRIORITY_NORMAL
    job = chol_request(
        n=48, M=96, priority="high", budget=Budget(max_words=10)
    )
    assert job.point.M == 96
    assert job.priority == PRIORITY_HIGH
    assert job.budget.max_words == 10


def test_pxpotrf_request_validates_the_grid():
    job = pxpotrf_request(n=64, P=4)
    assert job.point.block == 32  # n // sqrt(P)
    assert job.point.layout == "block-cyclic"
    with pytest.raises(ValueError, match="perfect square"):
        pxpotrf_request(n=64, P=5)


# -- job wire --------------------------------------------------------------


def test_job_wire_round_trip():
    job = chol_request(
        n=32, algorithm="toledo", priority="high", budget=Budget(max_flops=99)
    )
    wire = job_to_wire(job)
    assert wire["schema_version"] == SCHEMA_VERSION
    back = job_from_wire(wire)
    assert back.job_id == job.job_id
    assert back.point == job.point
    assert back.priority == job.priority
    assert back.budget == job.budget
    # and the round trip is exact at the wire level too
    assert job_to_wire(back) == wire


def test_legacy_unversioned_job_record_is_accepted_as_v1():
    record = {
        "point": chol_request(n=16).point.to_dict(),
        "priority": "low",
    }
    job = job_from_wire(record)  # no schema_version field at all
    assert job.point.n == 16
    assert job.budget is None


def test_job_wire_refuses_future_schema_and_garbage():
    wire = job_to_wire(chol_request(n=16))
    wire["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(WireError, match="newer"):
        job_from_wire(wire)
    with pytest.raises(WireError, match="point"):
        job_from_wire({"priority": "high"})
    with pytest.raises(WireError, match="schema_version"):
        job_from_wire({"point": {}, "schema_version": "nope"})


# -- response wire ---------------------------------------------------------


def test_response_wire_round_trip_done():
    resp = ServiceResponse(
        job_id="job-7",
        status=DONE,
        detail={"cached": True},
        measurement=_measurement(),
        attempts=1,
        wall_seconds=0.25,
        priority=PRIORITY_HIGH,
    )
    wire = response_to_wire(resp)
    assert wire["schema_version"] == SCHEMA_VERSION
    back = response_from_wire(wire)
    assert back == resp
    assert response_to_wire(back) == wire


def test_response_wire_round_trip_degraded_with_prediction():
    point = chol_request(n=32).point
    pred = predict_point(point)
    assert pred is not None
    resp = ServiceResponse(
        job_id="job-8",
        status=DEGRADED,
        reason="budget-words",
        detail={"violated": "words"},
        prediction=pred,
    )
    back = response_from_wire(response_to_wire(resp))
    assert back.prediction == pred
    assert back.degraded and back.ok


def test_response_wire_recomputes_the_derived_degraded_flag():
    wire = response_to_wire(ServiceResponse(job_id="j", status=DONE))
    wire["degraded"] = True  # a lying document
    assert not response_from_wire(wire).degraded


def test_response_wire_refuses_bad_documents():
    with pytest.raises(WireError, match="status"):
        response_from_wire({"job_id": "j", "status": "exploded"})
    with pytest.raises(WireError, match="missing"):
        response_from_wire({"status": DONE})
    good = response_to_wire(ServiceResponse(job_id="j", status=DONE))
    good["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(WireError, match="newer"):
        response_from_wire(good)


# -- tickets ---------------------------------------------------------------


def test_ticket_done_callback_fires_on_resolution_and_late_attach():
    job = chol_request(n=8)
    ticket = JobTicket(job)
    seen = []
    ticket.add_done_callback(lambda r: seen.append(("early", r.status)))
    assert not ticket.done()
    ticket.resolve(ServiceResponse(job_id=job.job_id, status=DONE))
    assert seen == [("early", DONE)]
    ticket.add_done_callback(lambda r: seen.append(("late", r.status)))
    assert seen == [("early", DONE), ("late", DONE)]


def test_cluster_ticket_resolution_is_idempotent():
    """The front door's ticket is a JobTicket: the first response wins
    and a duplicate (a resubmitted job answering twice) is dropped."""
    job = chol_request(n=8)
    ticket = JobTicket(job)
    first = ServiceResponse(job_id=job.job_id, status=DONE)
    dup = ServiceResponse(job_id=job.job_id, status=DEGRADED)
    assert ticket.resolve(first)
    assert not ticket.resolve(dup)  # duplicate swallowed, not raised
    assert ticket.result(timeout=0) == first


# -- schema edges: legacy v1, untraced v2, journal embedding ---------------


def test_untraced_documents_round_trip_as_legacy_v1():
    """A trace-absent v2 document is byte-shaped like v1: downgrading
    its version tag and re-parsing yields the same object."""
    job = chol_request(n=24, priority="low")
    wire = job_to_wire(job)
    assert "trace" not in wire  # omitted-when-absent, not null
    legacy = dict(wire)
    legacy["schema_version"] = 1
    back = job_from_wire(legacy)
    assert back.job_id == job.job_id
    assert back.point == job.point
    assert back.trace is None

    resp = ServiceResponse(
        job_id=job.job_id, status=DONE, measurement=_measurement(24)
    )
    rwire = response_to_wire(resp)
    assert "trace" not in rwire
    rlegacy = dict(rwire)
    rlegacy["schema_version"] = 1
    rback = response_from_wire(rlegacy)
    assert rback == resp
    assert rback.trace is None


def test_journal_records_serialize_to_a_stable_golden(tmp_path):
    """The journal's canonical line forms are a wire contract: recovery
    of an old journal by a newer front door depends on them."""
    import json

    from repro.serving.journal import JobJournal

    job = chol_request(n=16, verify=False)
    job.job_id = "job-golden"
    journal = JobJournal(str(tmp_path), clock=lambda: 1.5, sync=False)
    journal.record_accepted(job, "k-abc")
    journal.record_assigned(job.job_id, "k-abc", "shard-0")
    journal.record_terminal(job.job_id, "k-abc", DONE)
    journal.record_terminal("job-other", "k-def", "shed", reason="queue-full")
    journal.close()

    point = (
        '{"M":48,"P":null,"algorithm":"lapack","block":null,"faults":null,'
        '"kind":"sequential","layout":"column-major","n":16,"observe":false,'
        '"params":[],"seed":0,"verify":false}'
    )
    expected = [
        '{"job":{"budget":null,"job_id":"job-golden","point":' + point
        + ',"priority":"normal","schema_version":3},"job_id":"job-golden",'
        '"key":"k-abc","record":"accepted","seq":1,"t":1.5}',
        '{"job_id":"job-golden","key":"k-abc","record":"assigned","seq":2,'
        '"shard":"shard-0","t":1.5}',
        '{"job_id":"job-golden","key":"k-abc","record":"completed","seq":3,'
        '"status":"done","t":1.5}',
        '{"job_id":"job-other","key":"k-def","reason":"queue-full",'
        '"record":"shed","seq":4,"status":"shed","t":1.5}',
    ]
    lines = open(journal.path, encoding="utf-8").read().splitlines()
    assert lines == expected
    # the embedded job document is the v2 wire form, verbatim — replay
    # parses it with the same job_from_wire as live submissions
    embedded = json.loads(lines[0])["job"]
    assert embedded == job_to_wire(job)
    replayed = job_from_wire(embedded)
    assert replayed.job_id == "job-golden"
    assert replayed.point == job.point
