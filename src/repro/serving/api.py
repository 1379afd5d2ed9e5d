"""The serving layer's typed request/response API and its wire schema.

This module is the single definition of what a serving request and a
serving response *are*.  Every front end — the in-process
:class:`~repro.serving.service.FactorizationService`, the sharded
:class:`~repro.serving.cluster.ServingCluster`, the
:class:`~repro.serving.client.ServingClient` facade, the CLI and the
benchmarks — speaks exactly these types, so a response printed by
``repro submit`` deserializes into the same object a cluster shard
produced.

Request side
------------

A :class:`Job` wraps one :class:`~repro.experiments.spec.SpecPoint` —
the same execution unit the experiment engine runs — with the serving
metadata admission control needs: a priority grade, a
:class:`~repro.serving.budget.Budget`, and the submission timestamp
deadlines are measured from.  :func:`chol_request` and
:func:`pxpotrf_request` are the typed builders the CLI and the
workload generators share (they replaced several hand-rolled
point-construction paths).

Response side
-------------

Every job ends in exactly one terminal :class:`ServiceResponse` whose
``status`` is one of

``done``
    The full simulation ran within budget; ``measurement`` is exact.
``degraded``
    The budget, deadline or breaker forbade full simulation; the
    closed-form Table 1/2 prediction is served instead
    (``measurement`` holds the predicted counts, ``prediction``
    carries the documented error bounds, ``reason`` says why).
``shed``
    Admission control refused the job (queue full, in-flight limit,
    eviction by higher priority, shutdown); nothing ran.
``failed``
    The simulation failed for a non-budget reason (fault exhaustion,
    a non-SPD input, an invalid configuration) and no closed form was
    applicable or permitted.

``reason`` is always machine-readable (a stable slug like
``queue-full`` or ``budget-words``); ``detail`` carries the structured
specifics (limits, spends, queue occupancy, predictions).

Wire schema
-----------

Jobs and responses cross process boundaries (cluster shard pipes,
workload files, CLI output, soak artifacts) as JSON dicts stamped with
``schema_version``.  :func:`job_to_wire`/:func:`job_from_wire` and
:func:`response_to_wire`/:func:`response_from_wire` are the only
(de)serializers; both directions round-trip exactly and both reject a
wire document from an incompatible future schema with
:class:`WireError` instead of misreading it.  Version history:

* **1** — initial versioned schema (PR 6).  Unversioned job records
  (the pre-PR-6 workload-file format) are accepted as version 1.
* **2** — distributed tracing (PR 7): jobs may carry a ``trace``
  context (:class:`~repro.observability.tracing.TraceContext` dict)
  minted at submission, and terminal responses may carry ``trace`` —
  the job's cross-process span tree, one flat record per span
  (:func:`~repro.observability.tracing.trace_records`).  Both
  keys are **omitted when absent**, so an untraced job's wire
  documents are byte-identical to version 1 apart from the stamp,
  and version-1 readers that ignore unknown keys keep working.

* **3** — ABFT (this PR): jobs' points may carry an ``abft``
  protection config (inside ``point``, omitted when off, exactly like
  the version-2 ``trace`` discipline), and terminal responses may
  carry ``verified`` — ``True`` when the measurement's checksum
  protection ran end-to-end and the factor attestation was recorded,
  ``False`` when protection was requested but could not complete.
  Omitted for unprotected jobs, so their wire documents are
  byte-identical to version 2 apart from the stamp.

The write-ahead job journal (PR 8,
:mod:`repro.serving.journal`) embeds each accepted job's current wire
document (version :data:`SCHEMA_VERSION`) verbatim inside its
``accepted`` records, so journal replay goes through
:func:`job_from_wire` and inherits this exact compatibility
contract — including the preservation of the original ``job_id``,
which is what lets a recovery run match its terminal records against
a previous incarnation's acceptances.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.experiments.spec import (
    PARALLEL,
    SEQUENTIAL,
    SpecPoint,
    _freeze_abft,
)
from repro.faults.plan import FaultPlan
from repro.observability.spans import SpanProfile
from repro.observability.tracing import (
    TraceContext,
    TraceInvariantError,
    trace_from_records,
    trace_records,
)
from repro.results import Measurement, freeze_params
from repro.serving.budget import Budget
from repro.serving.degrade import Prediction
from repro.serving.queue import PRIORITY_NORMAL, parse_priority, priority_name

#: Version stamp every wire document carries.  Bump on any change to
#: the job/response wire layout and keep the old readers working.
SCHEMA_VERSION = 3

#: Terminal response statuses.
DONE = "done"
DEGRADED = "degraded"
SHED = "shed"
FAILED = "failed"

TERMINAL_STATUSES = (DONE, DEGRADED, SHED, FAILED)

_job_ids = itertools.count(1)


class WireError(ValueError):
    """A wire document does not parse under any supported schema."""


def _check_schema_version(d: Mapping[str, Any], what: str) -> int:
    """Validate a document's ``schema_version``; returns the version.

    A missing field means a legacy (pre-versioning) document and is
    accepted as version 1; anything newer than :data:`SCHEMA_VERSION`
    is refused rather than guessed at.
    """
    version = d.get("schema_version", 1)
    if not isinstance(version, int) or version < 1:
        raise WireError(f"{what}: bad schema_version {version!r}")
    if version > SCHEMA_VERSION:
        raise WireError(
            f"{what}: schema_version {version} is newer than this "
            f"library understands (max {SCHEMA_VERSION})"
        )
    return version


@dataclass
class Job:
    """One admitted (or about-to-be-admitted) unit of work."""

    point: SpecPoint
    priority: int = PRIORITY_NORMAL
    budget: "Budget | None" = None
    submitted_at: float = 0.0
    job_id: str = field(default_factory=lambda: f"job-{next(_job_ids)}")
    #: Trace context minted at submission when tracing is enabled; an
    #: untraced job carries ``None`` and records nothing anywhere.
    trace: "TraceContext | None" = None

    def label(self) -> str:
        """Short progress-line tag."""
        return f"{self.job_id} [{priority_name(self.priority)}] {self.point.label()}"

    def to_wire(self) -> dict:
        """Versioned JSON-ready wire document for this request."""
        wire = {
            "schema_version": SCHEMA_VERSION,
            "job_id": self.job_id,
            "point": self.point.to_dict(),
            "priority": priority_name(self.priority),
            "budget": None if self.budget is None else self.budget.to_dict(),
        }
        if self.trace is not None:
            wire["trace"] = self.trace.to_dict()
        return wire

    @classmethod
    def from_wire(cls, d: Mapping[str, Any]) -> "Job":
        """Rebuild a request from :meth:`to_wire` output (see module doc)."""
        return job_from_wire(d)


@dataclass(frozen=True)
class ServiceResponse:
    """The terminal answer for one job (see module docstring)."""

    job_id: str
    status: str
    reason: "str | None" = None
    detail: dict = field(default_factory=dict)
    measurement: "Measurement | None" = None
    prediction: "Prediction | None" = None
    attempts: int = 0
    wall_seconds: float = 0.0
    priority: int = PRIORITY_NORMAL
    #: The job's cross-process span tree, rooted at its ``job`` span
    #: (schema v2); ``None`` for untraced jobs, so disabled-mode
    #: payloads match version 1 exactly.
    trace: "SpanProfile | None" = None
    #: ABFT outcome (schema v3): ``True`` when the measurement's
    #: checksum protection verified end-to-end, ``False`` when
    #: protection was requested but did not complete; ``None`` (and
    #: omitted on the wire) for unprotected jobs.
    verified: "bool | None" = None

    @property
    def degraded(self) -> bool:
        """True when the answer is a closed-form bound, not a simulation."""
        return self.status == DEGRADED

    @property
    def ok(self) -> bool:
        """True when the job produced an answer (exact or degraded)."""
        return self.status in (DONE, DEGRADED)

    def to_dict(self) -> dict:
        """JSON-ready dict (CLI output, soak artifacts)."""
        out = {
            "job_id": self.job_id,
            "status": self.status,
            "degraded": self.degraded,
            "reason": self.reason,
            "detail": dict(self.detail),
            "measurement": (
                None if self.measurement is None else self.measurement.to_dict()
            ),
            "prediction": (
                None if self.prediction is None else self.prediction.to_dict()
            ),
            "attempts": int(self.attempts),
            "wall_seconds": float(self.wall_seconds),
            "priority": priority_name(self.priority),
        }
        if self.trace is not None:
            out["trace"] = trace_records(self.trace)
        if self.verified is not None:
            out["verified"] = bool(self.verified)
        return out

    def to_wire(self) -> dict:
        """Versioned JSON-ready wire document for this response."""
        wire = self.to_dict()
        wire["schema_version"] = SCHEMA_VERSION
        return wire

    @classmethod
    def from_wire(cls, d: Mapping[str, Any]) -> "ServiceResponse":
        """Rebuild a response from :meth:`to_wire` output."""
        return response_from_wire(d)


class JobTicket:
    """Handle returned by ``submit``: await the job's terminal response."""

    def __init__(self, job: Job) -> None:
        self.job = job
        self._event = threading.Event()
        self._response: "ServiceResponse | None" = None
        self._callbacks: "list[Callable[[ServiceResponse], None]]" = []
        self._lock = threading.Lock()

    @property
    def job_id(self) -> str:
        return self.job.job_id

    def done(self) -> bool:
        """Has the job reached a terminal state?"""
        return self._event.is_set()

    def add_done_callback(self, fn: "Callable[[ServiceResponse], None]") -> None:
        """Run ``fn(response)`` once the job is terminal.

        Fires immediately (on the calling thread) when the ticket is
        already resolved, otherwise on whichever thread resolves it.
        The cluster front door and the client's streaming window use
        this to fan completions into a queue without polling.
        """
        with self._lock:
            if self._response is None:
                self._callbacks.append(fn)
                return
            response = self._response
        fn(response)

    def resolve(self, response: ServiceResponse) -> bool:
        """Attach the terminal response; the first one wins.

        Returns whether this call delivered it.  A duplicate — a job
        resubmitted after a shard death may, in pathological timing,
        answer twice — is dropped, never raised.
        """
        with self._lock:
            if self._event.is_set():
                return False
            self._response = response
            callbacks, self._callbacks = self._callbacks, []
            self._event.set()
        for fn in callbacks:
            fn(response)
        return True

    def result(self, timeout: "float | None" = None) -> ServiceResponse:
        """Block until terminal; raises ``TimeoutError`` on timeout."""
        if not self._event.wait(timeout=timeout):
            raise TimeoutError(
                f"{self.job_id} not terminal within {timeout}s"
            )
        assert self._response is not None
        return self._response


# -- request builders ------------------------------------------------------


def chol_request(
    *,
    algorithm: str = "lapack",
    layout: str = "column-major",
    n: int = 64,
    M: "int | None" = None,
    seed: int = 0,
    verify: bool = True,
    params: "Mapping[str, Any] | None" = None,
    faults: "FaultPlan | None" = None,
    priority: "str | int" = PRIORITY_NORMAL,
    budget: "Budget | None" = None,
    abft=None,
) -> Job:
    """A sequential-Cholesky job request (``M`` defaults to ``3*n``).

    This is the one construction path for ``chol`` jobs — the CLI, the
    demo/bench/soak workload generators and the docs examples all call
    it, so the default shapes can never drift apart again.  ``abft``
    (config/dict/``True``) requests checksum protection; the terminal
    response then carries ``verified``.
    """
    point = SpecPoint(
        kind=SEQUENTIAL,
        algorithm=algorithm,
        layout=layout,
        n=int(n),
        M=int(M) if M is not None else 3 * int(n),
        seed=int(seed),
        verify=bool(verify),
        params=freeze_params(params),
        faults=() if faults is None or faults.is_empty() else faults.freeze(),
        abft=_freeze_abft(abft),
    )
    return Job(point=point, priority=parse_priority(priority), budget=budget)


def pxpotrf_request(
    *,
    n: int = 64,
    P: int = 4,
    block: "int | None" = None,
    seed: int = 0,
    verify: bool = True,
    faults: "FaultPlan | None" = None,
    priority: "str | int" = PRIORITY_NORMAL,
    budget: "Budget | None" = None,
    abft=None,
) -> Job:
    """A parallel PxPOTRF job request.

    ``P`` must be a perfect square (the 2D processor grid); ``block``
    defaults to ``n // sqrt(P)``.  ``abft`` requests checksum-sealed
    broadcasts (see :func:`chol_request`).
    """
    root = math.isqrt(int(P))
    if root * root != int(P):
        raise ValueError(f"P must be a perfect square, got {P}")
    point = SpecPoint(
        kind=PARALLEL,
        algorithm="pxpotrf",
        layout="block-cyclic",
        n=int(n),
        M=None,
        P=int(P),
        block=int(block) if block is not None else max(1, int(n) // root),
        seed=int(seed),
        verify=bool(verify),
        faults=() if faults is None or faults.is_empty() else faults.freeze(),
        abft=_freeze_abft(abft),
    )
    return Job(point=point, priority=parse_priority(priority), budget=budget)


# -- wire (de)serialization ------------------------------------------------


def job_to_wire(job: Job) -> dict:
    """Serialize a request for the cluster pipe / a workload file."""
    return job.to_wire()


def job_from_wire(d: Mapping[str, Any]) -> Job:
    """Parse a job wire document (or a legacy unversioned record).

    The legacy workload-file shape ``{"point": {...}, "priority":
    "high", "budget": {...}}`` — everything but ``point`` optional —
    is accepted as schema version 1 without a version stamp.
    """
    _check_schema_version(d, "job")
    try:
        point = SpecPoint.from_dict(d["point"])
    except KeyError as exc:
        raise WireError("job: missing 'point'") from exc
    budget = None if d.get("budget") is None else Budget.from_dict(d["budget"])
    kwargs: dict = {}
    if d.get("job_id") is not None:
        kwargs["job_id"] = str(d["job_id"])
    if d.get("trace") is not None:
        kwargs["trace"] = TraceContext.from_dict(d["trace"])
    return Job(
        point=point,
        priority=parse_priority(d.get("priority", PRIORITY_NORMAL)),
        budget=budget,
        **kwargs,
    )


def response_to_wire(response: ServiceResponse) -> dict:
    """Serialize a terminal response for the cluster pipe / artifacts."""
    return response.to_wire()


def response_from_wire(d: Mapping[str, Any]) -> ServiceResponse:
    """Parse a response wire document back into a :class:`ServiceResponse`.

    Inverse of :func:`response_to_wire`: ``response_to_wire(
    response_from_wire(w)) == w`` for any valid ``w`` (the derived
    ``degraded`` flag is recomputed, not trusted).
    """
    _check_schema_version(d, "response")
    try:
        status = d["status"]
        job_id = str(d["job_id"])
    except KeyError as exc:
        raise WireError(f"response: missing {exc}") from exc
    if status not in TERMINAL_STATUSES:
        raise WireError(f"response: unknown status {status!r}")
    measurement = (
        None
        if d.get("measurement") is None
        else Measurement.from_dict(d["measurement"])
    )
    prediction = (
        None
        if d.get("prediction") is None
        else Prediction.from_dict(d["prediction"])
    )
    try:
        trace = None if d.get("trace") is None else trace_from_records(d["trace"])
    except TraceInvariantError as exc:
        raise WireError(f"response: {exc}") from exc
    return ServiceResponse(
        job_id=job_id,
        status=status,
        reason=d.get("reason"),
        detail=dict(d.get("detail") or {}),
        measurement=measurement,
        prediction=prediction,
        attempts=int(d.get("attempts", 0)),
        wall_seconds=float(d.get("wall_seconds", 0.0)),
        priority=parse_priority(d.get("priority", PRIORITY_NORMAL)),
        trace=trace,
        verified=(
            None if d.get("verified") is None else bool(d["verified"])
        ),
    )


__all__ = [
    "DEGRADED",
    "DONE",
    "FAILED",
    "SCHEMA_VERSION",
    "SHED",
    "TERMINAL_STATUSES",
    "Job",
    "JobTicket",
    "ServiceResponse",
    "WireError",
    "chol_request",
    "job_from_wire",
    "job_to_wire",
    "pxpotrf_request",
    "response_from_wire",
    "response_to_wire",
]
