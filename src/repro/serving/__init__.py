"""Resilient serving layer over the experiment engine.

Admission control and load shedding
(:class:`~repro.serving.queue.BoundedPriorityQueue`), per-job deadlines
and simulated-cost budgets (:class:`~repro.serving.budget.Budget`),
per-algorithm circuit breakers
(:class:`~repro.serving.breaker.CircuitBreaker`), and graceful
degradation to the paper's closed-form Table 1/2 predictions
(:mod:`repro.serving.degrade`) — composed by
:class:`~repro.serving.service.FactorizationService`, scaled out by
the sharded :class:`~repro.serving.cluster.ServingCluster` (a
consistent-hash front door over N shards sharing one result store),
and fronted by the one client facade
(:class:`~repro.serving.client.ServingClient`).  The typed
request/response schema every layer speaks lives in
:mod:`repro.serving.api`.

Durability and self-healing: the front door can write-ahead journal
every job lifecycle transition (:class:`~repro.serving.journal.JobJournal`)
and replay it after a crash (:meth:`ServingCluster.recover`), dead
shards are respawned under a seeded backoff/budget policy
(:class:`~repro.serving.supervisor.ShardSupervisor`), and a
:class:`~repro.faults.ClusterFaultPlan` drives byte-reproducible
cluster chaos soaks.

See ``docs/SERVING.md`` for the full protocol: the admission flow, the
budget chokepoints, the breaker state machine, the degradation ladder
with its documented error bounds, the cluster's ring/rebalance
semantics, and the journal/supervision durability contract.
"""

from repro.serving.api import (
    DEGRADED,
    DONE,
    FAILED,
    SCHEMA_VERSION,
    SHED,
    TERMINAL_STATUSES,
    Job,
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
from repro.serving.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serving.budget import Budget, BudgetExceeded, BudgetGuard
from repro.serving.client import ServingClient
from repro.serving.clock import MONOTONIC, ManualClock
from repro.serving.cluster import ServingCluster
from repro.serving.journal import (
    CRASH_EXIT_CODE,
    JobJournal,
    JournalCrash,
    JournalReplay,
    replay_journal,
)
from repro.serving.degrade import (
    PARALLEL_BOUND_FACTORS,
    SEQUENTIAL_BOUND_FACTORS,
    Prediction,
    degraded_measurement,
    predict_point,
)
from repro.serving.queue import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    BoundedPriorityQueue,
    QueueClosed,
    parse_priority,
    priority_name,
)
from repro.serving.ring import HashRing
from repro.serving.service import (
    FactorizationService,
    Overloaded,
    canary_point,
)
from repro.serving.store import ShardStoreView
from repro.serving.supervisor import ShardSupervisor

__all__ = [
    "Budget",
    "BudgetExceeded",
    "BudgetGuard",
    "BoundedPriorityQueue",
    "CircuitBreaker",
    "CLOSED",
    "CRASH_EXIT_CODE",
    "DEGRADED",
    "DONE",
    "FAILED",
    "FactorizationService",
    "HALF_OPEN",
    "HashRing",
    "Job",
    "JobJournal",
    "JobTicket",
    "JournalCrash",
    "JournalReplay",
    "MONOTONIC",
    "ManualClock",
    "OPEN",
    "Overloaded",
    "PARALLEL_BOUND_FACTORS",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "Prediction",
    "QueueClosed",
    "SCHEMA_VERSION",
    "SEQUENTIAL_BOUND_FACTORS",
    "SHED",
    "ServiceResponse",
    "ServingClient",
    "ServingCluster",
    "ShardSupervisor",
    "ShardStoreView",
    "TERMINAL_STATUSES",
    "WireError",
    "canary_point",
    "chol_request",
    "degraded_measurement",
    "job_from_wire",
    "job_to_wire",
    "parse_priority",
    "predict_point",
    "priority_name",
    "pxpotrf_request",
    "replay_journal",
    "response_from_wire",
    "response_to_wire",
]
