"""Sharded serving cluster: a consistent-hash front door over N shards.

:class:`ServingCluster` scales the single-process
:class:`~repro.serving.service.FactorizationService` out to N
independent shards behind one submit surface:

* **Routing** — jobs hash onto a :class:`~repro.serving.ring.HashRing`
  by their spec's content key, so identical specs always land on the
  same shard and hit its warm in-memory result tier.  Optional
  bounded-load spill (``spill_depth``) diverts a job to its
  second-choice shard when the owner's backlog is deep — affinity with
  a cap on imbalance.
* **Shared results** — every shard reads and writes one
  :class:`~repro.serving.store.SharedResultStore`, so after a
  rebalance the new owner of a key serves the old owner's work from
  the store instead of recomputing (see the store module docstring for
  the 2.5D-replication analogy).
* **Health aggregation and rebalancing** — the front door tracks shard
  liveness (process exit, stale heartbeats) and breaker state; a dead
  or hard-open shard is removed from the ring (its keys fall through
  to clockwise neighbours), a recovered shard is re-added, and every
  in-flight job of a *dead* shard is resubmitted to a survivor — an
  accepted job is never lost, it is re-routed.

Two substrates, one API:

``mode="inline"``
    Shards are in-process services with ``workers=0``, executed by
    :meth:`ServingCluster.run_pending` in deterministic ring order on
    the caller's thread, with a shared
    :class:`~repro.serving.clock.ManualClock` by default.  This is the
    virtual-clock mode the determinism suite runs: same seed, same
    submission order → identical responses and identical shard
    assignments, for any shard count.
``mode="process"``
    Each shard is a real OS process (``multiprocessing`` spawn) running
    its own service with worker threads, fed over a duplex pipe with
    the versioned wire schema from :mod:`repro.serving.api`.  Shard
    processes emit heartbeats (and, when ``health_dir`` is set, write
    crash-safe health snapshots via
    :func:`~repro.util.serialization.atomic_write_json`); the parent's
    monitor removes silent or dead shards from the ring and resubmits
    their in-flight jobs.

Durability and self-healing (PR 8):

* **Write-ahead job journal** — with ``journal_dir`` set, every
  front-door lifecycle transition (``accepted`` with the full job wire
  document, ``assigned``, ``completed``/``shed``) is durably appended
  to a :class:`~repro.serving.journal.JobJournal` *before* the next
  step proceeds, keyed by the job's content-address.
  :meth:`ServingCluster.recover` folds the journal back and resubmits
  every accepted-but-unterminated job, so a front-door crash loses no
  accepted job: each reaches exactly one terminal response, with
  already-computed work deduplicated through the shared store (replay
  is a cache hit, not a recomputation).
* **Shard supervisor** — with ``supervise=True`` the health pass
  consults a :class:`~repro.serving.supervisor.ShardSupervisor`:
  a dead shard is respawned under seeded exponential backoff and a
  per-shard restart budget, rejoined to the ring, and (process mode)
  warmed from the shared store tier; ``repro_cluster_respawn_total``
  and the ``repro_cluster_restart_state`` gauge track it.
* **Seeded cluster chaos** — a
  :class:`~repro.faults.plan.ClusterFaultPlan` injects shard
  kills/stalls, dispatch drops/delays, poison jobs and a
  front-door crash-at-record-k, every decision a pure SHA-256
  function of the submission index — a chaos soak replays
  byte-identically under the same seed.

Clients should not call this class directly for request/response work
— :class:`~repro.serving.client.ServingClient` wraps either a cluster
or a single service behind one typed API.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import tempfile
import threading
import time
from typing import Any, Callable, Mapping

from repro.experiments.spec import SpecPoint
from repro.faults.plan import ClusterFaultPlan
from repro.observability.metrics import METRICS
from repro.observability.slo import SLOTarget, SLOTracker
from repro.observability.export import write_chrome_trace
from repro.observability.spans import SpanProfile
from repro.observability.tracing import job_span, job_trace, root_context
from repro.serving.api import (
    FAILED,
    SHED,
    Job,
    JobTicket,
    ServiceResponse,
    job_from_wire,
    job_to_wire,
    response_from_wire,
    response_to_wire,
)
from repro.serving.clock import MONOTONIC, Clock, ManualClock
from repro.serving.journal import JobJournal, replay_journal
from repro.serving.ring import HashRing
from repro.serving.service import FactorizationService, _validate_job_point
from repro.serving.store import SharedResultStore
from repro.serving.supervisor import (
    DECIDE_RESPAWN,
    DECIDE_WAIT,
    STATE_GAUGE,
    ShardSupervisor,
)
from repro.serving.telemetry import ClusterTelemetry, TelemetryBus, make_event
from repro.util.serialization import atomic_write_json
from repro.util.validation import ValidationError

#: Process label for front-door trace spans and telemetry events.
FRONTDOOR = "frontdoor"

INLINE = "inline"
PROCESS = "process"

#: Breaker states considered "hard open" (cooldown still running).
_OPEN = "open"


class _Tracked:
    """Cluster-side record of one in-flight job (assignment + ticket)."""

    __slots__ = ("job", "ticket", "shard", "t_submit", "index")

    def __init__(
        self,
        job: Job,
        ticket: JobTicket,
        shard: str,
        t_submit: float = 0.0,
        index: int = 0,
    ) -> None:
        self.job = job
        self.ticket = ticket
        self.shard = shard
        #: Front-door clock reading at submission — the origin of the
        #: client-observed latency window the root span covers.
        self.t_submit = t_submit
        #: Submission index — the chaos plan's decision key, kept so
        #: redelivery draws after a resubmission stay deterministic.
        self.index = index


class InlineShard:
    """An in-process shard: a ``workers=0`` service pumped by the cluster."""

    def __init__(self, name: str, service: FactorizationService, view) -> None:
        self.name = name
        self.service = service
        self.view = view
        self.alive = True

    def submit(self, job: Job, done_cb) -> None:
        """Admit one job; ``done_cb`` fires at its terminal response."""
        ticket = self.service.submit(job)
        ticket.add_done_callback(done_cb)

    def pump(self, max_jobs: "int | None" = None) -> int:
        """Run queued jobs on the calling thread; dead shards run nothing."""
        if not self.alive:
            return 0
        return self.service.run_pending(max_jobs)

    def health(self, timeout: float = 0.0) -> dict:
        """The shard's liveness snapshot plus its store-tier stats."""
        h = self.service.health()
        h["reachable"] = self.alive
        h["store"] = self.view.stats()
        return h

    def kill(self) -> None:
        """Simulated crash: stop executing; queued work is stranded."""
        self.alive = False

    def stall(self, seconds: float) -> bool:
        """No-op: inline shards have no heartbeats to suppress."""
        return False

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful shutdown of the underlying service."""
        self.service.stop(timeout=timeout)


def _shed_response(job: Job, reason: str, detail: "dict | None" = None) -> ServiceResponse:
    """A front-door shed: nothing ran, structured reason attached."""
    return ServiceResponse(
        job_id=job.job_id,
        status=SHED,
        reason=reason,
        detail=dict(detail or {}),
        priority=job.priority,
    )


def _shard_process_main(conn, name: str, config: dict) -> None:
    """Entry point of one shard process (``mode="process"``).

    Builds a :class:`FactorizationService` over a view of the shared
    store, then serves ops from the duplex pipe: ``submit`` (job wire
    in, ``result`` wire out at terminal), ``health`` (snapshot RPC),
    ``stop`` (graceful shutdown: queued jobs shed, results flushed,
    then ``bye``).  A daemon heartbeat thread emits liveness pings and
    — when ``health_dir`` is set — writes the shard's health snapshot
    crash-safely via :func:`atomic_write_json`, so an external reader
    (or the parent after a crash) never sees a torn snapshot.
    """
    from repro.util.validation import ValidationError

    view = SharedResultStore(
        config["store_dir"], version=config.get("store_version")
    ).view(name)
    budget_wire = config.get("default_budget")
    from repro.serving.budget import Budget

    bus: "TelemetryBus | None" = (
        TelemetryBus(name) if config.get("telemetry") else None
    )
    if bus is not None:
        view.on_lookup = lambda tier: bus.emit(
            "store", time.monotonic(), {"tier": tier}
        )

    svc = FactorizationService(
        workers=config.get("workers", 2),
        queue_capacity=config.get("queue_capacity", 64),
        retries=config.get("retries", 1),
        breaker_threshold=config.get("breaker_threshold", 3),
        breaker_cooldown=config.get("breaker_cooldown", 30.0),
        half_open_probes=config.get("half_open_probes", 1),
        canary_n=config.get("canary_n", 16),
        default_budget=(
            None if budget_wire is None else Budget.from_dict(budget_wire)
        ),
        cache=view,
        name=name,
        on_event=(
            None
            if bus is None
            else lambda kind, t, attrs: bus.emit(kind, t, attrs)
        ),
    )
    send_lock = threading.Lock()

    def send(msg: dict) -> None:
        with send_lock:
            try:
                conn.send(msg)
            except (OSError, BrokenPipeError):
                pass  # parent is gone; we are about to exit anyway

    def flush_telemetry() -> None:
        # batched, not per-event: events ride the pipe piggybacked on
        # result sends and heartbeat ticks, never one message each
        if bus is not None:
            events = bus.drain_wire()
            if events:
                send({"op": "telemetry", "events": events})

    health_dir = config.get("health_dir")
    hb_interval = float(config.get("heartbeat_interval", 1.0))
    stopping = threading.Event()
    #: Chaos: monotonic instant until which heartbeats are suppressed
    #: (the shard keeps working — it just goes silent; the parent's
    #: staleness/debounce/supervisor path is what's under test).
    stall_until = [0.0]

    def snapshot() -> dict:
        h = svc.health()
        h["reachable"] = True
        h["store"] = view.stats()
        return {
            "shard": name,
            "ready": svc.readiness(),
            "health": h,
            "written_at": time.time(),
        }

    def heartbeat_loop() -> None:
        while not stopping.wait(hb_interval):
            if time.monotonic() < stall_until[0]:
                continue  # injected stall: stay alive but go silent
            if bus is not None:
                bus.emit("heartbeat", time.monotonic(), {})
            send({"op": "heartbeat"})
            flush_telemetry()
            if health_dir:
                # the crash-safe write is the point: a reader (or the
                # parent post-mortem) must never see a torn snapshot
                atomic_write_json(
                    os.path.join(health_dir, f"{name}.json"),
                    snapshot(),
                    indent=1,
                    sort_keys=True,
                )

    threading.Thread(target=heartbeat_loop, daemon=True).start()
    send({"op": "ready"})

    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            op = msg.get("op")
            if op == "submit":
                job = job_from_wire(msg["job"])

                def on_done(r: ServiceResponse, jid=job.job_id) -> None:
                    send({
                        "op": "result",
                        "job_id": jid,
                        "response": response_to_wire(r),
                    })
                    flush_telemetry()

                try:
                    ticket = svc.submit(job)
                except ValidationError as exc:
                    on_done(
                        ServiceResponse(
                            job_id=job.job_id,
                            status=FAILED,
                            reason="invalid-point",
                            detail={"error": f"{type(exc).__name__}: {exc}"},
                            priority=job.priority,
                        )
                    )
                else:
                    ticket.add_done_callback(on_done)
            elif op == "health":
                send({
                    "op": "health",
                    "seq": msg.get("seq"),
                    "payload": snapshot()["health"],
                })
            elif op == "warm":
                # supervisor respawn: promote recently served entries
                # from the shared disk tier into this (fresh) shard's
                # memory tier before traffic lands on it
                warmed = 0
                for pd in msg.get("points") or []:
                    try:
                        if view.get(SpecPoint.from_dict(pd)) is not None:
                            warmed += 1
                    except Exception:  # noqa: BLE001 - warming is best-effort
                        pass
                if bus is not None:
                    bus.emit("warm", time.monotonic(), {"count": warmed})
            elif op == "stall":
                stall_until[0] = time.monotonic() + float(
                    msg.get("seconds", 0.0)
                )
            elif op == "stop":
                break
    finally:
        stopping.set()
        svc.stop()  # sheds the backlog; callbacks flush results out
        flush_telemetry()
        if health_dir:
            atomic_write_json(
                os.path.join(health_dir, f"{name}.json"),
                snapshot(),
                indent=1,
                sort_keys=True,
            )
        send({"op": "bye"})
        conn.close()


class ProcessShard:
    """Parent-side handle on one shard process (pipe + reader thread)."""

    def __init__(self, name: str, ctx, config: dict) -> None:
        self.name = name
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_shard_process_main,
            args=(child_conn, name, config),
            name=f"repro-shard-{name}",
            daemon=True,
        )
        self._child_conn = child_conn
        self._send_lock = threading.Lock()
        self._pending: "dict[str, Callable[[ServiceResponse], None]]" = {}
        self._pending_lock = threading.Lock()
        self._ready = threading.Event()
        self._bye = threading.Event()
        self._health_seq = 0
        self._health_payload: "dict | None" = None
        self._health_event = threading.Event()
        self.last_heartbeat = MONOTONIC()
        self.alive = False
        self.on_down: "Callable[[ProcessShard], None] | None" = None
        #: Sink for batched telemetry events (wire dicts) off the pipe.
        self.on_telemetry: "Callable[[list], None] | None" = None

    def launch(self) -> None:
        """Spawn the process and its reader; ``wait_ready`` completes it."""
        self.process.start()
        self._child_conn.close()
        self.alive = True
        threading.Thread(
            target=self._reader, name=f"repro-shard-{self.name}-rx", daemon=True
        ).start()

    def wait_ready(self, timeout: float = 120.0) -> None:
        """Block until the child's ``ready`` handshake arrives."""
        if not self._ready.wait(timeout=timeout):
            raise TimeoutError(f"shard {self.name} did not come up")
        self.last_heartbeat = MONOTONIC()

    def _send(self, msg: dict) -> bool:
        with self._send_lock:
            try:
                self._conn.send(msg)
                return True
            except (OSError, BrokenPipeError):
                return False

    def _reader(self) -> None:
        while True:
            try:
                msg = self._conn.recv()
            except (EOFError, OSError):
                break
            op = msg.get("op")
            if op == "result":
                with self._pending_lock:
                    cb = self._pending.pop(msg["job_id"], None)
                if cb is not None:
                    cb(response_from_wire(msg["response"]))
            elif op == "heartbeat":
                self.last_heartbeat = MONOTONIC()
            elif op == "telemetry":
                if self.on_telemetry is not None:
                    self.on_telemetry(msg.get("events") or [])
            elif op == "ready":
                self._ready.set()
            elif op == "health":
                self._health_payload = msg.get("payload")
                self._health_event.set()
            elif op == "bye":
                self._bye.set()
        was_alive, self.alive = self.alive, False
        self._health_event.set()  # unblock any waiting health RPC
        if was_alive and not self._bye.is_set() and self.on_down is not None:
            self.on_down(self)

    def submit(self, job: Job, done_cb) -> None:
        """Ship one job over the pipe; ``done_cb`` fires on its result."""
        with self._pending_lock:
            self._pending[job.job_id] = done_cb
        if not self._send({"op": "submit", "job": job_to_wire(job)}):
            with self._pending_lock:
                self._pending.pop(job.job_id, None)
            raise BrokenPipeError(f"shard {self.name} is unreachable")

    def pump(self, max_jobs: "int | None" = None) -> int:
        """No-op: a process shard's workers drain its queue themselves."""
        return 0

    def health(self, timeout: float = 5.0) -> dict:
        """RPC the shard's snapshot; unreachable shards report as such."""
        if not self.alive:
            return {"reachable": False}
        self._health_event.clear()
        self._health_seq += 1
        if not self._send({"op": "health", "seq": self._health_seq}):
            return {"reachable": False}
        if not self._health_event.wait(timeout=timeout) or not self.alive:
            return {"reachable": False}
        payload = self._health_payload or {}
        payload.setdefault("reachable", True)
        return payload

    def pending_count(self) -> int:
        """Jobs shipped to this shard that have not answered yet."""
        with self._pending_lock:
            return len(self._pending)

    def kill(self) -> None:
        """Hard-kill the shard process (chaos / soak testing)."""
        if self.process.is_alive():
            self.process.terminate()

    def stall(self, seconds: float) -> bool:
        """Chaos: suppress the shard's heartbeats for ``seconds``."""
        return self._send({"op": "stall", "seconds": float(seconds)})

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful shutdown: drain the shed responses, then join."""
        if self.alive:
            self._send({"op": "stop"})
            self._bye.wait(timeout=timeout)
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
        self.alive = False


class ServingCluster:
    """N independent factorization shards behind one consistent-hash door.

    Parameters
    ----------
    shards:
        Shard count (or pass explicit ``shard_names``).
    mode:
        ``"process"`` (default) spawns one OS process per shard;
        ``"inline"`` builds deterministic in-process shards pumped by
        :meth:`run_pending` on a virtual clock.
    workers_per_shard / queue_capacity / retries / breaker_* / canary_n
    / default_budget:
        Per-shard :class:`FactorizationService` configuration (inline
        shards always run ``workers=0``).
    store_dir:
        Directory of the shared result store (default a fresh temp
        directory cleaned up at :meth:`stop`).
    replicas / spill_depth:
        Ring geometry, and the bounded-load threshold: when the
        owner's outstanding backlog reaches ``spill_depth`` and its
        second choice is shallower, the job spills there (``None``
        disables spill — strict affinity).
    clock:
        Front-door time source; defaults to a fresh
        :class:`ManualClock` in inline mode and the monotonic clock in
        process mode.
    heartbeat_interval / heartbeat_timeout / monitor_interval:
        Process-mode liveness: shards ping every ``interval`` seconds;
        a shard silent for ``timeout`` seconds is treated as dead.
        ``monitor_interval`` starts a background thread calling
        :meth:`check_shards`; ``None`` leaves checks to the caller.
    rebalance_debounce:
        Grace window (seconds) a heartbeat-stale shard gets before
        eviction: staleness must *persist* that long across health
        passes.  A slow-but-alive shard (GC pause, CPU contention)
        that resumes heartbeating inside the window is never evicted.
        Default 0.0 — evict on first stale observation (the PR 6
        behavior).
    journal_dir / journal_sync / journal_crash_mode:
        When ``journal_dir`` is set, the front door write-ahead
        journals every accepted/assigned/terminal transition there
        (see :mod:`repro.serving.journal`); :meth:`recover` replays
        it after a crash.  ``journal_sync=False`` trades the fsync
        per record for speed; ``journal_crash_mode`` selects how an
        armed ``crash_at_record`` chaos fault dies (``"raise"`` /
        ``"exit"``).  Off (``None``) by default — zero cost, responses
        byte-identical to the unjournaled cluster.
    chaos:
        A seeded :class:`~repro.faults.plan.ClusterFaultPlan`; every
        injection decision is a pure function of the submission index
        (shard kills/stalls, dispatch drops/delays, poison jobs,
        front-door crash-at-record-k).  ``None`` (default) injects
        nothing and costs nothing.
    supervise / supervisor / restart_budget / restart_backoff_base /
    restart_backoff_cap / supervisor_seed:
        ``supervise=True`` (or an explicit ``supervisor``) makes
        :meth:`check_shards` respawn dead shards under the
        :class:`~repro.serving.supervisor.ShardSupervisor` policy:
        seeded exponential backoff between attempts, at most
        ``restart_budget`` respawns per shard, ring rejoin + shared
        store warm-up on success.  Off by default.
    health_dir:
        When set (process mode), every shard writes its health
        snapshot there crash-safely on each heartbeat.
    tracing:
        When true, the front door mints a trace context for every job
        (from its spec cache key), shards record their stages under
        it, and each terminal response carries the merged
        cross-process span tree (kept for :meth:`write_trace`).  Off
        by default: payloads stay byte-identical to the untraced
        schema.
    telemetry:
        When true, shards emit structured events (queue waits, sheds,
        breaker transitions, store tiers, retries, heartbeats) to a
        central :class:`~repro.serving.telemetry.ClusterTelemetry`
        aggregator — over the pipes in process mode, synchronously in
        inline mode — published with per-shard labels.
    slo_target:
        Declared :class:`~repro.observability.slo.SLOTarget` the
        always-on :class:`~repro.observability.slo.SLOTracker`
        accounts terminal responses against (default objective:
        99.9% availability, no latency clause).
    """

    def __init__(
        self,
        *,
        shards: int = 3,
        mode: str = PROCESS,
        workers_per_shard: int = 2,
        queue_capacity: int = 64,
        retries: int = 1,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
        half_open_probes: int = 1,
        canary_n: int = 16,
        default_budget=None,
        store_dir: "str | None" = None,
        replicas: int = 64,
        spill_depth: "int | None" = None,
        clock: "Clock | None" = None,
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: float = 10.0,
        monitor_interval: "float | None" = None,
        rebalance_debounce: float = 0.0,
        health_dir: "str | None" = None,
        shard_names: "list[str] | None" = None,
        tracing: bool = False,
        telemetry: bool = False,
        slo_target: "SLOTarget | None" = None,
        journal_dir: "str | None" = None,
        journal_sync: bool = True,
        journal_crash_mode: str = "raise",
        chaos: "ClusterFaultPlan | None" = None,
        supervise: bool = False,
        supervisor: "ShardSupervisor | None" = None,
        restart_budget: int = 3,
        restart_backoff_base: float = 0.1,
        restart_backoff_cap: float = 5.0,
        supervisor_seed: int = 0,
    ) -> None:
        if mode not in (INLINE, PROCESS):
            raise ValueError(f"mode must be 'inline' or 'process', got {mode!r}")
        names = list(shard_names or [])
        if not names:
            if shards < 1:
                raise ValueError(f"shards must be >= 1, got {shards}")
            names = [f"shard-{i}" for i in range(int(shards))]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate shard names in {names}")
        self.mode = mode
        self.spill_depth = spill_depth
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.rebalance_debounce = float(rebalance_debounce)
        self._clock: Clock = clock or (ManualClock() if mode == INLINE else MONOTONIC)
        self.tracing = bool(tracing)
        self.telemetry: "ClusterTelemetry | None" = (
            ClusterTelemetry() if telemetry else None
        )
        self.slo = SLOTracker(slo_target)
        self._chaos = chaos if (chaos is not None and not chaos.is_empty()) else None
        self._journal: "JobJournal | None" = None
        if journal_dir is not None:
            self._journal = JobJournal(
                journal_dir,
                clock=self._clock,
                sync=journal_sync,
                crash_at_record=(
                    self._chaos.crash_at_record if self._chaos else None
                ),
                crash_mode=journal_crash_mode,
            )
        self._supervisor: "ShardSupervisor | None" = supervisor
        if self._supervisor is None and supervise:
            self._supervisor = ShardSupervisor(
                seed=supervisor_seed,
                restart_budget=restart_budget,
                backoff_base=restart_backoff_base,
                backoff_cap=restart_backoff_cap,
            )
        #: shard name -> first time its heartbeat was observed stale
        #: (the rebalance-debounce state machine; see check_shards).
        self._stale_since: "dict[str, float]" = {}
        #: monotone submission counter — the chaos plan's decision index.
        self._submit_index = 0
        #: recently resolved points, newest last (respawn warm-up set).
        self._recent_points: "list[SpecPoint]" = []
        self._recent_points_cap = 64
        #: tickets :meth:`recover` resubmitted from the journal.
        self.recovered: "tuple[JobTicket, ...]" = ()
        #: job_id -> span tree of each resolved traced job
        #: (bounded; oldest evicted first — insertion order).
        self._traces: "dict[str, SpanProfile]" = {}
        self._trace_capacity = 4096
        self._owns_store_dir: "str | None" = None
        if store_dir is None:
            store_dir = self._owns_store_dir = tempfile.mkdtemp(
                prefix="repro-cluster-store-"
            )
        self.store = SharedResultStore(store_dir)
        self.health_dir = health_dir
        if health_dir:
            os.makedirs(health_dir, exist_ok=True)

        self._lock = threading.Lock()
        self._inflight: "dict[str, _Tracked]" = {}
        self._outstanding: "dict[str, int]" = {name: 0 for name in names}
        self._assignment_log: "list[tuple[str, str]]" = []
        self._status_counts: "dict[str, int]" = {}
        self._rebalances = 0
        self._resubmitted = 0
        self._closed = False
        self.ring = HashRing(names, replicas=replicas)

        # Shard construction configs are stashed so the supervisor can
        # rebuild a shard from scratch on respawn (both modes).
        self._service_config = {
            "queue_capacity": queue_capacity,
            "retries": retries,
            "breaker_threshold": breaker_threshold,
            "breaker_cooldown": breaker_cooldown,
            "half_open_probes": half_open_probes,
            "canary_n": canary_n,
            "default_budget": default_budget,
        }
        self._ctx = None
        self._shard_config: "dict | None" = None
        self.shards: "dict[str, InlineShard | ProcessShard]" = {}
        if mode == INLINE:
            for name in names:
                self.shards[name] = self._make_inline_shard(name)
        else:
            self._ctx = multiprocessing.get_context("spawn")
            self._shard_config = {
                "store_dir": self.store.directory,
                "store_version": self.store.version,
                "workers": workers_per_shard,
                "queue_capacity": queue_capacity,
                "retries": retries,
                "breaker_threshold": breaker_threshold,
                "breaker_cooldown": breaker_cooldown,
                "half_open_probes": half_open_probes,
                "canary_n": canary_n,
                "default_budget": (
                    None if default_budget is None else default_budget.to_dict()
                ),
                "heartbeat_interval": heartbeat_interval,
                "health_dir": health_dir,
                "telemetry": self.telemetry is not None,
            }
            for name in names:
                self.shards[name] = self._make_process_shard(name)
            for shard in self.shards.values():
                shard.launch()
            deadline = MONOTONIC() + 120.0
            for shard in self.shards.values():
                shard.wait_ready(timeout=max(0.1, deadline - MONOTONIC()))

        self._monitor_stop = threading.Event()
        self._monitor: "threading.Thread | None" = None
        if monitor_interval is not None and mode == PROCESS:
            self._monitor = threading.Thread(
                target=self._monitor_loop,
                args=(float(monitor_interval),),
                name="repro-cluster-monitor",
                daemon=True,
            )
            self._monitor.start()

    # -- shard construction ------------------------------------------------

    def _make_inline_shard(self, name: str) -> InlineShard:
        view = self.store.view(name)
        on_event = None
        if self.telemetry is not None:
            # inline shards feed the aggregator synchronously, stamped
            # with the shard's name (same event shape the pipe batches
            # carry in process mode)
            def on_event(kind, t, attrs, _shard=name):
                self.telemetry.ingest(make_event(kind, _shard, t, attrs))

            def on_lookup(tier, _shard=name):
                self.telemetry.ingest(
                    make_event("store", _shard, self._clock(), {"tier": tier})
                )

            view.on_lookup = on_lookup
        svc = FactorizationService(
            workers=0,
            cache=view,
            clock=self._clock,
            name=name,
            on_event=on_event,
            **self._service_config,
        )
        return InlineShard(name, svc, view)

    def _make_process_shard(self, name: str) -> "ProcessShard":
        shard = ProcessShard(name, self._ctx, self._shard_config)
        shard.on_down = self._on_shard_down
        if self.telemetry is not None:
            shard.on_telemetry = self.telemetry.ingest_wire
        return shard

    # -- routing -----------------------------------------------------------

    @property
    def clock(self) -> Clock:
        """The front door's time source (a ManualClock in inline mode)."""
        return self._clock

    @property
    def needs_pump(self) -> bool:
        """True when the caller must drive :meth:`run_pending` (inline)."""
        return self.mode == INLINE

    @property
    def assignments(self) -> "tuple[tuple[str, str], ...]":
        """``(job_id, shard)`` pairs in submission order (determinism)."""
        with self._lock:
            return tuple(self._assignment_log)

    def route_key(self, point: SpecPoint) -> str:
        """The ring key for a point: its content hash (cache key core)."""
        return point.key()

    def _pick_shard(self, key: str) -> "str | None":
        """The owner, or its second choice under bounded-load spill."""
        candidates = self.ring.nodes_for(key, 2 if self.spill_depth else 1)
        candidates = [c for c in candidates if self.shards[c].alive]
        if not candidates:
            return None
        owner = candidates[0]
        if (
            self.spill_depth is not None
            and len(candidates) > 1
            and self._outstanding.get(owner, 0) >= self.spill_depth
            and self._outstanding.get(candidates[1], 0)
            < self._outstanding.get(owner, 0)
        ):
            METRICS.counter("repro_cluster_spills_total").inc()
            return candidates[1]
        return owner

    def submit(
        self, job: "Job | SpecPoint | Mapping", *, _recovered: bool = False
    ) -> JobTicket:
        """Route one job to its shard; returns the front-door ticket.

        Accepts the same shapes as ``FactorizationService.submit``: a
        :class:`Job`, a bare :class:`SpecPoint`, or a job wire
        document.  Structural validation happens here — before
        anything crosses a pipe — and a job whose ``job_id`` is still
        in flight is refused with ``ValidationError`` before the job
        is touched.  With no routable shard (empty ring,
        shutdown) the ticket resolves immediately with a structured
        shed response; nothing hangs.

        With a journal attached the job's wire document is durably
        appended *before* routing (the write-ahead contract); with a
        chaos plan attached, this submission's seeded injections
        (shard kill/stall, poison) fire first.
        """
        if isinstance(job, SpecPoint):
            job = Job(point=job)
        elif isinstance(job, Mapping):
            job = job_from_wire(job)
        _validate_job_point(job.point)
        with self._lock:
            if job.job_id in self._inflight:
                raise ValidationError(f"{job.job_id} is already in flight")
            index = self._submit_index
            self._submit_index += 1
        if self._chaos is not None:
            job = self._inject_chaos(index, job)
        # The front door is the client-facing boundary, so it mints the
        # trace context (deterministically, from the spec cache key)
        # and owns the root span: opened here, closed at resolution.
        if self.tracing and job.trace is None:
            job.trace = root_context(job.point.key())
        key = self.route_key(job.point)
        if self._journal is not None:
            # the WAL write: from here on, a crashed front door will
            # resubmit this job on recovery unless a terminal record
            # also made it to disk
            self._journal.record_accepted(job, key, recovered=_recovered)
        t_submit = self._clock()
        ticket = JobTicket(job)
        with self._lock:
            if self._closed:
                shard_name = None
                reason = "shutdown"
            else:
                shard_name = self._pick_shard(key)
                reason = "no-shards"
            if shard_name is not None:
                self._inflight[job.job_id] = _Tracked(
                    job, ticket, shard_name, t_submit, index
                )
                self._outstanding[shard_name] = (
                    self._outstanding.get(shard_name, 0) + 1
                )
                self._assignment_log.append((job.job_id, shard_name))
        if shard_name is None:
            METRICS.counter("repro_cluster_shed_total", reason=reason).inc()
            self._finish(ticket, _shed_response(
                job, reason, {"ring": self.ring.snapshot()}
            ))
            return ticket
        if self._journal is not None:
            self._journal.record_assigned(job.job_id, key, shard_name)
        self._publish_depth(shard_name)
        self._dispatch(shard_name, job, index)
        return ticket

    def _inject_chaos(self, index: int, job: Job) -> Job:
        """Fire this submission's seeded cluster faults; returns the job
        (point wrapped in a fatal fault plan if the draw poisons it)."""
        chaos = self._chaos
        key = job.point.key()
        with self._lock:
            live = [
                n
                for n, s in self.shards.items()
                if s.alive and n in self.ring
            ]
        victim = chaos.kill_target(index, live)
        if victim is not None:
            METRICS.counter("repro_cluster_chaos_total", kind="kill").inc()
            self.kill_shard(victim)
        target = chaos.stall_target(index, live)
        if target is not None:
            shard = self.shards.get(target)
            if (
                shard is not None
                and shard.alive
                and shard.stall(chaos.stall_seconds)
            ):
                METRICS.counter("repro_cluster_chaos_total", kind="stall").inc()
        if chaos.poisons(index, key):
            METRICS.counter("repro_cluster_chaos_total", kind="poison").inc()
            plan = chaos.poison_plan(index, key)
            job.point = dataclasses.replace(job.point, faults=plan.freeze())
        return job

    def _dispatch(self, shard_name: str, job: Job, index: int = 0) -> None:
        shard = self.shards[shard_name]
        if self._chaos is not None:
            key = job.point.key()
            attempt = 0
            while self._chaos.drops_dispatch(index, key, attempt):
                # the pipe ate the submit; the front door redelivers
                # (draws are per-attempt, so the loop terminates)
                attempt += 1
                METRICS.counter(
                    "repro_cluster_pipe_drops_total", shard=shard_name
                ).inc()
            delay = self._chaos.dispatch_delay(index, key)
            if delay:
                if isinstance(self._clock, ManualClock):
                    self._clock.advance(delay)
                else:
                    time.sleep(delay)

        def on_done(response: ServiceResponse, jid=job.job_id) -> None:
            self._on_result(jid, response)

        try:
            shard.submit(job, on_done)
        except (BrokenPipeError, OSError):
            # the shard died between routing and send: the reader's
            # death path will (or already did) resubmit; make sure
            self._on_shard_down(shard)

    def _on_result(self, job_id: str, response: ServiceResponse) -> None:
        now = self._clock()
        with self._lock:
            tracked = self._inflight.pop(job_id, None)
            if tracked is not None:
                self._outstanding[tracked.shard] = max(
                    0, self._outstanding.get(tracked.shard, 0) - 1
                )
                self._status_counts[response.status] = (
                    self._status_counts.get(response.status, 0) + 1
                )
        if tracked is None:
            METRICS.counter("repro_cluster_duplicate_results_total").inc()
            return
        METRICS.counter(
            "repro_cluster_jobs_total",
            shard=tracked.shard,
            status=response.status,
        ).inc()
        self.slo.record(
            tracked.job.point.algorithm,
            response.status,
            max(0.0, now - tracked.t_submit),
        )
        if tracked.job.trace is not None:
            response = self._merge_trace(tracked, response, now)
            self._store_trace(job_id, response.trace)
        self._publish_depth(tracked.shard)
        delivered = tracked.ticket.resolve(response)
        if delivered and self._journal is not None:
            # terminal record strictly *after* delivery: a crash in the
            # gap resubmits the job on recovery, deduplicated by its
            # content-address — at-least-once inside, exactly one
            # terminal response outside
            self._journal.record_terminal(
                job_id,
                tracked.job.point.key(),
                response.status,
                reason=response.reason,
            )
        if self._supervisor is not None and response.status not in (FAILED, SHED):
            self._note_recent_point(tracked.job.point)

    def _note_recent_point(self, point: SpecPoint) -> None:
        """Remember a served point for the respawn warm-up set."""
        with self._lock:
            self._recent_points.append(point)
            excess = len(self._recent_points) - self._recent_points_cap
            if excess > 0:
                del self._recent_points[:excess]

    def _merge_trace(
        self, tracked: _Tracked, response: ServiceResponse, now: float
    ) -> ServiceResponse:
        """Put the shard's stages under the front door's root span.

        The root span covers exactly the client-observed window
        (front-door submit → resolution); a zero-width ``route`` child
        pins which shard served the job (a volatile attr, excluded
        from the canonical form).  In process mode the shard's stages
        are on the *child's* clock — they are re-based so the shard's
        first stage starts at the front-door submit instant, which is
        exact in inline mode (shared clock, delta 0) and off by only
        the pipe transit in process mode.  ``resolve`` covers the tail
        the shard's stages don't explain (response pipe transit plus
        this merge), so the stages tile the client-observed window.
        """
        t0 = tracked.t_submit
        stages: "tuple[SpanProfile, ...]" = ()
        if response.trace is not None:
            shard_root = response.trace
            stages = tuple(
                s.shifted(t0 - shard_root.t_start) for s in shard_root.children
            )
        shard_end = max((s.t_end for s in stages), default=t0)
        stages = (
            job_span("route", t0, t0, process=FRONTDOOR, shard=tracked.shard),
            *stages,
            job_span("resolve", min(shard_end, now), now, process=FRONTDOOR),
        )
        return dataclasses.replace(
            response,
            trace=job_trace(
                tracked.job, response, stages,
                process=FRONTDOOR, t_start=t0, t_end=now,
            ),
        )

    def _store_trace(self, job_id: str, trace: SpanProfile) -> None:
        with self._lock:
            self._traces[job_id] = trace
            while len(self._traces) > self._trace_capacity:
                self._traces.pop(next(iter(self._traces)))

    def _finish(self, ticket: JobTicket, response: ServiceResponse) -> None:
        """Resolve a job the front door itself terminates (sheds).

        Nothing crossed a pipe, so the whole trace — root plus an
        ``admission`` leaf — is front-door-local and zero-counter.
        """
        job = ticket.job
        now = self._clock()
        if job.trace is not None and response.trace is None:
            admission = job_span(
                "admission", now, now, process=FRONTDOOR,
                status=response.status, reason=response.reason,
            )
            response = dataclasses.replace(
                response,
                trace=job_trace(
                    job, response, [admission],
                    process=FRONTDOOR, t_start=now, t_end=now,
                ),
            )
            self._store_trace(job.job_id, response.trace)
        self.slo.record(job.point.algorithm, response.status, 0.0)
        if self.telemetry is not None:
            self.telemetry.ingest(
                make_event(
                    "shed", FRONTDOOR, now, {"reason": response.reason}
                )
            )
        with self._lock:
            self._status_counts[response.status] = (
                self._status_counts.get(response.status, 0) + 1
            )
        if ticket.resolve(response) and self._journal is not None:
            self._journal.record_terminal(
                job.job_id,
                job.point.key(),
                response.status,
                reason=response.reason,
            )

    def _publish_depth(self, shard_name: str) -> None:
        with self._lock:
            depth = self._outstanding.get(shard_name, 0)
        METRICS.gauge(
            "repro_cluster_shard_depth", shard=shard_name
        ).set(depth)

    # -- rebalancing -------------------------------------------------------

    def _remove_from_ring(self, name: str) -> bool:
        removed = self.ring.remove(name)
        if removed:
            self._rebalances += 1
            METRICS.counter(
                "repro_cluster_ring_rebalances_total", direction="remove"
            ).inc()
        return removed

    def _on_shard_down(self, shard) -> None:
        """Death path: de-ring the shard, resubmit its in-flight jobs."""
        shard.alive = False
        with self._lock:
            self._remove_from_ring(shard.name)
            victims = [
                t for t in self._inflight.values() if t.shard == shard.name
            ]
            self._outstanding[shard.name] = 0
        for tracked in victims:
            self._resubmit(tracked)

    def _resubmit(self, tracked: _Tracked) -> None:
        with self._lock:
            if tracked.ticket.done():
                return
            new_shard = self._pick_shard(self.route_key(tracked.job.point))
            if new_shard is not None:
                old = tracked.shard
                tracked.shard = new_shard
                self._outstanding[new_shard] = (
                    self._outstanding.get(new_shard, 0) + 1
                )
                self._resubmitted += 1
        if new_shard is None:
            self._inflight.pop(tracked.job.job_id, None)
            self._finish(
                tracked.ticket,
                _shed_response(
                    tracked.job, "no-shards", {"ring": self.ring.snapshot()}
                ),
            )
            return
        METRICS.counter(
            "repro_cluster_resubmitted_jobs_total", from_shard=old
        ).inc()
        if self._journal is not None:
            self._journal.record_assigned(
                tracked.job.job_id,
                self.route_key(tracked.job.point),
                new_shard,
            )
        self._publish_depth(new_shard)
        self._dispatch(new_shard, tracked.job, tracked.index)

    def kill_shard(self, name: str) -> None:
        """Chaos hook: hard-kill one shard and run the death path now."""
        shard = self.shards[name]
        shard.kill()
        self._on_shard_down(shard)

    def stall_shard(self, name: str, seconds: float) -> bool:
        """Chaos hook: suppress one process shard's heartbeats."""
        return self.shards[name].stall(seconds)

    def _shard_healthy(self, shard, health: dict) -> bool:
        """Alive, reachable, and not every breaker hard-open.

        Heartbeat staleness is *not* re-checked here — check_shards
        already classified the shard through the debounce state
        machine, and a merely-suspect shard must not be quarantined.
        """
        if not shard.alive or not health.get("reachable", False):
            return False
        breakers = health.get("breakers") or {}
        if breakers and all(
            b.get("state") == _OPEN and not b.get("probe_due")
            for b in breakers.values()
        ):
            return False
        return True

    def _supervisor_now(self) -> float:
        """Supervision timebase: heartbeat clock in process mode (the
        one staleness is measured on), the injected clock inline."""
        return MONOTONIC() if self.mode == PROCESS else float(self._clock())

    def check_shards(self) -> dict:
        """One health-aggregation pass; rebalances the ring as needed.

        Dead shards (process gone, heartbeat stale beyond the
        debounce) are removed and their in-flight jobs resubmitted; a
        stale-but-within-debounce shard is merely *suspect* — left in
        the ring untouched until staleness persists or the heartbeat
        resumes.  Shards that are alive but unhealthy (every breaker
        hard-open) are *quarantined* — removed from the ring so no new
        keys route to them, but left to finish their backlog;
        quarantined shards that recovered are re-added.  Under a
        supervisor, dead shards are respawned (seeded backoff, restart
        budget) and rejoin the ring.  Returns the actions taken, keyed
        by shard name.
        """
        actions: "dict[str, str]" = {}
        now = self._supervisor_now()
        for name, shard in list(self.shards.items()):
            health = shard.health()
            stale = False
            if self.mode == PROCESS and shard.alive:
                silent = MONOTONIC() - shard.last_heartbeat
                if silent > self.heartbeat_timeout:
                    first = self._stale_since.setdefault(name, now)
                    if now - first >= self.rebalance_debounce:
                        stale = True
                    else:
                        # suspect: stale, but inside the debounce
                        # window — no eviction, no quarantine
                        actions[name] = "suspect"
                        continue
                else:
                    self._stale_since.pop(name, None)
            if not shard.alive or stale:
                self._stale_since.pop(name, None)
                if stale:
                    shard.kill()
                with self._lock:
                    pending_here = any(
                        t.shard == name for t in self._inflight.values()
                    )
                    in_ring = name in self.ring
                if in_ring or pending_here:
                    self._on_shard_down(shard)
                    actions[name] = "removed-dead"
                decision = self._maybe_respawn(name, now)
                if decision is not None:
                    actions[name] = decision
                continue
            healthy = self._shard_healthy(shard, health)
            with self._lock:
                in_ring = name in self.ring
                if in_ring and not healthy:
                    self._remove_from_ring(name)
                    actions[name] = "quarantined"
                elif not in_ring and healthy:
                    if self.ring.add(name):
                        self._rebalances += 1
                        METRICS.counter(
                            "repro_cluster_ring_rebalances_total",
                            direction="add",
                        ).inc()
                        actions[name] = "restored"
        return actions

    # -- supervision -------------------------------------------------------

    def _publish_restart_state(self, name: str) -> None:
        METRICS.gauge("repro_cluster_restart_state", shard=name).set(
            STATE_GAUGE[self._supervisor.state_of(name)]
        )

    def _maybe_respawn(self, name: str, now: float) -> "str | None":
        """Consult the supervisor about one dead shard; maybe respawn."""
        sup = self._supervisor
        if sup is None or self._closed:
            return None
        decision = sup.on_dead(name, now)
        self._publish_restart_state(name)
        if decision == DECIDE_WAIT:
            return "backoff"
        if decision != DECIDE_RESPAWN:
            return "exhausted"
        try:
            self._respawn_shard(name)
        except Exception:  # noqa: BLE001 - a failed spawn charges budget
            sup.note_respawn_failed(name, now)
            self._publish_restart_state(name)
            return "respawn-failed"
        restarts = sup.note_respawned(name)
        self._publish_restart_state(name)
        METRICS.counter("repro_cluster_respawn_total", shard=name).inc()
        if self.telemetry is not None:
            self.telemetry.ingest(
                make_event(
                    "respawn", name, self._clock(), {"restarts": restarts}
                )
            )
        with self._lock:
            if self.ring.add(name):
                self._rebalances += 1
                METRICS.counter(
                    "repro_cluster_ring_rebalances_total", direction="add"
                ).inc()
        return "respawned"

    def _respawn_shard(self, name: str):
        """Rebuild one shard from its stashed config and warm it."""
        if self.mode == INLINE:
            shard = self._make_inline_shard(name)
            self.shards[name] = shard
        else:
            shard = self._make_process_shard(name)
            shard.launch()
            shard.wait_ready(timeout=30.0)
            self.shards[name] = shard
        with self._lock:
            self._outstanding[name] = 0
        self._warm_shard(shard)
        return shard

    def _warm_shard(self, shard) -> None:
        """Promote recently served keys into the fresh shard's memory
        tier from the shared store (no recomputation)."""
        with self._lock:
            points = list(self._recent_points)
        if not points:
            return
        if self.mode == PROCESS:
            shard._send(
                {"op": "warm", "points": [p.to_dict() for p in points]}
            )
        else:
            for p in points:
                shard.view.get(p)

    def _monitor_loop(self, interval: float) -> None:
        while not self._monitor_stop.wait(interval):
            try:
                self.check_shards()
            except Exception:  # noqa: BLE001 - the monitor must survive
                pass

    # -- execution (inline mode) -------------------------------------------

    def run_pending(self, max_jobs: "int | None" = None) -> int:
        """Pump inline shards in deterministic ring order; returns runs.

        Iterates sorted shard names repeatedly until no shard makes
        progress, so work created *during* the pass (resubmissions
        after a :meth:`kill_shard`, cache write-backs) still runs.
        Process-mode shards drain themselves; this is then a no-op.
        """
        total = 0
        while True:
            progressed = 0
            for name in sorted(self.shards):
                shard = self.shards[name]
                budget = None if max_jobs is None else max_jobs - total
                if budget is not None and budget <= 0:
                    return total
                progressed += shard.pump(budget)
            total += progressed
            if progressed == 0:
                return total

    # -- introspection -----------------------------------------------------

    def health(self) -> dict:
        """Aggregated cluster snapshot: ring, shards, store, jobs."""
        shard_healths = {
            name: shard.health() for name, shard in sorted(self.shards.items())
        }
        store_totals = {"memory": 0, "shared": 0, "disk": 0, "miss": 0, "puts": 0}
        for h in shard_healths.values():
            for k, v in (h.get("store") or {}).items():
                store_totals[k] = store_totals.get(k, 0) + v
        with self._lock:
            counts = dict(self._status_counts)
            inflight = len(self._inflight)
            rebalances = self._rebalances
            resubmitted = self._resubmitted
            closed = self._closed
        self.slo.publish()
        doc = {
            "mode": self.mode,
            "accepting": not closed and len(self.ring) > 0,
            "ring": self.ring.snapshot(),
            "rebalances": rebalances,
            "resubmitted": resubmitted,
            "inflight": inflight,
            "jobs": counts,
            "shards": shard_healths,
            "store": store_totals,
            "slo": self.slo.snapshot(),
        }
        if self.telemetry is not None:
            doc["telemetry"] = self.telemetry.counts()
        if self._journal is not None:
            doc["journal"] = self._journal.stats()
        if self._supervisor is not None:
            doc["supervisor"] = {
                "respawns": self._supervisor.respawns,
                "budget": self._supervisor.restart_budget,
                "shards": self._supervisor.snapshot(),
            }
        if self.recovered:
            doc["recovered"] = len(self.recovered)
        return doc

    def readiness(self) -> dict:
        """May the front door take new traffic right now?"""
        with self._lock:
            closed = self._closed
        ready = not closed and len(self.ring) > 0
        return {
            "ready": ready,
            "accepting": not closed,
            "ring": self.ring.snapshot(),
        }

    def write_health(self, path: str) -> str:
        """Crash-safely persist the aggregate health snapshot to ``path``."""
        doc = self.health()
        doc["readiness"] = self.readiness()
        return atomic_write_json(path, doc, indent=1, sort_keys=True)

    def job_traces(self) -> "dict[str, SpanProfile]":
        """Span trees of resolved traced jobs, by job id."""
        with self._lock:
            return dict(self._traces)

    def write_trace(self, path: str) -> str:
        """Write one merged Chrome trace over every retained job trace.

        One track per process (front door + each shard that served
        work), slices linked by trace id — load it in
        ``chrome://tracing`` / Perfetto.
        """
        return write_chrome_trace(self.job_traces().values(), path)

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def recover(cls, journal_dir: str, **kwargs) -> "ServingCluster":
        """Rebuild a cluster from a crashed front door's journal.

        Folds the journal in ``journal_dir`` (tolerating a torn tail),
        builds a fresh cluster journaling into the *same* directory
        (so the merged history stays replayable), and resubmits every
        accepted-but-unterminated job in its original acceptance
        order, preserving original job ids.  The resubmitted tickets
        are exposed as :attr:`recovered`; each resolves to exactly one
        terminal response, with already-computed work served from the
        shared store rather than recomputed.  Extra keyword arguments
        are the regular constructor's.
        """
        replay = replay_journal(journal_dir)
        kwargs.setdefault("journal_dir", journal_dir)
        cluster = cls(**kwargs)
        counts = replay.counts()
        METRICS.counter("repro_cluster_recovered_jobs_total").inc(
            counts["open"]
        )
        if cluster.telemetry is not None:
            cluster.telemetry.ingest(
                make_event(
                    "recovered", FRONTDOOR, cluster._clock(), dict(counts)
                )
            )
        tickets = [
            cluster.submit(wire, _recovered=True)
            for wire in replay.unterminated()
        ]
        cluster.recovered = tuple(tickets)
        return cluster

    def stop(self, timeout: float = 15.0) -> None:
        """Shut down every shard; unresolved jobs resolve as shed."""
        with self._lock:
            self._closed = True
        self._monitor_stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=timeout)
        for shard in self.shards.values():
            shard.stop(timeout=timeout)
        # anything still unresolved (e.g. stranded on a killed shard
        # with no survivors) gets a structured terminal answer
        with self._lock:
            leftovers = list(self._inflight.values())
            self._inflight.clear()
        for tracked in leftovers:
            if not tracked.ticket.done():
                self._finish(
                    tracked.ticket, _shed_response(tracked.job, "shutdown")
                )
        if self._journal is not None:
            self._journal.close()
        if self._owns_store_dir:
            import shutil

            shutil.rmtree(self._owns_store_dir, ignore_errors=True)

    def __enter__(self) -> "ServingCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


__all__ = [
    "INLINE",
    "PROCESS",
    "InlineShard",
    "ProcessShard",
    "ServingCluster",
]
