"""Sharded serving cluster: a consistent-hash front door over N shards.

:class:`ServingCluster` scales the single-process
:class:`~repro.serving.service.FactorizationService` out to N
independent shards behind one submit surface:

* **Routing** — jobs hash onto a :class:`~repro.serving.ring.HashRing`
  by their spec's content key, so identical specs always land on the
  same shard and hit its warm in-memory result tier.
* **Shared results** — every shard incarnation opens its own
  :class:`~repro.serving.store.ShardStoreView` over one shared store
  directory, so after a rebalance the new owner of a key serves the
  old owner's work from the store instead of recomputing (see the
  store module docstring for the 2.5D-replication analogy).
* **Health aggregation and rebalancing** — the front door tracks shard
  liveness (process exit, stale heartbeats) and breaker state; a dead
  or hard-open shard is removed from the ring (its keys fall through
  to clockwise neighbours), a recovered shard is re-added, and every
  in-flight job of a *dead* shard is resubmitted to a survivor — an
  accepted job is never lost, it is re-routed.

Two transports, one shard runtime: every shard is a :class:`Shard`
built from the cluster's one :class:`ShardConfig`, and a respawned
shard starts cold in either mode, then is warmed from the shared store.

``mode="inline"``
    The :class:`Shard` lives in this process with ``workers=0``,
    executed by :meth:`ServingCluster.run_pending` in deterministic
    ring order on the caller's thread, with a shared
    :class:`~repro.serving.clock.ManualClock` by default.  This is the
    virtual-clock mode the determinism suite runs: same seed, same
    submission order → identical responses and identical shard
    assignments, for any shard count.
``mode="process"``
    Each shard is a real OS process (``multiprocessing`` spawn) whose
    :func:`_shard_process_main` builds the same :class:`Shard` with
    worker threads and feeds it from a duplex pipe with the versioned
    wire schema from :mod:`repro.serving.api`; :class:`ProcessShard`
    is the front door's proxy for it.  Shard processes emit heartbeats
    (and, when ``health_dir`` is set, write crash-safe health
    snapshots via :func:`~repro.util.serialization.atomic_write_json`);
    the parent's monitor removes silent or dead shards from the ring
    and resubmits their in-flight jobs.

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
  per-shard restart budget, rejoined to the ring, and warmed from the
  shared store tier; ``repro_cluster_respawn_total`` and the
  ``repro_cluster_restart_state`` gauge track it.
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
from typing import Callable, Iterable, Mapping

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
from repro.serving.budget import Budget
from repro.serving.clock import MONOTONIC, Clock, ManualClock
from repro.serving.journal import JobJournal, replay_journal
from repro.serving.ring import HashRing
from repro.serving.service import FactorizationService, _validate_job_point
from repro.serving.store import ShardStoreView
from repro.serving.supervisor import (
    DECIDE_RESPAWN,
    DECIDE_WAIT,
    STATE_GAUGE,
    ShardSupervisor,
)
from repro.serving.telemetry import ClusterTelemetry, TelemetryBus, make_event
from repro.util.serialization import atomic_write_json
from repro.util.store import code_version
from repro.util.validation import ValidationError

#: Process label for front-door trace spans and telemetry events.
FRONTDOOR = "frontdoor"

INLINE = "inline"
PROCESS = "process"

#: Breaker states considered "hard open" (cooldown still running).
_OPEN = "open"

#: A shard's telemetry sink: ``emit(kind, t, attrs)``.
Emit = Callable[[str, float, dict], None]


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


@dataclasses.dataclass(frozen=True)
class ShardConfig:
    """Everything a shard incarnation is built from.

    The cluster builds the one instance from its own parameters, where
    their defaults live; it is frozen and picklable, so a shard process
    receives it as is.
    """

    store_dir: str
    store_version: str
    workers: int
    queue_capacity: int
    retries: int
    breaker_threshold: int
    breaker_cooldown: float
    default_budget: "Budget | None"
    heartbeat_interval: float
    health_dir: "str | None"
    telemetry: bool


class Shard:
    """One shard incarnation, the same runtime in both transports.

    It owns a fresh :class:`ShardStoreView` over the shared store
    directory (so a respawned shard starts cold), the
    :class:`FactorizationService` over that view, and the telemetry
    sink ``emit`` (``None`` emits nothing).  The inline transport is
    this class on the cluster's clock with ``workers=0``; a shard
    process builds it with worker threads (:func:`_shard_process_main`).
    ``on_down`` is told once when the shard dies; an in-process shard
    dies only through :meth:`kill`.
    """

    def __init__(
        self,
        name: str,
        config: ShardConfig,
        *,
        clock: Clock = MONOTONIC,
        emit: "Emit | None" = None,
        on_down: "Callable[[Shard], None] | None" = None,
        workers: int = 0,
    ) -> None:
        self.name = name
        self.alive = True
        self.on_down = on_down
        self._clock = clock
        self._emit = emit
        self.view = ShardStoreView(
            config.store_dir, name, version=config.store_version
        )
        if emit is not None:
            self.view.on_lookup = lambda tier: emit(
                "store", clock(), {"tier": tier}
            )
        self.service = FactorizationService(
            workers=workers,
            queue_capacity=config.queue_capacity,
            retries=config.retries,
            breaker_threshold=config.breaker_threshold,
            breaker_cooldown=config.breaker_cooldown,
            default_budget=config.default_budget,
            cache=self.view,
            clock=clock,
            name=name,
            on_event=emit,
        )

    def wait_ready(self, timeout: float = 0.0) -> None:
        """No-op: an in-process shard is ready once built."""

    def submit(self, job: Job, done_cb: Callable[[ServiceResponse], None]) -> None:
        """Admit one job; ``done_cb`` fires at its terminal response.

        A point the service refuses is answered ``failed`` /
        ``invalid-point`` through ``done_cb``, never raised.
        """
        try:
            ticket = self.service.submit(job)
        except ValidationError as exc:
            done_cb(ServiceResponse(
                job_id=job.job_id,
                status=FAILED,
                reason="invalid-point",
                detail={"error": f"{type(exc).__name__}: {exc}"},
                priority=job.priority,
            ))
        else:
            ticket.add_done_callback(done_cb)

    def pump(self, max_jobs: "int | None" = None) -> int:
        """Run queued jobs on the calling thread; dead shards run nothing."""
        if not self.alive:
            return 0
        return self.service.run_pending(max_jobs)

    def health(self) -> dict:
        """The service's liveness snapshot plus the view's tier stats."""
        h = self.service.health()
        h["reachable"] = self.alive
        h["store"] = self.view.stats()
        return h

    def warm(self, points: Iterable[SpecPoint]) -> None:
        """Promote ``points`` from the shared store into the memory tier.

        Best-effort (a failed lookup is skipped); emits one ``warm``
        event with the count found.
        """
        warmed = 0
        for point in points:
            try:
                if self.view.get(point) is not None:
                    warmed += 1
            except Exception:  # noqa: BLE001 - warming is best-effort
                pass
        if self._emit is not None:
            self._emit("warm", self._clock(), {"count": warmed})

    def silent_for(self) -> float:
        """Always 0: an in-process shard has no heartbeat to miss."""
        return 0.0

    def stall(self, seconds: float) -> bool:
        """No-op: an in-process shard has no heartbeats to suppress."""
        return False

    def kill(self) -> None:
        """Simulated crash: stop executing (queued work is stranded)
        and report down."""
        if self.alive:
            self.alive = False
            if self.on_down is not None:
                self.on_down(self)

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful shutdown: the service sheds its backlog."""
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


def _shard_process_main(conn, name: str, config: ShardConfig) -> None:
    """Entry point of one shard process (``mode="process"``).

    Builds the :class:`Shard` from ``config``, then serves ops from
    the duplex pipe: ``submit`` (job wire in, ``result`` wire out at
    terminal), ``health`` (snapshot RPC), ``warm`` (respawn warm-up),
    ``stall`` (chaos: heartbeats suppressed) and ``stop`` (graceful
    shutdown: queued jobs shed, results flushed, then ``bye``).  A
    daemon heartbeat thread emits liveness pings and — when
    ``health_dir`` is set — writes the shard's health snapshot
    crash-safely via :func:`atomic_write_json`, so an external reader
    (or the parent after a crash) never sees a torn snapshot.
    """
    bus = TelemetryBus(name) if config.telemetry else None
    shard = Shard(
        name,
        config,
        emit=None if bus is None else bus.emit,
        workers=config.workers,
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

    def write_snapshot() -> None:
        # the crash-safe write is the point: a reader (or the parent
        # post-mortem) must never see a torn snapshot
        if config.health_dir:
            atomic_write_json(
                os.path.join(config.health_dir, f"{name}.json"),
                {
                    "shard": name,
                    "ready": shard.service.readiness(),
                    "health": shard.health(),
                    "written_at": time.time(),
                },
                indent=1,
                sort_keys=True,
            )

    stopping = threading.Event()
    #: Chaos: monotonic instant until which heartbeats are suppressed
    #: (the shard keeps working — it just goes silent; the parent's
    #: staleness/debounce/supervisor path is what's under test).
    stall_until = [0.0]

    def heartbeat_loop() -> None:
        while not stopping.wait(config.heartbeat_interval):
            if time.monotonic() < stall_until[0]:
                continue  # injected stall: stay alive but go silent
            if bus is not None:
                bus.emit("heartbeat", time.monotonic(), {})
            send({"op": "heartbeat"})
            flush_telemetry()
            write_snapshot()

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

                shard.submit(job, on_done)
            elif op == "health":
                send({"op": "health", "payload": shard.health()})
            elif op == "warm":
                shard.warm([SpecPoint.from_dict(d) for d in msg["points"]])
                flush_telemetry()
            elif op == "stall":
                stall_until[0] = time.monotonic() + float(
                    msg.get("seconds", 0.0)
                )
            elif op == "stop":
                break
    finally:
        stopping.set()
        shard.stop()  # sheds the backlog; callbacks flush results out
        flush_telemetry()
        write_snapshot()
        send({"op": "bye"})
        conn.close()


class ProcessShard:
    """The front door's proxy for one shard process (pipe + reader).

    Built like a :class:`Shard`: construction starts the process and
    :meth:`wait_ready` awaits its handshake, so several shards start
    together.  Heartbeats are timed on ``clock``; ``emit`` receives the
    shard's telemetry batches event by event, and ``on_down`` hears of
    the process's death once, whether it was killed or died.
    """

    def __init__(
        self,
        name: str,
        config: ShardConfig,
        *,
        clock: Clock = MONOTONIC,
        emit: "Emit | None" = None,
        on_down: "Callable[[ProcessShard], None] | None" = None,
    ) -> None:
        self.name = name
        self.on_down = on_down
        self._clock = clock
        self._emit = emit
        ctx = multiprocessing.get_context("spawn")
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_shard_process_main,
            args=(child_conn, name, config),
            name=f"repro-shard-{name}",
            daemon=True,
        )
        self._send_lock = threading.Lock()
        self._down_lock = threading.Lock()
        self._pending: "dict[str, Callable[[ServiceResponse], None]]" = {}
        self._pending_lock = threading.Lock()
        self._ready = threading.Event()
        self._bye = threading.Event()
        self._health_payload: "dict | None" = None
        self._health_event = threading.Event()
        self.last_heartbeat = clock()
        self.process.start()
        child_conn.close()
        self.alive = True
        threading.Thread(
            target=self._reader, name=f"repro-shard-{name}-rx", daemon=True
        ).start()

    def wait_ready(self, timeout: float = 120.0) -> None:
        """Block until the child's ``ready`` handshake arrives."""
        if not self._ready.wait(timeout=timeout):
            raise TimeoutError(f"shard {self.name} did not come up")
        self.last_heartbeat = self._clock()

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
                self.last_heartbeat = self._clock()
            elif op == "telemetry":
                if self._emit is not None:
                    for e in msg.get("events") or []:
                        self._emit(e["kind"], e["t"], dict(e["attrs"]))
            elif op == "ready":
                self._ready.set()
            elif op == "health":
                self._health_payload = msg.get("payload")
                self._health_event.set()
            elif op == "bye":
                self._bye.set()
        self._down()

    def _down(self) -> None:
        """Mark the shard down; the first report runs ``on_down``."""
        with self._down_lock:
            was_alive, self.alive = self.alive, False
            self._health_event.set()  # unblock any waiting health RPC
            if was_alive and not self._bye.is_set() and self.on_down is not None:
                self.on_down(self)

    def submit(self, job: Job, done_cb: Callable[[ServiceResponse], None]) -> None:
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
        if not self._send({"op": "health"}):
            return {"reachable": False}
        if not self._health_event.wait(timeout=timeout) or not self.alive:
            return {"reachable": False}
        payload = self._health_payload or {}
        payload.setdefault("reachable", True)
        return payload

    def warm(self, points: Iterable[SpecPoint]) -> None:
        """Ask the shard to warm ``points`` (see :meth:`Shard.warm`)."""
        self._send({"op": "warm", "points": [p.to_dict() for p in points]})

    def silent_for(self) -> float:
        """Seconds since the shard's last heartbeat."""
        return self._clock() - self.last_heartbeat

    def stall(self, seconds: float) -> bool:
        """Chaos: suppress the shard's heartbeats for ``seconds``."""
        return self._send({"op": "stall", "seconds": float(seconds)})

    def kill(self) -> None:
        """Hard-kill the shard process and report down."""
        if self.process.is_alive():
            self.process.terminate()
        self._down()

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


#: How each mode builds a shard incarnation (same signature for both).
_TRANSPORTS = {INLINE: Shard, PROCESS: ProcessShard}


class ServingCluster:
    """N independent factorization shards behind one consistent-hash door.

    Parameters
    ----------
    shards:
        Shard count; shards are named ``shard-0`` … ``shard-{N-1}``.
    mode:
        ``"process"`` (default) spawns one OS process per shard;
        ``"inline"`` builds deterministic in-process shards pumped by
        :meth:`run_pending` on a virtual clock.
    workers_per_shard / queue_capacity / retries / breaker_* /
    default_budget:
        Per-shard :class:`FactorizationService` configuration (inline
        shards always run ``workers=0``).
    store_dir:
        Directory of the shared result store (default a fresh temp
        directory cleaned up at :meth:`stop`).
    replicas:
        Virtual replicas per shard on the hash ring.
    clock:
        Front-door time source; defaults to a fresh
        :class:`ManualClock` in inline mode and the monotonic clock in
        process mode.
    heartbeat_interval / heartbeat_timeout / monitor_interval:
        Process-mode liveness: shards ping every ``interval`` seconds
        (timed on ``clock``); a shard silent for ``timeout`` seconds
        is treated as dead.
        ``monitor_interval`` starts a background thread calling
        :meth:`check_shards`; ``None`` leaves checks to the caller.
    rebalance_debounce:
        Grace window (seconds) a heartbeat-stale shard gets before
        eviction: staleness must *persist* that long across health
        passes.  A slow-but-alive shard (GC pause, CPU contention)
        that resumes heartbeating inside the window is never evicted.
        Default 0.0 — evict on first stale observation (the PR 6
        behavior).
    journal_dir / journal_crash_mode:
        When ``journal_dir`` is set, the front door write-ahead
        journals every accepted/assigned/terminal transition there
        (see :mod:`repro.serving.journal`); :meth:`recover` replays
        it after a crash.  ``journal_crash_mode`` selects how an
        armed ``crash_at_record`` chaos fault dies (``"raise"`` /
        ``"exit"``).  Off (``None``) by default — zero cost, responses
        byte-identical to the unjournaled cluster.
    chaos:
        A seeded :class:`~repro.faults.plan.ClusterFaultPlan`; every
        injection decision is a pure function of the submission index
        (shard kills/stalls, dispatch drops/delays, poison jobs,
        front-door crash-at-record-k).  ``None`` (default) injects
        nothing and costs nothing.
    supervise / restart_budget / restart_backoff_base /
    supervisor_seed:
        ``supervise=True`` makes :meth:`check_shards` respawn dead
        shards under the
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
        default_budget: "Budget | None" = None,
        store_dir: "str | None" = None,
        replicas: int = 64,
        clock: "Clock | None" = None,
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: float = 10.0,
        monitor_interval: "float | None" = None,
        rebalance_debounce: float = 0.0,
        health_dir: "str | None" = None,
        tracing: bool = False,
        telemetry: bool = False,
        slo_target: "SLOTarget | None" = None,
        journal_dir: "str | None" = None,
        journal_crash_mode: str = "raise",
        chaos: "ClusterFaultPlan | None" = None,
        supervise: bool = False,
        restart_budget: int = 3,
        restart_backoff_base: float = 0.1,
        supervisor_seed: int = 0,
    ) -> None:
        if mode not in _TRANSPORTS:
            raise ValueError(f"mode must be 'inline' or 'process', got {mode!r}")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        names = [f"shard-{i}" for i in range(int(shards))]
        self.mode = mode
        self._transport = _TRANSPORTS[mode]
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
                crash_at_record=(
                    self._chaos.crash_at_record if self._chaos else None
                ),
                crash_mode=journal_crash_mode,
            )
        self._supervisor: "ShardSupervisor | None" = None
        if supervise:
            self._supervisor = ShardSupervisor(
                seed=supervisor_seed,
                restart_budget=restart_budget,
                backoff_base=restart_backoff_base,
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

        #: What every shard incarnation, first or respawned, is built from.
        self.config = ShardConfig(
            store_dir=str(store_dir),
            store_version=code_version(),
            workers=workers_per_shard,
            queue_capacity=queue_capacity,
            retries=retries,
            breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown,
            default_budget=default_budget,
            heartbeat_interval=heartbeat_interval,
            health_dir=health_dir,
            telemetry=self.telemetry is not None,
        )
        # shard processes start together, then are awaited together
        self.shards = {name: self._make_shard(name) for name in names}
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

    def _make_shard(self, name: str) -> "Shard | ProcessShard":
        """A fresh incarnation of shard ``name`` on this cluster's
        transport (a shard process is started, not yet awaited)."""
        emit = None
        if self.telemetry is not None:
            ingest = self.telemetry.ingest

            def emit(kind: str, t: float, attrs: dict) -> None:
                ingest(make_event(kind, name, t, attrs))

        return self._transport(
            name,
            self.config,
            clock=self._clock,
            emit=emit,
            on_down=self._on_shard_down,
        )

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
        """The key's owner on the ring, if that shard is alive."""
        owner = self.ring.node_for(key)
        if owner is None or not self.shards[owner].alive:
            return None
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
        if self._supervisor is not None and response.status not in (FAILED, SHED):
            # before delivery, so a respawn the client triggers next
            # warms this point too
            self._note_recent_point(tracked.job.point)
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
        """Chaos hook: hard-kill one shard; it reports down, which runs
        the death path now."""
        self.shards[name].kill()

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
        # heartbeats are timed on the front door's clock too
        now = float(self._clock())
        for name, shard in list(self.shards.items()):
            health = shard.health()
            stale = shard.alive and shard.silent_for() > self.heartbeat_timeout
            if stale:
                first = self._stale_since.setdefault(name, now)
                if now - first < self.rebalance_debounce:
                    # suspect: stale, but inside the debounce window —
                    # no eviction, no quarantine
                    actions[name] = "suspect"
                    continue
            self._stale_since.pop(name, None)
            if not shard.alive or stale:
                with self._lock:
                    owned = name in self.ring or any(
                        t.shard == name for t in self._inflight.values()
                    )
                if stale:
                    shard.kill()  # it reports down: the death path runs
                elif owned:
                    self._on_shard_down(shard)
                if owned:
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

    def _respawn_shard(self, name: str) -> "Shard | ProcessShard":
        """Build a fresh incarnation of one shard and warm it."""
        shard = self._make_shard(name)
        shard.wait_ready(timeout=30.0)
        self.shards[name] = shard
        with self._lock:
            self._outstanding[name] = 0
        self._warm_shard(shard)
        return shard

    def _warm_shard(self, shard: "Shard | ProcessShard") -> None:
        """Promote recently served keys into the fresh shard's memory
        tier from the shared store (no recomputation)."""
        with self._lock:
            points = list(self._recent_points)
        if points:
            shard.warm(points)

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
    "ProcessShard",
    "ServingCluster",
    "Shard",
    "ShardConfig",
]
