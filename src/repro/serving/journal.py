"""Crash-safe write-ahead job journal for the serving front door.

The cluster's one remaining single point of loss (PR 6/7) was the
front door itself: an accepted job lived only in the in-memory
``_inflight`` map, so killing the front-door process lost every job
that had been admitted but not yet answered.  This module closes that
hole with a write-ahead journal in the same spirit as the
checkpoint/recovery discipline PR 3 proved bit-identical for PxPOTRF:

* :class:`JobJournal` — an **append-only JSONL** file.  Each record is
  one line of canonical JSON (sorted keys, compact separators).  The
  sync discipline is asymmetric, and deliberately so.  An ``accepted``
  record is the WAL write proper — the only copy of a job that has
  been admitted but not yet routed — so it is *flushed* before the
  append returns (and before the cluster routes the job): flushed
  bytes are in the page cache, which survives a SIGKILL of the front
  door.  Machine-crash durability is **group-committed**: every
  ``sync_every``-th acceptance (default 64), plus :meth:`close` and any
  injected crash, takes an ``os.fsync`` — bounding what a *power*
  failure can lose to the last ``sync_every`` acceptances while
  keeping the fsync rate an order of magnitude below one-per-record
  (under concurrent shard store writes an fsync serializes on the
  filesystem journal and costs ~10x its idle price; per-record syncing
  measurably throttles admission).  The bookkeeping records
  (``assigned``, the terminals) are cheaper still — *write-behind*:
  appended to the same handle under the same lock (so ordering is
  exact) but left in the userspace buffer until the next flush.
  Losing a tail of them is safe by construction — replay then merely
  resubmits jobs that had in fact finished, resubmission is idempotent
  (content-addressed store dedup) and each recovered ticket still
  resolves exactly once.  The payoff is that journaling stays off the
  hot path: the result-reader threads never touch the disk, and the
  submit thread syncs once per group.  Appends never rewrite the file,
  so a crash can only tear the final buffered span, which replay
  detects and ignores line by line (a torn record was never
  acknowledged).
* Record kinds mirror a job's front-door lifecycle: ``accepted``
  (the job's full current wire document plus its content-address),
  ``assigned`` (which shard), and the terminal pair ``completed`` /
  ``shed``.  Records are keyed by the job's **content-address**
  (:meth:`SpecPoint.key`), so replay is idempotent: resubmitting a
  job whose result already reached the shared store is a cache hit,
  not a recomputation.
* :func:`replay_journal` — fold a journal (one file, or a directory
  holding one) back into the set of accepted-but-unterminated jobs,
  in acceptance order.  ``ServingCluster.recover`` resubmits exactly
  those, which is what delivers every accepted job exactly one
  terminal response across a front-door crash.

Determinism: records carry the cluster's *injected* clock reading and
a per-incarnation ``seq`` — never wall time, pids, or thread ids — so
an inline (virtual-clock) chaos soak writes a byte-reproducible
journal, up to the process-global job-id counter.

Chaos: ``crash_at_record=k`` arms the front-door-crash fault of
:class:`~repro.faults.plan.ClusterFaultPlan` — the journal durably
writes record ``k`` and then crashes, either by raising
:class:`JournalCrash` (inline tests) or via ``os._exit`` (the CLI,
modeling a SIGKILL: no cleanup, daemon shards die with the parent).
"""

from __future__ import annotations

import json
import os
import threading

#: Journal record kinds, in lifecycle order.
ACCEPTED = "accepted"
ASSIGNED = "assigned"
COMPLETED = "completed"
SHED_RECORD = "shed"

RECORD_KINDS = (ACCEPTED, ASSIGNED, COMPLETED, SHED_RECORD)

#: Record kinds that terminate a job (exactly one per accepted job).
TERMINAL_RECORDS = (COMPLETED, SHED_RECORD)

#: The journal file name inside a journal directory.
JOURNAL_FILE = "journal.jsonl"

#: Exit code of an injected front-door crash (``crash_mode="exit"``);
#: ``os.EX_TEMPFAIL`` — the condition is transient, recovery applies.
CRASH_EXIT_CODE = 75


class JournalCrash(RuntimeError):
    """The armed front-door crash fired (``crash_mode="raise"``)."""


def journal_path(path_or_dir: str) -> str:
    """Resolve a journal location: a ``.jsonl`` file, or its directory."""
    if path_or_dir.endswith(".jsonl"):
        return path_or_dir
    return os.path.join(path_or_dir, JOURNAL_FILE)


class JobJournal:
    """Append-only, fsync'd JSONL write-ahead journal (see module doc).

    Parameters
    ----------
    directory:
        Journal directory (created if missing); the journal appends to
        ``journal.jsonl`` inside it.  An existing file is appended to,
        never truncated — recovery incarnations extend the same
        journal, so replay always sees the merged history.
    clock:
        Injected time source stamped into every record (the cluster
        passes its own clock: a :class:`ManualClock` in inline mode,
        so inline journals are byte-reproducible).
    sync:
        ``True`` (default) flushes every ``accepted`` append
        (SIGKILL-safety before routing) and fsyncs every
        ``sync_every``-th one (bounded machine-crash window) — the WAL
        crash contract.  ``False`` buffers everything until
        :meth:`close`; benches use it to isolate the sync cost.
    sync_every:
        Group-commit width: acceptances per fsync (default 64; 1 is
        strict fsync-per-acceptance).
    crash_at_record:
        Chaos: after durably writing the N-th record of *this
        incarnation* (1-based), crash the front door.
    crash_mode:
        ``"raise"`` (default) raises :class:`JournalCrash`;
        ``"exit"`` calls ``os._exit(CRASH_EXIT_CODE)`` — no cleanup,
        the closest portable stand-in for SIGKILL.
    """

    def __init__(
        self,
        directory: str,
        *,
        clock=None,
        sync: bool = True,
        sync_every: int = 64,
        crash_at_record: "int | None" = None,
        crash_mode: str = "raise",
    ) -> None:
        if int(sync_every) < 1:
            raise ValueError(f"sync_every must be >= 1, got {sync_every}")
        if crash_mode not in ("raise", "exit"):
            raise ValueError(
                f"crash_mode must be 'raise' or 'exit', got {crash_mode!r}"
            )
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.path = journal_path(self.directory)
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.sync = bool(sync)
        self.sync_every = int(sync_every)
        self._unsynced_accepts = 0
        self.crash_at_record = (
            None if crash_at_record is None else int(crash_at_record)
        )
        self.crash_mode = crash_mode
        self._lock = threading.Lock()
        self._fh = open(self.path, "a", encoding="utf-8")
        #: Records durably written by this incarnation.
        self.records_written = 0
        #: fsync calls taken (one per accepted record when ``sync``).
        self.fsyncs = 0

    # -- the one append path ---------------------------------------------

    def _append(self, record: dict, *, durable: bool = False) -> None:
        crash = False
        with self._lock:
            if self._fh.closed:
                return  # journal closed mid-shutdown: drop silently
            record["seq"] = self.records_written + 1
            line = json.dumps(record, sort_keys=True, separators=(",", ":"))
            self._fh.write(line + "\n")
            self.records_written += 1
            crash = (
                self.crash_at_record is not None
                and self.records_written >= self.crash_at_record
            )
            if durable and self.sync:
                self._fh.flush()
                self._unsynced_accepts += 1
            if crash or (
                self.sync and self._unsynced_accepts >= self.sync_every
            ):
                # group commit — and the crash contract promises record
                # N is durable before the crash fires, so that path
                # syncs unconditionally
                self._fh.flush()
                os.fsync(self._fh.fileno())
                self.fsyncs += 1
                self._unsynced_accepts = 0
        if crash:
            # record N is durable; everything after this instant is lost
            if self.crash_mode == "exit":
                os._exit(CRASH_EXIT_CODE)
            raise JournalCrash(
                f"injected front-door crash at journal record "
                f"{self.records_written}"
            )

    def _base(self, kind: str, job_id: str, key: str) -> dict:
        return {
            "record": kind,
            "t": float(self._clock()),
            "job_id": str(job_id),
            "key": str(key),
        }

    # -- lifecycle records ------------------------------------------------

    def record_accepted(self, job, key: str, *, recovered: bool = False) -> None:
        """The WAL write: the job's full wire document, pre-routing."""
        rec = self._base(ACCEPTED, job.job_id, key)
        rec["job"] = job.to_wire()
        if recovered:
            rec["recovered"] = True
        self._append(rec, durable=True)

    def record_assigned(self, job_id: str, key: str, shard: str) -> None:
        """Routing outcome: which shard owns the job right now."""
        rec = self._base(ASSIGNED, job_id, key)
        rec["shard"] = str(shard)
        self._append(rec)

    def record_terminal(
        self, job_id: str, key: str, status: str, reason: "str | None" = None
    ) -> None:
        """Terminal record: ``shed`` for sheds, ``completed`` otherwise."""
        kind = SHED_RECORD if status == "shed" else COMPLETED
        rec = self._base(kind, job_id, key)
        rec["status"] = str(status)
        if reason is not None:
            rec["reason"] = str(reason)
        self._append(rec)

    # -- introspection / lifecycle ----------------------------------------

    def stats(self) -> dict:
        """Health-payload snapshot: path + records this incarnation."""
        with self._lock:
            return {
                "path": self.path,
                "records": self.records_written,
                "fsyncs": self.fsyncs,
                "sync": self.sync,
            }

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()
                if self.sync:
                    os.fsync(self._fh.fileno())
                    self.fsyncs += 1
                self._fh.close()


class JournalReplay:
    """The folded state of one journal: who was accepted, who finished."""

    def __init__(self, records: "list[dict]", torn: int = 0) -> None:
        self.records = records
        #: Undecodable lines skipped (a torn tail counts here).
        self.torn = int(torn)
        #: job_id -> first accepted record (acceptance order preserved).
        self.accepted: "dict[str, dict]" = {}
        #: job_ids holding a terminal (completed/shed) record.
        self.terminated: "set[str]" = set()
        for rec in records:
            kind = rec.get("record")
            jid = rec.get("job_id")
            if not jid:
                continue
            if kind == ACCEPTED and jid not in self.accepted:
                self.accepted[jid] = rec
            elif kind in TERMINAL_RECORDS:
                self.terminated.add(jid)

    def unterminated(self) -> "list[dict]":
        """Accepted-but-unterminated job wire docs, acceptance order."""
        return [
            rec["job"]
            for jid, rec in self.accepted.items()
            if jid not in self.terminated and rec.get("job") is not None
        ]

    def counts(self) -> dict:
        """Summary for logs/CI: accepted/terminated/open/torn."""
        return {
            "records": len(self.records),
            "accepted": len(self.accepted),
            "terminated": len(self.terminated & set(self.accepted)),
            "open": len(
                [j for j in self.accepted if j not in self.terminated]
            ),
            "torn": self.torn,
        }


def replay_journal(path_or_dir: str) -> JournalReplay:
    """Read a journal back, tolerating a torn (partially written) tail.

    A line that does not decode is dropped and counted in
    ``replay.torn``: the only way a well-formed journal gets one is a
    crash mid-append, in which case the record was never acknowledged
    to the writer — dropping it is the correct (and safe) reading.
    A missing file replays as empty: recovering a front door that
    crashed before its first record is a no-op, not an error.
    """
    path = journal_path(str(path_or_dir))
    records: "list[dict]" = []
    torn = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:
                    torn += 1
                    continue
                if isinstance(rec, dict):
                    records.append(rec)
                else:
                    torn += 1
    except FileNotFoundError:
        pass
    return JournalReplay(records, torn=torn)


__all__ = [
    "ACCEPTED",
    "ASSIGNED",
    "COMPLETED",
    "CRASH_EXIT_CODE",
    "JOURNAL_FILE",
    "JobJournal",
    "JournalCrash",
    "JournalReplay",
    "RECORD_KINDS",
    "SHED_RECORD",
    "TERMINAL_RECORDS",
    "journal_path",
    "replay_journal",
]
