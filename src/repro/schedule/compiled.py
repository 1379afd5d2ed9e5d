"""Transfer-schedule capture and replay (the cost-model JIT).

The paper's central observation is that the communication cost of a
Cholesky algorithm is a *closed-form function of shape*: every count
in Tables 1 and 2 depends only on (n, M, block sizes, layout), never
on matrix values.  The simulator exploits that: one interpreted run
of an algorithm is *captured* into a :class:`TransferSchedule` — the
per-level words and messages it charged, its peaks, flops and
bookkeeping totals — and any later run of the same shape is *replayed*
by adding those counts to a pristine machine plus one real
``dense_cholesky``, skipping the Python interpretation of the
algorithm entirely.

Capture needs no hook in the machine: a :class:`ScheduleRecorder`
made on the pristine machine before the run reads its counters
after it (:meth:`ScheduleRecorder.finalize`), so the record is a copy
of what the run charged and cannot disagree with it.

Fault determinism survives compilation: the realized read-fault
schedule (which sequence numbers faulted, and what the retries cost)
is part of the schedule, so a replay under the same
:class:`~repro.faults.plan.FaultPlan` reconstructs byte-identical
fault events and statistics.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Sequence

from repro.util.store import canonical_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.core import HierarchicalMachine

#: Serialization format version; bump on encoding changes.
SCHEDULE_FORMAT = 3

#: The fields of a schedule, all of them stored in its encoding.
_FIELDS = (
    "capacities",
    "enforce_capacity",
    "flops",
    "batch_hits",
    "read_calls",
    "peaks",
    "totals",
    "fault_digest",
    "fault_seqs",
    "fault_retry_words",
    "fault_retry_messages",
)


class ScheduleError(RuntimeError):
    """A compiled schedule cannot be applied to the given machine."""


def _pristine(machine: "HierarchicalMachine") -> bool:
    """Whether no run has charged ``machine`` since it was built or reset."""
    return not (
        machine.flops
        or machine.batch_hits
        or machine._read_seq
        or any(
            lvl.counters.words or lvl.counters.messages or lvl.peak_resident
            for lvl in machine.levels
        )
    )


class TransferSchedule:
    """One algorithm run's counts, compiled (the replayable artifact).

    The machine shape it was captured on (``capacities``,
    ``enforce_capacity``); the per-level counter totals (``totals``,
    one ``(words_read, messages_read, words_written, messages_written)``
    quadruple per level) and peak residency (``peaks``); the run's
    ``flops``, ``batch_hits`` and ``read_calls``; and the realized
    fault schedule (``fault_seqs`` and the retry costs) under
    ``fault_digest`` (digest of the plan, ``None`` = fault-free).
    """

    __slots__ = _FIELDS

    def __init__(
        self,
        *,
        capacities: Sequence[int],
        enforce_capacity: bool,
        flops: int,
        batch_hits: int,
        read_calls: int,
        peaks: Sequence[int],
        totals: Sequence[Sequence[int]],
        fault_digest: str | None = None,
        fault_seqs: Sequence[int] = (),
        fault_retry_words: int = 0,
        fault_retry_messages: int = 0,
    ) -> None:
        self.capacities = tuple(int(c) for c in capacities)
        self.enforce_capacity = bool(enforce_capacity)
        self.flops = int(flops)
        self.batch_hits = int(batch_hits)
        self.read_calls = int(read_calls)
        self.peaks = tuple(int(p) for p in peaks)
        self.totals = tuple(tuple(int(x) for x in row) for row in totals)
        if len(self.peaks) != len(self.capacities):
            raise ValueError("need one peak per level")
        if len(self.totals) != len(self.capacities) or any(
            len(row) != 4 for row in self.totals
        ):
            raise ValueError(
                "totals must be one (wr, mr, ww, mw) quadruple per level"
            )
        if fault_digest is not None and not isinstance(fault_digest, str):
            raise TypeError(f"fault digest {fault_digest!r} is not a string")
        self.fault_digest = fault_digest
        self.fault_seqs = tuple(int(s) for s in fault_seqs)
        if self.fault_seqs and fault_digest is None:
            raise ValueError("fault events recorded without a fault plan")
        self.fault_retry_words = int(fault_retry_words)
        self.fault_retry_messages = int(fault_retry_messages)

    # -- replay ----------------------------------------------------------

    def apply(self, machine: "HierarchicalMachine") -> None:
        """Fold this schedule into ``machine`` — the replay entry point.

        Validates *everything* before mutating anything, so a raised
        :class:`ScheduleError` leaves the machine untouched and the
        caller free to fall back to a normal captured run:

        * the machine's shape (capacities, enforcement) matches;
        * the machine is pristine (zero counters, nothing resident, no
          trace or guard — those observe per-event state a bulk replay
          cannot reproduce);
        * the fault configuration matches (plan digest, fresh injector).

        On success the machine ends in exactly the state the captured
        run left it in: counters, peaks, flops, batch hits, read
        sequence, and — with faults armed — the identical realized
        fault event list and statistics.
        """
        from repro.faults.injector import FaultEvent

        caps = tuple(lvl.capacity for lvl in machine.levels)
        if caps != self.capacities:
            raise ScheduleError(
                f"machine capacities {caps} != schedule {self.capacities}"
            )
        if machine.enforce_capacity != self.enforce_capacity:
            raise ScheduleError("capacity-enforcement flag mismatch")
        if machine.trace is not None:
            raise ScheduleError("cannot replay onto a tracing machine")
        if machine.guard is not None:
            raise ScheduleError("cannot replay onto a budget-guarded machine")
        if machine._scope_depth != 0 or not machine.resident.is_empty():
            raise ScheduleError("machine is mid-run (scope open or data resident)")
        if not _pristine(machine):
            raise ScheduleError("machine counters are not pristine")
        if self.fault_digest is None:
            if machine.faults is not None:
                raise ScheduleError("fault-free schedule, faulty machine")
        else:
            if machine.faults is None:
                raise ScheduleError("faulty schedule, fault-free machine")
            from repro.schedule.cache import fault_plan_digest

            if fault_plan_digest(machine.faults.plan) != self.fault_digest:
                raise ScheduleError("fault plan digest mismatch")
            if machine.faults.events or machine.faults.stats.any_injected():
                raise ScheduleError("machine fault injector is not fresh")

        for level, (wr, mr, ww, mw), peak in zip(
            machine.levels, self.totals, self.peaks
        ):
            level.counters.add_batch(wr, mr, ww, mw)
            level.note_resident(peak)
        machine.flops += self.flops
        machine.batch_hits += self.batch_hits
        machine._read_seq += self.read_calls
        if self.fault_digest is not None and machine.faults is not None:
            stats = machine.faults.stats
            for seq in self.fault_seqs:
                machine.faults.events.append(FaultEvent("read", -1, -1, seq, 0))
            stats.read_faults += len(self.fault_seqs)
            stats.read_retry_words += self.fault_retry_words
            stats.read_retry_messages += self.fault_retry_messages

    # -- serialization ---------------------------------------------------

    def to_bytes(self) -> bytes:
        """The schedule's encoding (what the disk tier stores).

        One line of canonical JSON (sorted keys, no spaces): the
        format and every field.  Deterministic, so :meth:`digest` can
        hash it.
        """
        record = {name: getattr(self, name) for name in _FIELDS}
        record["format"] = SCHEDULE_FORMAT
        return canonical_json(record)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "TransferSchedule":
        """Rebuild a schedule from :meth:`to_bytes` output.

        Raises :class:`ScheduleError` for anything :meth:`to_bytes`
        would not have written: unreadable JSON, an unknown format, a
        missing, extra or ill-typed field, or a non-canonical encoding
        of valid fields.
        """
        try:
            record = json.loads(blob)
        except ValueError as exc:
            raise ScheduleError(f"unreadable schedule: {exc}") from None
        if not isinstance(record, dict):
            raise ScheduleError("schedule is not a JSON object")
        if record.get("format") != SCHEDULE_FORMAT:
            raise ScheduleError(
                f"unsupported schedule format {record.get('format')!r}"
            )
        try:
            schedule = cls(**{name: record[name] for name in _FIELDS})
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ScheduleError(f"malformed schedule encoding: {exc!r}") from None
        if schedule.to_bytes() != blob:
            raise ScheduleError("schedule encoding is not canonical")
        return schedule

    def digest(self) -> str:
        """SHA-256 of :meth:`to_bytes` (corruption detection)."""
        return hashlib.sha256(self.to_bytes()).hexdigest()

    def __repr__(self) -> str:
        return (
            f"TransferSchedule(capacities={self.capacities}, "
            f"totals={self.totals}, flops={self.flops})"
        )


class ScheduleRecorder:
    """Capture: build one run's :class:`TransferSchedule` from its machine.

    Made before the run on a *pristine* machine (all counters zero —
    asserted here); :meth:`finalize` reads the machine's counters and
    fault record after the run.
    """

    def __init__(self, machine: "HierarchicalMachine") -> None:
        if not _pristine(machine):
            raise ScheduleError("capture requires a pristine machine")
        self.machine = machine

    def finalize(self) -> TransferSchedule:
        """The schedule of the run the machine has just finished."""
        machine = self.machine
        faults = machine.faults
        fault_digest = None
        fault_seqs: list[int] = []
        retry_words = retry_messages = 0
        if faults is not None:
            from repro.schedule.cache import fault_plan_digest

            fault_digest = fault_plan_digest(faults.plan)
            fault_seqs = [e.seq for e in faults.events if e.kind == "read"]
            retry_words = faults.stats.read_retry_words
            retry_messages = faults.stats.read_retry_messages
        return TransferSchedule(
            capacities=[lvl.capacity for lvl in machine.levels],
            enforce_capacity=machine.enforce_capacity,
            flops=machine.flops,
            batch_hits=machine.batch_hits,
            read_calls=machine._read_seq,
            peaks=[lvl.peak_resident for lvl in machine.levels],
            totals=[
                (
                    lvl.counters.words_read,
                    lvl.counters.messages_read,
                    lvl.counters.words_written,
                    lvl.counters.messages_written,
                )
                for lvl in machine.levels
            ],
            fault_digest=fault_digest,
            fault_seqs=fault_seqs,
            fault_retry_words=retry_words,
            fault_retry_messages=retry_messages,
        )
