"""Capture / replay mechanics of the schedule JIT.

These pin the layer's safety contract: a recorder only starts on a
pristine machine, a replayed schedule reproduces the captured
counters, and ``apply`` validates everything *before* mutating
anything.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.faults.plan import FaultPlan
from repro.layouts import make_layout
from repro.machine import HierarchicalMachine, SequentialMachine
from repro.matrices.generators import random_spd
from repro.matrices.tracked import TrackedMatrix
from repro.schedule import (
    ScheduleCache,
    ScheduleError,
    ScheduleRecorder,
    TransferSchedule,
    compile_disabled,
    last_run_mode,
    set_default_cache,
)
from repro.sequential.registry import available_algorithms, run_algorithm
from repro.util.intervals import IntervalSet


def edit_record(blob: bytes, edit) -> bytes:
    """Re-encode ``blob`` with ``edit(record)`` applied to its JSON."""
    record = json.loads(blob)
    edit(record)
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


@pytest.fixture()
def fresh_cache():
    """Isolate each test from the ambient process-wide schedule cache."""
    cache = ScheduleCache(None, version="test")
    prev = set_default_cache(cache)
    yield cache
    set_default_cache(prev)


def _counters(machine):
    return [
        (
            lvl.counters.words_read,
            lvl.counters.messages_read,
            lvl.counters.words_written,
            lvl.counters.messages_written,
            lvl.peak_resident,
        )
        for lvl in machine.levels
    ] + [machine.flops, machine.batch_hits]


def _capture(make_machine, work) -> "tuple[TransferSchedule, list]":
    """Run ``work(machine)`` under a recorder; return schedule + counters."""
    machine = make_machine()
    recorder = ScheduleRecorder(machine)
    work(machine)
    return recorder.finalize(), _counters(machine)


def _explicit_work(machine):
    a = IntervalSet.single(0, 10)
    b = IntervalSet.single(32, 40)
    machine.read(a)
    machine.write(a)
    machine.read(b)
    machine.add_flops(7)
    machine.release_all()


class TestCaptureReplay:
    def test_explicit_transfers_round_trip(self):
        schedule, want = _capture(
            lambda: SequentialMachine(32), _explicit_work
        )
        fresh = SequentialMachine(32)
        fresh.replay_schedule(schedule)
        assert _counters(fresh) == want

    def test_scope_charges_round_trip_multilevel(self):
        def work(machine):
            ivs = IntervalSet.single(0, 40)
            inner = IntervalSet.single(0, 6)
            with machine.scope(ivs, ivs):  # fits L2 only
                with machine.scope(inner, inner):  # newly fits L1
                    machine.add_flops(3)

        schedule, want = _capture(
            lambda: HierarchicalMachine([8, 64]), work
        )
        fresh = HierarchicalMachine([8, 64])
        fresh.replay_schedule(schedule)
        assert _counters(fresh) == want

    def test_recorder_requires_pristine_machine(self):
        machine = SequentialMachine(32)
        machine.read(IntervalSet.single(0, 4))
        with pytest.raises(ScheduleError):
            ScheduleRecorder(machine)


class TestApplyValidation:
    def _schedule(self):
        schedule, _ = _capture(
            lambda: SequentialMachine(32), _explicit_work
        )
        return schedule

    def test_apply_rejects_wrong_shape(self):
        schedule = self._schedule()
        other = SequentialMachine(64)
        with pytest.raises(ScheduleError):
            other.replay_schedule(schedule)
        assert other.words == 0  # untouched

    def test_apply_rejects_dirty_machine(self):
        schedule = self._schedule()
        machine = SequentialMachine(32)
        machine.read(IntervalSet.single(0, 2))
        machine.release_all()
        before = _counters(machine)
        with pytest.raises(ScheduleError):
            machine.replay_schedule(schedule)
        assert _counters(machine) == before

    def test_apply_rejects_tracing_machine(self):
        schedule = self._schedule()
        machine = SequentialMachine(32, record_trace=True)
        with pytest.raises(ScheduleError):
            machine.replay_schedule(schedule)

    def test_apply_is_idempotent_only_on_pristine(self):
        schedule = self._schedule()
        machine = SequentialMachine(32)
        machine.replay_schedule(schedule)
        with pytest.raises(ScheduleError):  # second apply: not pristine
            machine.replay_schedule(schedule)


class TestSerialization:
    def test_round_trip_preserves_digest(self):
        schedule, _ = _capture(
            lambda: SequentialMachine(32), _explicit_work
        )
        blob = schedule.to_bytes()
        clone = TransferSchedule.from_bytes(blob)
        assert clone.digest() == schedule.digest()
        assert clone.to_bytes() == blob
        assert clone.totals == schedule.totals

    def test_unknown_format_is_rejected(self):
        schedule, _ = _capture(
            lambda: SequentialMachine(32), _explicit_work
        )

        def future(record):
            record["format"] = 999

        with pytest.raises(ScheduleError):
            TransferSchedule.from_bytes(edit_record(schedule.to_bytes(), future))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda record: record.pop("totals"),
            lambda record: record.update(nruns=2),
            lambda record: record.update(flops=7.5),
            lambda record: record.update(fault_seqs=[0]),
        ],
        ids=["missing-field", "extra-field", "float-count", "faults-without-plan"],
    )
    def test_malformed_record_is_rejected(self, edit):
        schedule, _ = _capture(
            lambda: SequentialMachine(32), _explicit_work
        )
        with pytest.raises(ScheduleError):
            TransferSchedule.from_bytes(edit_record(schedule.to_bytes(), edit))


class TestEndToEndReuse:
    def _run(self, n=24, M=96):
        machine = SequentialMachine(M)
        A = TrackedMatrix(
            random_spd(n, seed=3), make_layout("column-major", n), machine
        )
        L = run_algorithm("naive-left", A)
        return np.asarray(L), _counters(machine)

    def test_second_run_replays_first_runs_schedule(self, fresh_cache):
        L1, c1 = self._run()
        assert last_run_mode() == "capture"
        L2, c2 = self._run()
        assert last_run_mode() == "replay"
        assert c1 == c2
        assert np.allclose(L1, L2, atol=1e-8)
        stats = fresh_cache.stats()
        assert stats["misses"] == 1 and stats["hits_memory"] == 1

    def test_different_shape_does_not_reuse(self, fresh_cache):
        self._run(n=24, M=96)
        self._run(n=24, M=128)  # different capacity: new capture
        assert last_run_mode() == "capture"
        assert fresh_cache.stats()["misses"] == 2

    def test_compile_disabled_is_zero_cost(self, fresh_cache):
        with compile_disabled():
            self._run()
            assert last_run_mode() == "off"
        stats = fresh_cache.stats()
        assert stats == {
            "hits_memory": 0,
            "hits_disk": 0,
            "misses": 0,
            "entries_memory": 0,
        }


class TestDiskRoundTrip:
    """A schedule read back from disk must act exactly like the captured
    one, for every algorithm, with and without read faults."""

    @pytest.mark.parametrize(
        "plan",
        [None, FaultPlan(seed=11, read_fault=0.05)],
        ids=["clean", "faulty"],
    )
    @pytest.mark.parametrize("algorithm", available_algorithms())
    def test_fresh_cache_reads_back_an_equivalent_schedule(
        self, algorithm, plan, tmp_path
    ):
        M = 96

        def machine_for():
            machine = SequentialMachine(M)
            machine.attach_faults(plan)
            return machine

        def state(machine):
            faults = machine.faults
            return _counters(machine), (
                faults.schedule_fingerprint() if faults else None
            )

        writer = ScheduleCache(tmp_path, version="test")
        prev = set_default_cache(writer)
        try:
            machine = machine_for()
            A = TrackedMatrix(
                random_spd(24, seed=3), make_layout("column-major", 24), machine
            )
            run_algorithm(algorithm, A)
            assert last_run_mode() == "capture"
        finally:
            set_default_cache(prev)
        (path,) = tmp_path.glob("*/*.sched")
        captured = writer.get(path.stem)
        assert (captured.fault_digest is None) == (plan is None)
        reader = ScheduleCache(tmp_path, version="test")
        loaded = reader.get(path.stem)
        assert reader.stats()["hits_disk"] == 1
        assert loaded is not captured
        assert loaded.digest() == captured.digest()

        def applied(schedule):
            fresh = machine_for()
            fresh.replay_schedule(schedule)
            return state(fresh)

        assert applied(loaded) == applied(captured) == state(machine)
