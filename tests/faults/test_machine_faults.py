"""Transient read faults on the sequential machine (DAM model)."""

import numpy as np
import pytest

from repro.faults import FaultPlan
from repro.layouts import make_layout
from repro.machine import ModelError, SequentialMachine
from repro.matrices import TrackedMatrix
from repro.matrices.generators import random_spd
from repro.sequential.registry import run_algorithm
from repro.util.intervals import IntervalSet, RunBatch, stack_runs


def factor(n=16, M=64, plan=None, algorithm="naive-left"):
    machine = SequentialMachine(M)
    machine.attach_faults(plan)
    A = TrackedMatrix(random_spd(n, seed=0), make_layout("column-major", n), machine)
    L = run_algorithm(algorithm, A)
    return L, machine


class TestReadFaults:
    def test_faults_charge_retries_but_not_numerics(self):
        clean, m_clean = factor()
        faulty, m_faulty = factor(plan=FaultPlan(seed=3, read_fault=0.02))
        # detected-and-retried reads never change the factor...
        assert float(np.max(np.abs(np.asarray(faulty) - np.asarray(clean)))) == 0.0
        # ...but every retry is paid for
        stats = m_faulty.faults.stats
        assert stats.read_faults > 0
        assert stats.read_retry_words > 0
        lvl_f, lvl_c = m_faulty.levels[0], m_clean.levels[0]
        assert lvl_f.words == lvl_c.words + stats.read_retry_words
        assert lvl_f.messages == lvl_c.messages + stats.read_retry_messages

    def test_same_seed_same_counters(self):
        _, a = factor(plan=FaultPlan(seed=3, read_fault=0.02))
        _, b = factor(plan=FaultPlan(seed=3, read_fault=0.02))
        assert a.levels[0].words == b.levels[0].words
        assert a.faults.events == b.faults.events
        assert a.faults.stats.to_dict() == b.faults.stats.to_dict()

    def test_different_seed_different_schedule(self):
        _, a = factor(plan=FaultPlan(seed=3, read_fault=0.05))
        _, b = factor(plan=FaultPlan(seed=4, read_fault=0.05))
        assert a.faults.events != b.faults.events

    def test_empty_plan_is_bit_identical_to_no_plan(self):
        _, off = factor(plan=None)
        _, empty = factor(plan=FaultPlan(seed=7))
        assert empty.faults is None
        assert off.levels[0].counters == empty.levels[0].counters
        assert off.flops == empty.flops

    def test_network_only_plan_does_not_arm_the_machine(self):
        # drop/failstop knobs are meaningless on the DAM machine; only
        # read_fault arms it
        _, m = factor(plan=FaultPlan(seed=3, drop=0.5))
        assert m.faults is None

    def test_reset_replays_the_same_schedule(self):
        plan = FaultPlan(seed=3, read_fault=0.02)
        machine = SequentialMachine(64)
        machine.attach_faults(plan)

        def one_run():
            A = TrackedMatrix(
                random_spd(16, seed=0), make_layout("column-major", 16), machine
            )
            run_algorithm("naive-left", A)
            return machine.levels[0].words, machine.faults.stats.read_faults

        first = one_run()
        machine.reset()
        assert one_run() == first


class TestBatchesNeedAnUnwatchedMachine:
    """Only a charge plan batches, and only on a machine that nothing
    observes and no fault injector arms: every other machine charges
    its transfers live, so a batch there is refused before it counts."""

    @staticmethod
    def _arm(machine, how):
        if how == "faults":
            machine.attach_faults(FaultPlan(seed=11, read_fault=0.05))
        elif how == "spans":
            from repro.observability.spans import observe

            observe(machine)
        elif how == "guard":
            from repro.serving.budget import Budget, BudgetGuard

            machine.attach_guard(BudgetGuard(Budget()))
        elif how == "abft":
            machine.abft = object()

    @pytest.mark.parametrize(
        "how", ["trace", "spans", "guard", "abft", "faults"]
    )
    def test_charge_intervals_raises_on_a_watched_machine(self, how):
        machine = SequentialMachine(64, record_trace=how == "trace")
        self._arm(machine, how)
        batch = RunBatch.from_runs(*stack_runs([IntervalSet.single(10, 20)]))
        with pytest.raises(ModelError):
            machine.charge_intervals(batch, peak_extra=10)
        assert machine.levels[0].counters == SequentialMachine(64).counters
        assert machine.batch_hits == 0

    def test_charge_intervals_counts_on_a_plain_machine(self):
        machine = SequentialMachine(64)
        batch = RunBatch.from_runs(
            *stack_runs([IntervalSet.single(10, 20), IntervalSet.single(30, 32)]),
            is_write=[False, True],
        )
        machine.charge_intervals(batch, peak_extra=12)
        lvl = machine.levels[0]
        assert (lvl.counters.words_read, lvl.counters.words_written) == (10, 2)
        assert (lvl.peak_resident, machine.batch_hits) == (12, 1)
