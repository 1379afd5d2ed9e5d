"""Transient read faults on the sequential machine (DAM model)."""

import numpy as np

from repro.faults import FaultPlan
from repro.layouts import make_layout
from repro.machine import SequentialMachine
from repro.matrices import TrackedMatrix
from repro.matrices.generators import random_spd
from repro.sequential.registry import run_algorithm
from repro.util.intervals import IntervalSet, RunBatch


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


class TestBatchFallback:
    """With faults armed, ``charge_intervals`` replays the batch per set."""

    def test_fallback_keeps_the_resident_set(self):
        # a batch read that overlaps an already-resident word must not
        # evict it: the fallback has to leave residency (and so the
        # noted peak) exactly where the fault-free batch leaves it
        batch = RunBatch.from_sets(
            [IntervalSet.single(10, 20), IntervalSet.single(100, 110)]
        )
        seen = []
        for plan in (None, FaultPlan(seed=11, read_fault=0.05)):
            machine = SequentialMachine(64)
            machine.attach_faults(plan)
            machine.read(IntervalSet.single(10, 11))
            machine.charge_intervals(batch, peak_extra=19)
            seen.append(
                (machine.resident, machine.levels[0].peak_resident,
                 machine.batch_hits)
            )
        assert seen == [
            (IntervalSet.single(10, 11), 20, 1),
            (IntervalSet.single(10, 11), 20, 0),  # per-set fallback
        ]
