"""Golden count-equality: the planned charge against the live walk.

Every sequential algorithm is one walk over the run's charging object
(:mod:`repro.sequential.charge_plan`).  A machine nothing observes
charges the run as one planned batch; a machine an observer watches
(:func:`~repro.observability.observe`, which never touches a counter,
a trace, a budget guard, an ABFT guardian) or a fault injector arms
charges it live, one machine call per transfer or scope: the
element-wise reference.  The plan and the schedule JIT exist purely to
make the simulator faster — the modeled machine must be unable to tell
the difference.  These tests run every registry algorithm both ways
and assert the complete observable state agrees:

* every counter (words and messages, split by direction, flops, peak
  resident set), with a trace and a span recorder attached or not;
* the realized fault schedule under a deterministic
  :class:`~repro.faults.FaultPlan`, observed or not;
* the charged interval runs of a planned run against the live walk
  (:class:`TestChargePlanGolden`);
* compiled replay against both (:class:`TestCompiledReplayGolden`);
* the parallel clocks and critical-path counts (PxPOTRF, SUMMA),
  pinned as literals.

Every sequential algorithm is one walk whose numerics do not depend
on the path, so factors agree bit for bit.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.faults.plan import FaultPlan
from repro.layouts import make_layout
from repro.machine import SequentialMachine
from repro.matrices.generators import random_spd
from repro.matrices.tracked import TrackedMatrix
from repro.observability.spans import observe
from repro.parallel.pxpotrf import pxpotrf
from repro.parallel.summa import summa
from repro.schedule import compile_disabled, last_run_mode
from repro.sequential.registry import available_algorithms, run_algorithm

#: Three regimes per algorithm: fast memory holding whole columns, a
#: fast memory forcing segmented / multi-panel execution, and a roomy
#: cache (M >> n) where the guard/fault/observer plumbing must still
#: leave counters byte-identical.
CONFIGS = [
    pytest.param(48, 112, id="whole-column"),
    pytest.param(48, 52, id="segmented"),
    pytest.param(48, 224, id="roomy"),
]

#: Fault-schedule cases: every algorithm in the whole-column and the
#: segmented regime, whose walks differ.  The whole-column
#: cases keep their historical ids (the bare algorithm name).
FAULT_CASES = [
    pytest.param(
        algorithm, n, M,
        id=algorithm if regime == "whole-column" else f"{algorithm}-{regime}",
    )
    for regime, n, M in (("whole-column", 48, 112), ("segmented", 48, 52))
    for algorithm in available_algorithms()
]

#: Layouts the plan is held to the live walk on.
PLAN_LAYOUTS = ("column-major", "row-major", "morton", "blocked",
                "recursive-packed-hybrid")

#: The registry at n = 96: the loop algorithms at M = 2n on
#: column-major storage, the recursions at the Table 1 reference memory
#: M = 256 (Toledo on column-major and Morton, the square recursion on
#: Morton).
REGISTRY_SHAPES = [
    pytest.param(algorithm, "column-major", 96, 192, id=algorithm)
    for algorithm in ("naive-left", "naive-right", "naive-up", "lapack",
                      "lapack-right")
] + [
    pytest.param("toledo", "column-major", 96, 256, id="toledo"),
    pytest.param("toledo", "morton", 96, 256, id="toledo-morton"),
    pytest.param("square-recursive", "morton", 96, 256,
                 id="square-recursive-morton"),
]

#: The naïve variants at their edges, on column-major and a packed
#: layout: n in {1, 2, 3, 17} with the smallest M the model accepts
#: (one-row segments; whole rows for up-looking), then 2n - 1, 2n and
#: 2n + 1 around the whole-column switch, where accepted.  Column 0
#: re-reads nothing (an empty sweep) and column 1 one column (a
#: one-step sweep).
NAIVE_EDGE_SHAPES = [
    pytest.param(algorithm, layout, n, M, id=f"{algorithm}-{layout}-n{n}-M{M}")
    for algorithm in ("naive-left", "naive-right", "naive-up")
    for n in (1, 2, 3, 17)
    for M in sorted({
        M for M in (min(4, 2 * n), 2 * n - 1, 2 * n, 2 * n + 1)
        if M >= 2 * n or (M >= 4 and algorithm != "naive-up")
    })
    for layout in ("column-major", "packed")
]


def _layout(name: str, n: int, M: int):
    """``name`` at dimension ``n``; blocked tiles are the b of 3b² <= M."""
    if name == "blocked":
        return make_layout(name, n, block=math.isqrt(M // 3))
    return make_layout(name, n)


def _counters(machine) -> dict:
    lvl = machine.levels[0]
    return {
        "words": lvl.words,
        "messages": lvl.messages,
        "words_read": lvl.counters.words_read,
        "words_written": lvl.counters.words_written,
        "messages_read": lvl.counters.messages_read,
        "messages_written": lvl.counters.messages_written,
        "flops": machine.flops,
        "peak_resident": lvl.peak_resident,
    }


def _run(algorithm: str, n: int, M: int, *, observed: bool = True,
         faults: "FaultPlan | None" = None):
    """One interpreted run of ``algorithm``: observed and traced (the
    live walk), or plain (planned unless faults are armed)."""
    machine = SequentialMachine(M, record_trace=observed)
    machine.attach_faults(faults)
    recorder = observe(machine, name=algorithm) if observed else None
    A = TrackedMatrix(
        random_spd(n, seed=3), make_layout("column-major", n), machine
    )
    with compile_disabled():
        L = run_algorithm(algorithm, A)
    fingerprint = (
        machine.faults.schedule_fingerprint()
        if machine.faults is not None
        else None
    )
    return np.asarray(L), _counters(machine), recorder, fingerprint, machine


class TestSequentialGolden:
    """Observers change how a run charges, never what it charges."""

    @pytest.mark.parametrize("n,M", CONFIGS)
    @pytest.mark.parametrize("algorithm", available_algorithms())
    def test_paths_agree(self, algorithm, n, M):
        """A traced, span-recorded run against a plain planned one."""
        if algorithm == "naive-up" and M < 2 * n:
            pytest.skip("up-looking is whole-row only (M >= 2n)")
        L_o, counts_o, recorder, _, m_o = _run(algorithm, n, M)
        L_p, counts_p, _, _, m_p = _run(algorithm, n, M, observed=False)
        assert (m_p.batch_hits, m_o.batch_hits) == (1, 0)
        assert counts_p == counts_o
        assert L_p.tobytes() == L_o.tobytes()
        assert recorder.profile().leaf_total("words") == counts_o["words"]

    @pytest.mark.parametrize("algorithm,n,M", FAULT_CASES)
    def test_fault_schedules_identical(self, algorithm, n, M):
        """With read faults armed, observed or not, both runs realize
        the same schedule (a fault-armed machine always charges live)."""
        if algorithm == "naive-up" and M < 2 * n:
            pytest.skip("up-looking is whole-row only (M >= 2n)")
        plan = FaultPlan(seed=11, read_fault=0.05)
        _, counts_o, _, fp_o, _ = _run(algorithm, n, M, faults=plan)
        _, counts_p, _, fp_p, m_p = _run(algorithm, n, M, observed=False,
                                         faults=plan)
        assert m_p.batch_hits == 0
        assert fp_o is not None
        assert fp_o == fp_p
        assert counts_o == counts_p


class TestChargePlanGolden:
    """The charge plan against the live walk, run for run.

    A plain machine (nothing observes it) runs each sequential
    algorithm as one planned charge; a machine with a span recorder
    attached runs the same walk live.  A transfer-stream tap
    (:mod:`tests.transfer_stream`) on each records every charged run
    and a :class:`ScheduleRecorder` captures the counts: the two
    recordings must agree run for run (starts, stops, kinds, masks),
    with equal totals, peaks and flops, and the factors must be
    bit-identical.
    """

    @staticmethod
    def _captured(algorithm, layout, n, M, *, observed):
        from types import SimpleNamespace

        from repro.schedule import ScheduleRecorder
        from tests.transfer_stream import tap

        machine = SequentialMachine(M)
        if observed:
            observe(machine)
        A = TrackedMatrix(random_spd(n, seed=3), _layout(layout, n, M), machine)
        recorder = ScheduleRecorder(machine)
        stream = tap(machine)
        with compile_disabled():
            L = run_algorithm(algorithm, A)
        schedule = recorder.finalize()
        capture = SimpleNamespace(
            **stream(),
            totals=schedule.totals,
            peaks=schedule.peaks,
            flops=schedule.flops,
        )
        return np.asarray(L), capture, machine.batch_hits

    def _compare(self, algorithm, layout, n, M):
        L_p, plan, hits_p = self._captured(algorithm, layout, n, M,
                                           observed=False)
        L_r, ref, hits_r = self._captured(algorithm, layout, n, M,
                                          observed=True)
        assert (hits_p, hits_r) == (1, 0)  # one charge for the whole plan
        for field in ("starts", "stops", "kinds", "masks"):
            assert np.array_equal(getattr(plan, field), getattr(ref, field)), field
        assert plan.totals == ref.totals
        assert plan.peaks == ref.peaks
        assert plan.flops == ref.flops
        assert L_p.tobytes() == L_r.tobytes()
        return ref

    @pytest.mark.parametrize("layout", PLAN_LAYOUTS)
    @pytest.mark.parametrize("n,M", CONFIGS)
    @pytest.mark.parametrize("algorithm", available_algorithms())
    def test_plan_matches_reference(self, algorithm, n, M, layout):
        if algorithm == "naive-up" and M < 2 * n:
            pytest.skip("up-looking is whole-row only (M >= 2n)")
        self._compare(algorithm, layout, n, M)

    @pytest.mark.parametrize("algorithm,layout,n,M", REGISTRY_SHAPES)
    def test_plan_matches_reference_on_the_registry_grid(
        self, algorithm, layout, n, M
    ):
        self._compare(algorithm, layout, n, M)

    @pytest.mark.parametrize("algorithm,layout,n,M", NAIVE_EDGE_SHAPES)
    def test_plan_matches_reference_at_the_naive_edges(
        self, algorithm, layout, n, M
    ):
        self._compare(algorithm, layout, n, M)

    def test_naive_left_multiplier_inside_the_pivot_segment(self):
        """In the pivot segment a_jk lies inside segment k, so it adds
        no word there (peak 50; a word sum reads 51)."""
        ref = self._compare("naive-left", "column-major", 48, 52)
        assert ref.peaks == (50,)

    def test_naive_right_evicts_the_multiplier_with_its_first_segment(self):
        """At M=41 a trailing column spans two full update segments;
        a_kj leaves fast memory with the first one, so the second one
        must not be counted beside it (peak 40; a word sum reads 41)."""
        ref = self._compare("naive-right", "column-major", 48, 41)
        assert ref.peaks == (40,)

    def test_lapack_right_evicts_the_right_operand_through_its_alias(self):
        """At I == K the left operand L(K,J) is the right operand, so
        releasing it evicts both (peak 72; a word sum reads 108)."""
        ref = self._compare("lapack-right", "column-major", 48, 112)
        assert ref.peaks == (72,)


class TestCompiledReplayGolden:
    """Schedule replay must be count-identical to both charging paths.

    The JIT's contract extends the charge plan's: a replayed run folds
    a compiled :class:`~repro.schedule.TransferSchedule` into the
    machine instead of interpreting the algorithm, and the machine
    must end in exactly the state either interpreted path leaves it in
    — counters, peaks, flops, batch hits, and (with faults armed) the
    byte-identical realized fault schedule.  Machines any observer is
    watching must never compile, and with compilation off the cache
    must not even be consulted.
    """

    @pytest.fixture(autouse=True)
    def _fresh_schedule_cache(self):
        from repro.schedule import ScheduleCache, set_default_cache

        self.cache = ScheduleCache(None, version="golden")
        prev = set_default_cache(self.cache)
        yield
        set_default_cache(prev)

    def _plain_run(self, algorithm, n, M, *, observed=False, faults=None,
                   layout="column-major"):
        """One run with no trace, compiled when eligible; ``observed``
        attaches a span recorder, so the run charges live instead."""
        machine = SequentialMachine(M)
        if observed:
            observe(machine)
        machine.attach_faults(faults)
        A = TrackedMatrix(random_spd(n, seed=3), make_layout(layout, n), machine)
        L = run_algorithm(algorithm, A)
        counters = dict(_counters(machine), batch_hits=machine.batch_hits)
        fingerprint = (
            machine.faults.schedule_fingerprint()
            if machine.faults is not None
            else None
        )
        return np.asarray(L), counters, fingerprint, last_run_mode()

    @pytest.mark.parametrize("n,M", CONFIGS)
    @pytest.mark.parametrize("algorithm", available_algorithms())
    def test_replay_count_identical(self, algorithm, n, M):
        if algorithm == "naive-up" and M < 2 * n:
            pytest.skip("up-looking is whole-row only (M >= 2n)")
        L_c, counts_c, _, mode_c = self._plain_run(algorithm, n, M)
        L_r, counts_r, _, mode_r = self._plain_run(algorithm, n, M)
        L_s, counts_s, _, mode_s = self._plain_run(algorithm, n, M,
                                                   observed=True)
        assert (mode_c, mode_r, mode_s) == ("capture", "replay", "off")
        # batch_hits is bookkeeping, not modeled state: the live walk
        # never batches, both compiled modes must.
        counts_r.pop("batch_hits")
        slow_hits = counts_s.pop("batch_hits")
        assert slow_hits == 0
        assert counts_c.pop("batch_hits") > 0
        assert counts_c == counts_r == counts_s
        assert np.allclose(L_c, L_r, atol=1e-8)
        assert np.allclose(L_c, L_s, atol=1e-8)
        stats = self.cache.stats()
        assert stats["misses"] == 1 and stats["hits_memory"] == 1

    @pytest.mark.parametrize("algorithm,n,M", FAULT_CASES)
    def test_replayed_fault_schedule_identical(self, algorithm, n, M):
        if algorithm == "naive-up" and M < 2 * n:
            pytest.skip("up-looking is whole-row only (M >= 2n)")
        plan = FaultPlan(seed=11, read_fault=0.05)
        _, counts_c, fp_c, mode_c = self._plain_run(algorithm, n, M,
                                                    faults=plan)
        _, counts_r, fp_r, mode_r = self._plain_run(algorithm, n, M,
                                                    faults=plan)
        _, counts_s, fp_s, _ = self._plain_run(algorithm, n, M,
                                               observed=True, faults=plan)
        assert (mode_c, mode_r) == ("capture", "replay")
        assert fp_c is not None
        assert fp_c == fp_r == fp_s
        for counts in (counts_c, counts_r, counts_s):
            counts.pop("batch_hits")
        assert counts_c == counts_r == counts_s

    @pytest.mark.parametrize("algorithm,layout,n,M", REGISTRY_SHAPES)
    def test_replayed_words_within_the_bounds(self, algorithm, layout, n, M):
        """Replayed totals sit where the closed forms say they should.

        Table 1 rows are Θ-forms without constants, so the gate is a
        sanity band on the measured/predicted ratio, plus the
        lower-bound ratio staying O(1): traffic tracks Ω(n³/√M) up to
        the constant slack the bound's small-n form leaves (lapack dips
        to about 0.8 of the closed-form constant at n = 96).
        """
        from repro.bounds.sequential import (
            cholesky_bandwidth_lower_bound,
            table1_predictions,
        )

        _, counts_c, _, mode_c = self._plain_run(algorithm, n, M, layout=layout)
        _, counts_r, _, mode_r = self._plain_run(algorithm, n, M, layout=layout)
        assert (mode_c, mode_r) == ("capture", "replay")
        assert counts_c == counts_r
        words = counts_r["words"]
        assert 0.25 <= words / cholesky_bandwidth_lower_bound(n, M) <= 100.0
        for row in table1_predictions(n, M):
            if (row.algorithm, row.storage) == (algorithm, layout):
                assert 0.1 <= words / row.bandwidth <= 10.0, row

    def test_observed_machines_never_compile(self):
        """Traces and span profilers see per-event state a bulk replay
        cannot reproduce — such machines must run interpreted."""
        machine = SequentialMachine(112, record_trace=True)
        observe(machine)
        A = TrackedMatrix(
            random_spd(48, seed=3), make_layout("column-major", 48), machine
        )
        run_algorithm("naive-left", A)
        assert last_run_mode() == "off"
        assert self.cache.stats() == {
            "hits_memory": 0,
            "hits_disk": 0,
            "misses": 0,
            "entries_memory": 0,
        }

    def test_compile_off_never_touches_the_cache(self):
        with compile_disabled():
            _, counts_a, _, mode = self._plain_run("naive-left", 48, 112)
            assert mode == "off"
            _, counts_b, _, mode = self._plain_run("naive-left", 48, 112)
            assert mode == "off"
        assert counts_a == counts_b
        assert self.cache.stats() == {
            "hits_memory": 0,
            "hits_disk": 0,
            "misses": 0,
            "entries_memory": 0,
        }


class TestServingObservabilityGolden:
    """Tracing/telemetry must be invisible to the modeled machine.

    The serving-side analogue of the charge-plan contract: an inline
    cluster run with tracing and telemetry ON must produce, job for
    job, exactly the same terminal responses — status, reason, counts,
    fault fingerprints, span-profile trees — as a run with them OFF.
    The only permitted difference is the presence of the ``trace`` key.
    """

    def _run(self, *, tracing: bool):
        from repro.serving.cluster import ServingCluster
        from repro.serving.workloads import soak_workload

        cluster = ServingCluster(
            shards=2, mode="inline", tracing=tracing, telemetry=tracing
        )
        try:
            tickets = [cluster.submit(j) for j in soak_workload(16)]
            cluster.run_pending()
            return [t.result(timeout=0).to_dict() for t in tickets]
        finally:
            cluster.stop()

    @staticmethod
    def _strip(doc: dict) -> dict:
        out = {
            k: v
            for k, v in doc.items()
            if k not in ("trace", "job_id", "wall_seconds")
        }
        m = out.get("measurement")
        if m:
            out["measurement"] = {
                k: v for k, v in m.items() if k != "run"
            }
        return out

    def test_observability_on_is_count_identical_to_off(self):
        off = self._run(tracing=False)
        on = self._run(tracing=True)
        assert len(off) == len(on) == 16
        for doc_off, doc_on in zip(off, on):
            assert "trace" not in doc_off
            if doc_on["status"] in ("done", "degraded"):
                assert "trace" in doc_on
            assert self._strip(doc_off) == self._strip(doc_on)

    def test_durability_on_is_response_identical_to_off(self, tmp_path):
        """Journaling + supervision are pure bookkeeping: with both ON,
        every terminal response matches the plain run's exactly."""
        from repro.serving.cluster import ServingCluster
        from repro.serving.journal import replay_journal
        from repro.serving.workloads import soak_workload

        off = self._run(tracing=False)
        cluster = ServingCluster(
            shards=2,
            mode="inline",
            journal_dir=str(tmp_path / "wal"),
            supervise=True,
        )
        try:
            tickets = [cluster.submit(j) for j in soak_workload(16)]
            cluster.run_pending()
            on = [t.result(timeout=0).to_dict() for t in tickets]
        finally:
            cluster.stop()
        assert len(on) == 16
        for doc_off, doc_on in zip(off, on):
            assert self._strip(doc_off) == self._strip(doc_on)
        # and the journal closed out every accepted job
        assert replay_journal(str(tmp_path / "wal")).counts()["open"] == 0


class TestParallelGolden:
    """The parallel clocks and critical-path counts, pinned.

    Each update round charges a rank's flops in one ``compute`` call;
    a rank's clock advances additively and no send interleaves, so the
    pinned values are those of one call per block.
    """

    @staticmethod
    def _network_state(network):
        return (
            network.critical_words,
            network.critical_messages,
            network.max_flops,
            tuple((p.t, p.flops) for p in network.processors),
        )

    def test_pxpotrf_clock_identical(self):
        res = pxpotrf(random_spd(48, seed=5), 12, 4, observe_spans=True)
        assert self._network_state(res.network) == (
            1386, 9, 13972,
            ((1105.0, 6772), (1395.0, 5184), (1250.0, 12096), (1395.0, 13972)),
        )
        assert hashlib.sha256(res.L.tobytes()).hexdigest() == (
            "a1e033fc3ecf6b1881597d39c4743954661d2885847c0aeb79a49d65c2f1d055"
        )

    def test_summa_clock_identical(self):
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal((2, 32, 32))
        res = summa(a, b, 8, 4)
        assert self._network_state(res.network) == (
            1024, 8, 16384, ((1032.0, 16384),) * 4,
        )
        assert hashlib.sha256(res.C.tobytes()).hexdigest() == (
            "b503d72aa52fc04d969f9966bbd9c2358bff2bb460c981aee98cc38659927cff"
        )


class TestAbftGolden:
    """ABFT off must be free: no counters move, no wire bytes change.

    The checksum machinery may only cost anything when armed — a run
    with ``abft=None`` must be state-identical to one that has never
    heard of ABFT, and an *armed* run must never go through the
    schedule compiler (a replay reconstructs the factor from captured
    transfers, which would silently mask an injected fault).
    """

    def _machine_state(self, machine):
        lvl = machine.levels[0]
        return (
            lvl.words, lvl.messages, lvl.counters.words_read,
            lvl.counters.words_written, machine.flops, lvl.peak_resident,
        )

    def test_abft_none_is_state_identical(self):
        from repro.schedule import compile_disabled

        states = {}
        with compile_disabled():
            for label, kwargs in (("default", {}), ("off", {"abft": None}),
                                  ("false", {"abft": False})):
                machine = SequentialMachine(112)
                A = TrackedMatrix(
                    random_spd(48, seed=3),
                    make_layout("column-major", 48),
                    machine,
                )
                res = run_algorithm("lapack", A, **kwargs)
                assert getattr(res, "abft", None) is None
                states[label] = (
                    self._machine_state(machine),
                    np.asarray(res.L).tobytes(),
                )
        assert states["default"] == states["off"] == states["false"]

    def test_abft_off_point_serializes_without_abft_key(self):
        # cache keys predating ABFT must not shift
        from repro.experiments.spec import SpecPoint
        from repro.serving.workloads import demo_workload

        for job in demo_workload(8, seed=0):
            d = job.point.to_dict()
            assert "abft" not in d
            assert SpecPoint.from_dict(d) == job.point

    def test_armed_runs_never_compile(self):
        from repro.schedule import (
            ScheduleCache,
            last_run_mode,
            set_default_cache,
        )

        cache = ScheduleCache(None, version="golden-abft")
        prev = set_default_cache(cache)
        try:
            machine = SequentialMachine(112)
            A = TrackedMatrix(
                random_spd(48, seed=3), make_layout("column-major", 48),
                machine,
            )
            run_algorithm("lapack", A, abft=True)
            assert last_run_mode() == "off"
            assert cache.stats()["misses"] == 0
            assert cache.stats()["entries_memory"] == 0
        finally:
            set_default_cache(prev)
