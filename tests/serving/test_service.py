"""FactorizationService end-to-end: every terminal path, deterministically.

All tests run with ``workers=0`` and pump :meth:`run_pending`, and the
breaker/deadline tests inject a :class:`ManualClock` — no decision in
the service reads the wall clock, so every path here is reproducible.
"""

import dataclasses

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.spec import SpecPoint
from repro.faults.plan import FaultPlan
from repro.serving.budget import Budget
from repro.serving.clock import ManualClock
from repro.serving.api import DEGRADED, DONE, FAILED, SHED, Job
from repro.serving.queue import PRIORITY_HIGH, PRIORITY_LOW
from repro.serving.service import FactorizationService, Overloaded, canary_point
from repro.util.validation import ValidationError


def seq_point(algorithm="lapack", n=32, M=96, seed=0, **kw):
    return SpecPoint(
        kind="sequential",
        algorithm=algorithm,
        layout="column-major",
        n=n,
        M=M,
        seed=seed,
        **kw,
    )


def par_point(n=16, block=4, P=4, seed=0, **kw):
    return SpecPoint(
        kind="parallel",
        algorithm="pxpotrf",
        layout="block-cyclic",
        n=n,
        P=P,
        block=block,
        seed=seed,
        **kw,
    )


def make_service(**kw):
    kw.setdefault("workers", 0)
    kw.setdefault("queue_capacity", 16)
    kw.setdefault("retries", 0)
    return FactorizationService(**kw)


def run_one(svc, job_or_point, **kw):
    ticket = svc.submit(job_or_point, **kw)
    svc.run_pending()
    return ticket.result(timeout=0)


class TestHappyPath:
    def test_done_with_exact_counts(self):
        from repro.experiments.engine import execute_point

        point = seq_point()
        with make_service() as svc:
            response = run_one(svc, point)
        assert response.status == DONE
        assert response.ok and not response.degraded
        assert response.attempts == 1
        exact, _ = execute_point(point)
        assert response.measurement.words == exact.words
        assert response.measurement.correct is True

    def test_parallel_done(self):
        with make_service() as svc:
            response = run_one(svc, par_point())
        assert response.status == DONE

    def test_submit_accepts_mapping(self):
        with make_service() as svc:
            response = run_one(
                svc,
                {
                    "kind": "sequential",
                    "algorithm": "lapack",
                    "layout": "column-major",
                    "n": 24,
                    "M": 96,
                    "seed": 0,
                },
            )
        assert response.status == DONE

    def test_response_to_dict_json_ready(self):
        import json

        with make_service() as svc:
            response = run_one(svc, seq_point())
        payload = json.loads(json.dumps(response.to_dict(), sort_keys=True))
        assert payload["status"] == "done"
        assert payload["priority"] == "normal"

    def test_cache_hit_skips_simulation(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        point = seq_point()
        with make_service(cache=cache) as svc:
            first = run_one(svc, point)
            second = run_one(svc, point)
        assert first.status == DONE and not first.detail.get("cached")
        assert second.status == DONE and second.detail.get("cached") is True
        assert second.attempts == 0
        assert second.measurement.words == first.measurement.words


class TestValidation:
    def test_invalid_point_rejected_at_submit(self):
        with make_service() as svc:
            with pytest.raises(ValidationError):
                svc.submit(seq_point(n=-4))
            with pytest.raises(ValidationError):
                svc.submit(seq_point(M=None))
            with pytest.raises(ValidationError):
                svc.submit(par_point(block=None))

    def test_in_flight_job_id_rejected_and_tickets_released(self):
        """Submitting one Job twice must not kill the worker: the
        duplicate is refused untouched, the first run completes, later
        jobs still run, and terminal jobs leave no ticket behind."""
        svc = FactorizationService(workers=1, queue_capacity=4, retries=0)
        try:
            job = Job(point=seq_point(), priority=PRIORITY_LOW)
            first = svc.submit(job)
            with pytest.raises(ValidationError, match="in flight"):
                svc.submit(job, priority=PRIORITY_HIGH)
            assert job.priority == PRIORITY_LOW
            third = svc.submit(seq_point(seed=1))
            assert first.result(timeout=60).status == DONE
            assert third.result(timeout=60).status == DONE
            assert svc._tickets == {}
            # a finished job's id is free again
            assert svc.submit(job).result(timeout=60).status == DONE
        finally:
            svc.stop()


class TestBudgets:
    def test_budget_words_degrades_with_bounded_prediction(self):
        point = seq_point(algorithm="toledo", n=48, M=144)
        from repro.experiments.engine import execute_point

        exact, _ = execute_point(point)
        with make_service() as svc:
            # cap above the admission estimate's low bound but below the
            # exact count: admitted, then cancelled at a chokepoint
            pred_low = {
                k: v[0]
                for k, v in __import__(
                    "repro.serving.degrade", fromlist=["predict_point"]
                ).predict_point(point).bounds().items()
            }
            cap = max(int(pred_low["words"]) + 1, exact.words // 2)
            assert cap < exact.words
            response = run_one(
                svc, Job(point=point, budget=Budget(max_words=cap))
            )
        assert response.status == DEGRADED
        assert response.reason == "budget-words"
        assert response.detail["violated"] == "words"
        assert response.prediction is not None
        assert response.prediction.contains(exact)
        assert ("degraded", True) in response.measurement.params

    def test_admission_estimate_short_circuits(self):
        # cap far below even the optimistic closed-form bound: the
        # service answers at submit time without running anything
        with make_service() as svc:
            ticket = svc.submit(
                Job(point=seq_point(n=64, M=192), budget=Budget(max_words=10))
            )
            response = ticket.result(timeout=0)  # resolved pre-queue
        assert response.status == DEGRADED
        assert response.reason == "admission-estimate"
        assert response.detail["exceeds"] == "words"
        assert response.attempts == 0

    def test_queued_deadline_expiry_degrades(self):
        clock = ManualClock()
        with make_service(clock=clock) as svc:
            ticket = svc.submit(
                Job(
                    point=seq_point(),
                    budget=Budget(deadline_seconds=1.0),
                )
            )
            clock.advance(2.0)  # expires while queued
            svc.run_pending()
            response = ticket.result(timeout=0)
        assert response.status == DEGRADED
        assert response.reason == "deadline"
        assert response.attempts == 0

    def test_default_budget_applies_to_plain_jobs(self):
        with make_service(default_budget=Budget(max_words=10)) as svc:
            response = run_one(svc, seq_point(n=64, M=192))
        assert response.status == DEGRADED
        assert response.reason == "admission-estimate"


class TestShedding:
    def test_queue_full_sheds_newcomer(self):
        with make_service(queue_capacity=1) as svc:
            t1 = svc.submit(seq_point(seed=1))
            t2 = svc.submit(seq_point(seed=2))
            r2 = t2.result(timeout=0)
            assert r2.status == SHED
            assert r2.reason == "queue-full"
            svc.run_pending()
            assert t1.result(timeout=0).status == DONE

    def test_high_priority_evicts_low(self):
        with make_service(queue_capacity=1) as svc:
            t_low = svc.submit(Job(point=seq_point(seed=1)), priority=PRIORITY_LOW)
            t_high = svc.submit(
                Job(point=seq_point(seed=2)), priority=PRIORITY_HIGH
            )
            r_low = t_low.result(timeout=0)
            assert r_low.status == SHED
            assert r_low.reason == "evicted"
            svc.run_pending()
            assert t_high.result(timeout=0).status == DONE

    def test_submit_or_raise_turns_shed_into_overloaded(self):
        with make_service(queue_capacity=1) as svc:
            svc.submit(seq_point(seed=1))
            with pytest.raises(Overloaded) as exc_info:
                svc.submit_or_raise(seq_point(seed=2))
            assert exc_info.value.response.reason == "queue-full"

    def test_stop_sheds_backlog_and_refuses_new_work(self):
        svc = make_service()
        ticket = svc.submit(seq_point())
        svc.stop()
        assert ticket.result(timeout=0).reason == "shutdown"
        late = svc.submit(seq_point(seed=9))
        assert late.result(timeout=0).reason == "shutdown"


class TestBreaker:
    def failing_point(self, seed=0):
        # near-certain drops with one attempt: deterministic (fixed
        # seed) FaultExhausted on the first dropped message
        plan = FaultPlan(seed=seed, drop=0.99, max_attempts=1)
        return par_point(seed=seed, faults=plan.freeze(), verify=False)

    def test_consecutive_failures_trip_then_degrade(self):
        clock = ManualClock()
        with make_service(breaker_threshold=2, clock=clock) as svc:
            r1 = run_one(svc, self.failing_point(seed=1))
            assert r1.status == FAILED
            assert r1.reason == "fault-exhausted"
            r2 = run_one(svc, self.failing_point(seed=2))
            # second failure trips the breaker mid-job: degraded, not failed
            assert r2.status == DEGRADED
            assert r2.reason == "breaker-open"
            # subsequent jobs for the algorithm degrade at admission
            t3 = svc.submit(par_point(seed=3))
            r3 = t3.result(timeout=0)
            assert r3.status == DEGRADED
            assert r3.reason == "breaker-open"
            assert r3.prediction is not None

    def test_cooldown_canary_recovery(self):
        clock = ManualClock()
        with make_service(
            breaker_threshold=1, breaker_cooldown=10.0, clock=clock
        ) as svc:
            r1 = run_one(svc, self.failing_point(seed=1))
            assert r1.status == DEGRADED and r1.reason == "breaker-open"
            # still open: degrade without running
            r2 = run_one(svc, par_point(seed=2))
            assert r2.reason == "breaker-open"
            clock.advance(10.0)
            # probe due: job admitted, canary runs clean, job executes
            r3 = run_one(svc, par_point(seed=3))
            assert r3.status == DONE
            assert svc.health()["breakers"]["pxpotrf"]["state"] == "closed"

    def test_canary_failure_reopens(self):
        clock = ManualClock()
        with make_service(
            breaker_threshold=1, breaker_cooldown=5.0, clock=clock
        ) as svc:
            run_one(svc, self.failing_point(seed=1))
            clock.advance(5.0)
            # the probe job carries the same all-drop fault plan, so the
            # canary (same algorithm + plan, tiny n) fails too
            r = run_one(svc, self.failing_point(seed=2))
            assert r.status == DEGRADED
            assert r.reason == "canary-failed"
            assert svc.health()["breakers"]["pxpotrf"]["state"] == "open"

    def test_retries_within_one_job_count_once_per_attempt(self):
        clock = ManualClock()
        with make_service(breaker_threshold=3, retries=2, clock=clock) as svc:
            r = run_one(svc, self.failing_point(seed=1))
            # 3 attempts = 3 consecutive failures = breaker trips on the
            # last one, which converts the job to a degraded answer
            assert r.status == DEGRADED
            assert r.reason == "breaker-open"
            assert r.attempts == 3


class TestCanaryPoint:
    def test_sequential_canary_is_cheap(self):
        p = canary_point(seq_point(n=512, M=1024), n=16)
        assert p.n == 16
        assert p.M >= 64
        assert p.verify is False and p.observe is False

    def test_parallel_canary_is_cheap(self):
        p = canary_point(par_point(n=256, block=64, P=16), n=16)
        assert p.n == 16 and p.P == 4 and p.block == 8

    def test_canary_preserves_fault_plan(self):
        plan = FaultPlan(seed=7, drop=0.5).freeze()
        p = canary_point(
            dataclasses.replace(par_point(), faults=plan), n=16
        )
        assert p.faults == plan


class TestIntrospection:
    def test_health_and_readiness(self):
        with make_service(queue_capacity=2) as svc:
            h = svc.health()
            assert h["accepting"] is True
            assert h["inflight"] == 0
            r = svc.readiness()
            assert r["ready"] is True
            svc.submit(seq_point(seed=1))
            svc.submit(seq_point(seed=2))
            assert svc.readiness()["ready"] is False  # waiting room full
            svc.run_pending()
            h = svc.health()
            assert h["jobs"].get("done") == 2
        assert svc.readiness()["accepting"] is False  # stopped

    def test_metrics_registered(self):
        from repro.observability.metrics import METRICS

        with make_service() as svc:
            run_one(svc, seq_point())
        snapshot = METRICS.to_dict()
        names = set()
        for family in snapshot:
            names.add(family)
        assert any(n.startswith("repro_service_jobs_total") for n in names)
