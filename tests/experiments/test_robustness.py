"""Hardened engine + cache: corruption, salvage, retries, timeouts."""

import hashlib
import json
import time

import pytest

from repro.experiments import ExperimentSpec, ResultCache
from repro.experiments.engine import (
    ExperimentEngine,
    execute_point,
    run_experiment,
)
from repro.faults import FaultPlan
from repro.observability.metrics import METRICS
from tests.store_entries import read_entry


@pytest.fixture()
def point():
    return ExperimentSpec.sequential(
        "t", algorithms=["naive-left"], ns=[8], Ms=[64]
    ).points[0]


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestCacheCorruption:
    """Regression: a corrupted/truncated cache file used to be trusted
    (or crash); now it is digest-detected, logged and treated as a miss,
    and the recomputed entry overwrites the damaged file."""

    def _seed_entry(self, cache, point):
        measurement, dt = execute_point(point)
        cache.put(point, measurement, dt)
        return measurement

    def test_entries_carry_a_digest(self, cache, point):
        self._seed_entry(cache, point)
        path = cache.path_for(point)
        payload = open(path, "rb").read().partition(b"\n")[2]
        header, _, meta = read_entry(path)
        assert header["digest"] == hashlib.sha256(payload).hexdigest()
        line = payload.partition(b"\n")[0]
        assert meta["attestation"] == hashlib.sha256(line).hexdigest()

    def test_tampered_counter_is_a_miss(self, cache, point, caplog):
        self._seed_entry(cache, point)
        path = cache.path_for(point)
        blob = open(path, "rb").read()
        words = b'"words":'
        at = blob.index(words) + len(words)
        # one flipped digit of the stored counter, header left as written
        digit = b"1" if blob[at:at + 1] != b"1" else b"2"
        open(path, "wb").write(blob[:at] + digit + blob[at + 1:])
        with caplog.at_level("WARNING", logger="repro.util.store"):
            assert cache.get(point) is None
        assert "digest mismatch" in caplog.text
        assert cache.misses == 1

    def test_truncated_file_is_a_miss_not_a_crash(self, cache, point):
        self._seed_entry(cache, point)
        path = cache.path_for(point)
        blob = open(path).read()
        open(path, "w").write(blob[: len(blob) // 2])
        assert cache.get(point) is None

    def test_legacy_entry_without_digest_is_a_miss(self, cache, point):
        self._seed_entry(cache, point)
        path = cache.path_for(point)
        head, _, payload = open(path, "rb").read().partition(b"\n")
        header = json.loads(head)
        del header["digest"]
        open(path, "wb").write(json.dumps(header).encode() + b"\n" + payload)
        assert cache.get(point) is None

    def test_corruption_metric_incremented(self, cache, point):
        self._seed_entry(cache, point)
        open(cache.path_for(point), "w").write("{ not json")
        before = METRICS.value("repro_cache_lookups_total", result="corrupt") or 0
        cache.get(point)
        after = METRICS.value("repro_cache_lookups_total", result="corrupt")
        assert after == before + 1

    def test_engine_recomputes_and_overwrites(self, tmp_path, point):
        spec = ExperimentSpec.sequential(
            "t", algorithms=["naive-left"], ns=[8], Ms=[64]
        )
        cache_dir = str(tmp_path / "cache")
        good = run_experiment(spec, cache=cache_dir).measurements[0]
        cache = ResultCache(cache_dir)
        path = cache.path_for(spec.points[0])
        open(path, "w").write("garbage")
        redo = run_experiment(spec, cache=cache_dir)
        assert redo.cache_misses == 1  # corruption demoted it to a miss
        assert redo.measurements[0].to_dict() == good.to_dict()
        # the write-back healed the file: a fresh reader hits it
        assert ResultCache(cache_dir).get(spec.points[0]) is not None
        _, measurement, _ = read_entry(path)
        assert measurement == good.to_dict()

    def test_unwritable_cache_still_returns_every_point(self, tmp_path):
        """A failed write is logged and dropped, never raised: the sweep
        returns every point it computed."""
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        spec = ExperimentSpec.sequential(
            "t", algorithms=["naive-left", "lapack"], ns=[8], Ms=[64]
        )
        engine = ExperimentEngine(cache=ResultCache(blocker / "cache"))
        result = engine.run(spec)
        assert result.failures == []
        assert len(result.measurements) == len(spec.points) == 2
        assert result.cache_misses == 2


class TestSalvage:
    def test_failed_point_becomes_error_row(self, tmp_path):
        spec = ExperimentSpec.sequential(
            "bad", algorithms=["no-such-algorithm"], ns=[8], Ms=[64]
        )
        result = run_experiment(
            spec, cache=None, retries=1, retry_backoff=0.001
        )
        assert result.measurements == []
        (failure,) = result.failures
        assert not failure.ok
        assert "no-such-algorithm" in failure.error
        d = result.to_dict()
        assert d["failed"] == 1
        assert d["points"][0]["measurement"] is None

    def test_good_points_survive_a_bad_neighbour(self, tmp_path):
        spec = ExperimentSpec.from_cases(
            "mixed",
            [
                {"algorithm": "naive-left", "n": 8, "M": 64},
                {"algorithm": "no-such-algorithm", "n": 8, "M": 64},
                {"algorithm": "lapack", "n": 8, "M": 64},
            ],
        )
        result = run_experiment(spec, cache=None, retries=0)
        assert len(result.measurements) == 2
        assert len(result.failures) == 1
        # spec order is preserved around the hole
        assert [m.algorithm for m in result.measurements] == [
            "naive-left", "lapack",
        ]

    def test_salvage_false_restores_fail_fast(self):
        spec = ExperimentSpec.sequential(
            "bad", algorithms=["no-such-algorithm"], ns=[8], Ms=[64]
        )
        with pytest.raises(ValueError):
            run_experiment(spec, cache=None, retries=0, salvage=False)

    def test_retry_eventually_succeeds(self, monkeypatch):
        """A transiently failing point is retried with backoff."""
        import repro.experiments.engine as engine_mod

        real = engine_mod.execute_point
        calls = {"n": 0}

        def flaky(point):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient worker failure")
            return real(point)

        monkeypatch.setattr(engine_mod, "execute_point", flaky)
        spec = ExperimentSpec.sequential(
            "flaky", algorithms=["naive-left"], ns=[8], Ms=[64]
        )
        engine = ExperimentEngine(
            cache=None, retries=2, retry_backoff=0.001
        )
        result = engine.run(spec)
        assert calls["n"] == 2
        assert len(result.measurements) == 1
        assert result.failures == []

    @pytest.mark.parametrize("exc_type", ["ModelError", "ValidationError"])
    def test_deterministic_rejection_is_not_retried(self, monkeypatch, exc_type):
        """A point the model rejects fails on its first raise: one call,
        no backoff sleep, and the ``<ExcName>: msg`` error text."""
        import repro.experiments.engine as engine_mod
        from repro.machine.core import ModelError
        from repro.util.validation import ValidationError

        exc_cls = {"ModelError": ModelError, "ValidationError": ValidationError}[
            exc_type
        ]
        calls = {"n": 0}
        sleeps = []

        def rejecting(point):
            calls["n"] += 1
            raise exc_cls("M < 2n is outside the model")

        monkeypatch.setattr(engine_mod, "execute_point", rejecting)
        monkeypatch.setattr(engine_mod.time, "sleep", sleeps.append)
        spec = ExperimentSpec.sequential(
            "rejected", algorithms=["naive-up"], ns=[8], Ms=[8]
        )
        result = ExperimentEngine(cache=None, retries=2).run(spec)
        assert calls["n"] == 1
        assert sleeps == []
        (failure,) = result.failures
        assert failure.error == f"{exc_type}: M < 2n is outside the model"

    def test_pool_rejections_are_not_retried_serially(self, monkeypatch):
        import repro.experiments.engine as engine_mod

        sleeps = []
        monkeypatch.setattr(engine_mod.time, "sleep", sleeps.append)
        spec = ExperimentSpec.sequential(
            "rejected", algorithms=["naive-up"], ns=[8, 16], Ms=[8]
        )
        result = ExperimentEngine(cache=None, jobs=2, retries=2).run(spec)
        assert sleeps == []
        assert len(result.failures) == 2
        assert all(f.error.startswith("ModelError: ") for f in result.failures)


class TestConstructorValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            ExperimentEngine(jobs=0)
        with pytest.raises(ValueError):
            ExperimentEngine(retries=-1)
        with pytest.raises(ValueError):
            ExperimentEngine(point_timeout=0)


class TestStallTimeout:
    def test_stalled_pool_fails_pending_points(self):
        # 1 ms of allowed stall is far below process-pool startup, so
        # the first wait() window always expires: both points must come
        # back as salvaged timeout rows, and the run must not hang.
        spec = ExperimentSpec.sequential(
            "stall",
            algorithms=["naive-left", "lapack"],
            ns=[32],
            Ms=[256],
        )
        t0 = time.perf_counter()
        result = run_experiment(
            spec, jobs=2, cache=None, point_timeout=0.001
        )
        assert time.perf_counter() - t0 < 30.0
        assert len(result.failures) == 2
        assert all("stalled" in f.error for f in result.failures)

    def test_stall_with_salvage_false_raises(self):
        spec = ExperimentSpec.sequential(
            "stall-raise",
            algorithms=["naive-left", "lapack"],
            ns=[32],
            Ms=[256],
        )
        with pytest.raises(TimeoutError):
            run_experiment(
                spec, jobs=2, cache=None, point_timeout=0.001, salvage=False
            )


class TestFaultsInCacheKey:
    def test_faulty_and_clean_points_never_share_an_entry(self):
        clean = ExperimentSpec.parallel("k", [(8, 4, 4)]).points[0]
        faulty = ExperimentSpec.parallel(
            "k", [(8, 4, 4)], faults=FaultPlan(seed=1, drop=0.1)
        ).points[0]
        assert clean.key() != faulty.key()

    def test_same_plan_same_key(self):
        plan = FaultPlan(seed=1, drop=0.1)
        a = ExperimentSpec.parallel("k", [(8, 4, 4)], faults=plan).points[0]
        b = ExperimentSpec.parallel("k", [(8, 4, 4)], faults=plan).points[0]
        assert a.key() == b.key()

    def test_per_case_fault_override(self):
        plan = FaultPlan(seed=1, drop=0.1)
        spec = ExperimentSpec.from_cases(
            "mix",
            [
                {"algorithm": "pxpotrf", "n": 8, "block": 4, "P": 4},
                {
                    "algorithm": "pxpotrf", "n": 8, "block": 4, "P": 4,
                    "faults": plan,
                },
            ],
        )
        assert spec.points[0].fault_plan is None
        assert spec.points[1].fault_plan == plan
        assert "+faults" in spec.points[1].label()

    def test_cached_faulty_measurement_round_trips(self, tmp_path):
        plan = FaultPlan(seed=1, drop=0.2)
        spec = ExperimentSpec.parallel("rt", [(8, 4, 4)], faults=plan)
        cache_dir = str(tmp_path / "cache")
        first = run_experiment(spec, cache=cache_dir)
        second = run_experiment(spec, cache=cache_dir)
        assert second.cache_hits == 1
        assert first.measurements[0].to_dict() == second.measurements[0].to_dict()
        assert second.measurements[0].faults is not None
