"""Content-addressed result cache: round trips, misses, invalidation."""

import pytest

from repro.experiments import ExperimentSpec, ResultCache, code_version
from repro.experiments.engine import execute_point
from tests.store_entries import read_entry


@pytest.fixture()
def point():
    return ExperimentSpec.sequential(
        "t", algorithms=["naive-left"], ns=[8], Ms=[64]
    ).points[0]


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestRoundTrip:
    def test_put_then_get(self, cache, point):
        measurement, dt = execute_point(point)
        cache.put(point, measurement, dt)
        entry = cache.get(point)
        assert entry is not None
        assert entry["measurement"] == measurement.to_dict()
        assert entry["wall_time"] == dt
        assert len(cache) == 1

    def test_get_on_empty_cache_is_miss(self, cache, point):
        assert cache.get(point) is None
        assert cache.misses == 1 and cache.hits == 0

    def test_hit_miss_counters(self, cache, point):
        measurement, dt = execute_point(point)
        cache.get(point)
        cache.put(point, measurement, dt)
        cache.get(point)
        cache.get(point)
        assert (cache.hits, cache.misses) == (2, 1)


class TestInvalidation:
    def test_different_point_misses(self, cache, point):
        import dataclasses

        measurement, dt = execute_point(point)
        cache.put(point, measurement, dt)
        other = dataclasses.replace(point, seed=point.seed + 1)
        assert cache.get(other) is None

    def test_version_token_invalidates(self, tmp_path, point):
        measurement, dt = execute_point(point)
        old = ResultCache(tmp_path / "c", version="aaaa")
        old.put(point, measurement, dt)
        new = ResultCache(tmp_path / "c", version="bbbb")
        assert new.get(point) is None
        assert old.get(point) is not None  # old version still addressable

    def test_corrupt_entry_is_a_miss(self, cache, point):
        from pathlib import Path

        measurement, dt = execute_point(point)
        cache.put(point, measurement, dt)
        Path(cache.path_for(point)).write_text("{not json")
        assert cache.get(point) is None

    def test_code_version_is_short_stable_hex(self):
        v = code_version()
        assert v == code_version()
        assert len(v) == 16
        int(v, 16)  # hex


class TestLayout:
    def test_entries_shard_by_key_prefix(self, cache, point):
        from pathlib import Path

        measurement, dt = execute_point(point)
        cache.put(point, measurement, dt)
        path = Path(cache.path_for(point))
        assert path.parent.name == cache.key_for(point)[:2]
        _, _, meta = read_entry(path)
        assert meta["point"] == point.to_dict()

    def test_schedule_tier_does_not_count_as_results(self, tmp_path, point):
        """The default schedule tier lives at ``<cache-root>/schedules``;
        neither its entries nor stale ones of its old JSON format are
        results."""
        from repro.schedule import ScheduleCache, set_default_cache

        root = tmp_path / "cache"
        prev = set_default_cache(ScheduleCache(root / "schedules"))
        try:
            measurement, dt = execute_point(point)
        finally:
            set_default_cache(prev)
        cache = ResultCache(root)
        cache.put(point, measurement, dt)
        assert any((root / "schedules").rglob("*.*"))
        assert len(cache) == 1
        stale = root / "schedules" / "ab" / ("ab" + "0" * 62 + ".json")
        stale.parent.mkdir(exist_ok=True)
        stale.write_text("{}")
        assert len(cache) == 1
