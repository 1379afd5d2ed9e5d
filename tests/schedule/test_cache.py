"""Schedule-cache keying, tiers and invalidation.

The key is the whole correctness story of the JIT: replaying a
schedule captured for a *different* shape would silently report the
wrong counts, so distinct (algorithm, n, M, block, layout, fault
plan) tuples must never collide, identical shapes must always reuse,
and any code change (version token) must invalidate everything.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import ResultCache
from repro.experiments.engine import execute_point
from repro.experiments.spec import SpecPoint
from repro.faults.plan import FaultPlan
from repro.layouts import make_layout
from repro.machine import SequentialMachine
from repro.matrices.generators import random_spd
from repro.matrices.tracked import TrackedMatrix
from repro.schedule import (
    ScheduleCache,
    TransferSchedule,
    fault_plan_digest,
    schedule_key,
    set_default_cache,
)
from repro.sequential.registry import run_algorithm
from repro.serving.store import ShardStoreView

# One run shape, drawn coordinate-wise.  ``block`` only matters for
# the blocked layout; the fault seed ``None`` means fault-free.
shapes = st.tuples(
    st.sampled_from(["naive-left", "toledo", "square-recursive"]),
    st.sampled_from(["column-major", "packed", "morton", "blocked"]),
    st.sampled_from([8, 16, 24, 32]),  # n
    st.sampled_from([64, 128, 256]),  # M
    st.sampled_from([4, 8]),  # block (blocked layout only)
    st.sampled_from([None, 1, 2]),  # fault seed
)


def _key(shape, *, version="testver", base=0, params=None):
    algorithm, layout_name, n, M, block, fseed = shape
    layout = make_layout(
        layout_name, n, block=block if layout_name == "blocked" else None
    )
    machine = SequentialMachine(M)
    plan = None if fseed is None else FaultPlan(seed=fseed, read_fault=0.05)
    return schedule_key(
        algorithm=algorithm,
        layout=layout,
        base=base,
        machine=machine,
        params=params or {},
        fault_plan=plan,
        version=version,
    )


def _canonical(shape):
    """What the key must separate: blocked layouts keep their block."""
    algorithm, layout_name, n, M, block, fseed = shape
    if layout_name != "blocked":
        block = None
    return (algorithm, layout_name, n, M, block, fseed)


class TestKeying:
    @settings(max_examples=60, deadline=None)
    @given(shapes, shapes)
    def test_distinct_shapes_never_collide(self, a, b):
        ka, kb = _key(a), _key(b)
        if _canonical(a) == _canonical(b):
            assert ka == kb
        else:
            assert ka != kb

    @settings(max_examples=20, deadline=None)
    @given(shapes)
    def test_same_shape_reuses_key(self, shape):
        assert _key(shape) == _key(shape)

    @settings(max_examples=20, deadline=None)
    @given(shapes)
    def test_version_change_invalidates(self, shape):
        assert _key(shape, version="aaaa") != _key(shape, version="bbbb")

    def test_params_distinguish(self):
        shape = ("naive-left", "column-major", 16, 64, 4, None)
        assert _key(shape, params={"b": 4}) != _key(shape, params={"b": 8})
        assert _key(shape, params={"b": 4}) != _key(shape)

    def test_base_address_distinguishes(self):
        shape = ("naive-left", "column-major", 16, 64, 4, None)
        assert _key(shape, base=0) != _key(shape, base=640)

    def test_unserializable_param_raises(self):
        shape = ("naive-left", "column-major", 16, 64, 4, None)
        with pytest.raises(TypeError):
            _key(shape, params={"cb": object()})

    def test_fault_plan_digest_separates_plans(self):
        assert fault_plan_digest(None) is None
        a = fault_plan_digest(FaultPlan(seed=1, read_fault=0.05))
        b = fault_plan_digest(FaultPlan(seed=2, read_fault=0.05))
        c = fault_plan_digest(FaultPlan(seed=1, read_fault=0.10))
        assert len({a, b, c}) == 3
        assert a == fault_plan_digest(FaultPlan(seed=1, read_fault=0.05))


def tiny_schedule(cap: int = 64) -> TransferSchedule:
    """A minimal hand-built schedule."""
    return TransferSchedule(
        capacities=[cap],
        enforce_capacity=True,
        flops=3,
        batch_hits=1,
        read_calls=1,
        peaks=[5],
        totals=[(5, 1, 4, 1)],
    )


class TestTiers:
    def test_memory_hit(self):
        cache = ScheduleCache(None, version="v")
        cache.put("k" * 64, tiny_schedule())
        assert cache.get("k" * 64) is not None
        assert cache.stats()["hits_memory"] == 1
        assert cache.stats()["misses"] == 0

    def test_miss_counts(self):
        cache = ScheduleCache(None, version="v")
        assert cache.get("absent") is None
        assert cache.stats()["misses"] == 1

    def test_disk_round_trip_promotes(self, tmp_path):
        key = "ab" + "0" * 62
        writer = ScheduleCache(tmp_path / "sched", version="v")
        writer.put(key, tiny_schedule())
        reader = ScheduleCache(tmp_path / "sched", version="v")
        sched = reader.get(key)
        assert sched is not None
        assert sched.totals == ((5, 1, 4, 1),)
        assert reader.stats()["hits_disk"] == 1
        # promoted to memory: second get is a memory hit
        assert reader.get(key) is not None
        assert reader.stats()["hits_memory"] == 1
        # entries shard by key prefix, like the result cache
        assert (tmp_path / "sched" / "ab" / f"{key}.sched").exists()

    def test_stale_version_is_a_miss(self, tmp_path):
        key = "cd" + "0" * 62
        ScheduleCache(tmp_path / "s", version="old").put(key, tiny_schedule())
        assert ScheduleCache(tmp_path / "s", version="new").get(key) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        key = "ef" + "0" * 62
        writer = ScheduleCache(tmp_path / "s", version="v")
        writer.put(key, tiny_schedule())
        path = tmp_path / "s" / "ef" / f"{key}.sched"
        path.write_bytes(b"{not json")
        assert ScheduleCache(tmp_path / "s", version="v").get(key) is None

    def test_tampered_payload_fails_digest(self, tmp_path):
        key = "01" + "0" * 62
        writer = ScheduleCache(tmp_path / "s", version="v")
        writer.put(key, tiny_schedule())
        path = tmp_path / "s" / "01" / f"{key}.sched"
        head, _, blob = path.read_bytes().partition(b"\n")
        # damage without touching digest; the blob alone still decodes
        tampered = blob.replace(b'"flops":3', b'"flops":999')
        assert TransferSchedule.from_bytes(tampered).flops == 999
        path.write_bytes(head + b"\n" + tampered)
        assert ScheduleCache(tmp_path / "s", version="v").get(key) is None

    def test_lru_eviction_falls_back_to_disk(self, tmp_path):
        cache = ScheduleCache(tmp_path / "s", version="v", memory_entries=2)
        keys = [c * 64 for c in "abc"]
        for k in keys:
            cache.put(k, tiny_schedule())
        assert cache.stats()["entries_memory"] == 2
        # the evicted key is served from disk, not lost
        assert cache.get(keys[0]) is not None
        assert cache.stats()["hits_disk"] == 1


def captured_schedule(directory, n: int = 24) -> TransferSchedule:
    """A real capture (naive-left, M=4n), read back from disk."""
    prev = set_default_cache(ScheduleCache(directory, version="v"))
    try:
        machine = SequentialMachine(4 * n)
        A = TrackedMatrix(
            random_spd(n, seed=3), make_layout("column-major", n), machine
        )
        run_algorithm("naive-left", A)
    finally:
        set_default_cache(prev)
    (path,) = directory.glob("*/*.sched")
    return ScheduleCache(directory, version="v").get(path.stem)


@pytest.mark.parametrize("n", [24, 96])
def test_encoding_does_not_grow_with_the_run(n, tmp_path):
    """A schedule is its run's counts, not its transfer stream: the
    n=96 run charges about 15 times the interval runs of the n=24 one
    (4,752 against 324), and both encode in under a kilobyte."""
    assert len(captured_schedule(tmp_path, n).to_bytes()) < 1024


class ScheduleView:
    """Adapter giving every cache view one put/read/path shape."""

    KEY = "fe" + "0" * 62

    def fresh(self, directory):
        return ScheduleCache(directory, version="v")

    def put(self, directory, value):
        self.fresh(directory).put(self.KEY, value)

    def read(self, directory):
        got = self.fresh(directory).get(self.KEY)
        return None if got is None else got.digest()

    def path(self, directory):
        return directory / self.KEY[:2] / f"{self.KEY}.sched"

    def want(self, value):
        return value.digest()

    def tiny(self, tmp_path):
        return tiny_schedule()

    def captured(self, tmp_path):
        schedule = captured_schedule(tmp_path / "capture")
        assert schedule.totals[0][0] > 0
        return schedule


class ResultView(ScheduleView):
    POINT = SpecPoint(
        kind="sequential", algorithm="naive-left", layout="column-major",
        n=8, M=64, seed=0,
    )

    def fresh(self, directory):
        return ResultCache(directory, version="v")

    def put(self, directory, value):
        self.fresh(directory).put(self.POINT, value, 0.5)

    def read(self, directory):
        got = self.fresh(directory).get(self.POINT)
        return None if got is None else got["measurement"]

    def path(self, directory):
        return Path(self.fresh(directory).path_for(self.POINT))

    def want(self, value):
        return json.loads(json.dumps(value))

    def tiny(self, tmp_path):
        return {"words": 123.0, "messages": 4.0, "flops": 7.0}

    def captured(self, tmp_path):
        return execute_point(self.POINT)[0].to_dict()


class ShardView(ResultView):
    def fresh(self, directory):
        return ShardStoreView(str(directory), "shard-0", version="v")


@pytest.fixture(params=[ScheduleView, ResultView, ShardView],
                ids=["sched", "result", "shard"])
def view(request):
    return request.param()


class TestDamagedEntries:
    """Any damage to a disk entry reads back as a miss or as the intact
    value, never as an exception, and the next ``put`` heals it — for
    every view over the one entry store."""

    def _check(self, view, directory, value, stride):
        view.put(directory, value)
        path = view.path(directory)
        intact = path.read_bytes()
        want = view.want(value)
        # every byte of the first two lines (the store's header and the
        # payload's own head; all of a one-line payload), then a stride
        # through the rest
        second = intact.find(b"\n", intact.index(b"\n") + 1)
        body = len(intact) if second < 0 else second + 1
        damaged = []
        for offset in [*range(body), *range(body, len(intact), stride)]:
            damaged.append(intact[:offset])
            for mask in (0x01, 0xFF):
                flipped = bytearray(intact)
                flipped[offset] ^= mask
                damaged.append(bytes(flipped))
        for data in damaged:
            path.write_bytes(data)
            got = view.read(directory)
            assert got is None or got == want
        view.put(directory, value)
        assert path.read_bytes() == intact
        assert view.read(directory) == want

    def test_every_truncation_and_flip_of_a_tiny_entry(self, view, tmp_path):
        self._check(view, tmp_path, view.tiny(tmp_path), stride=1)

    def test_sampled_damage_to_a_real_entry(self, view, tmp_path):
        value = view.captured(tmp_path)
        self._check(view, tmp_path / "damage", value, stride=7)
