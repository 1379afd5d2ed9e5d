"""Experiment P4 — wall-clock performance of the simulator itself.

Unlike the other benches, the quantity under test here is host time,
not modeled communication: the batched interval-charging fast path
must beat the element-wise reference path by the pinned factors while
producing *identical* counts (words, messages, flops, peak resident).
The harness lives in :mod:`repro.analysis.wallclock` and is shared
with the ``repro bench`` CLI subcommand; this module runs it under
pytest and asserts the acceptance thresholds, writing ``BENCH_4.json``
into ``--bench-out`` (repo root by default).

Thresholds are asserted on the small smoke grid so the suite stays
seconds-scale; the full n=512 grid runs via ``repro bench`` (CI's
bench-smoke job and the committed ``BENCH_4.json`` cover it).

Experiment P8 rides in the same module: the schedule JIT (capture one
run, replay later same-shape runs as array folds — see
:mod:`repro.schedule`) is timed on the registry smoke grid and written
to ``BENCH_8.json``.  Every registry algorithm must replay at >= 10x
over the element-wise reference path with identical counts; the
committed repo-root ``BENCH_8.json`` holds the full n=512 grid from
``repro bench --grid registry --gate 10``.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.conftest import run_module
from repro.analysis.wallclock import (
    COUNT_FIELDS,
    REGISTRY_TINY,
    TINY_GRID,
    run_grid,
    run_point,
)

#: Minimum fast/slow speedup per algorithm on the smoke grid.  The
#: full-grid (n=512) thresholds — 5x for naive-left, 2x for toledo and
#: square-recursive — are enforced by ``repro bench`` consumers; the
#: small grid uses a safety margin below its measured ratios.  Twenty
#: runs with BLAS pinned to one thread (2-vCPU Xeon VM) read, min /
#: median: naive-left 6.0x / 11.6x; toledo 5.1x / 8.6x and
#: square-recursive 6.7x / 9.5x, whose fast path is a charge plan
#: (one batch per run).
SMOKE_THRESHOLDS = {
    "naive-left": 3.0,
    "toledo": 4.0,
    "square-recursive": 4.5,
}


#: Minimum compiled-replay speedup over the element-wise path for the
#: registry smoke grid (same gate as the full n=512 ``BENCH_8.json``).
COMPILED_GATE = 10.0


@pytest.fixture(scope="module")
def wallclock_doc(bench_out):
    # compiled=False: BENCH_4 measures the batched *interpreter*, not
    # the schedule JIT (that is BENCH_8 below).
    doc = run_grid(TINY_GRID, repeats=3, seed=0, compiled=False)
    out = bench_out / "BENCH_4.json"
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc


@pytest.fixture(scope="module")
def compiled_doc(bench_out):
    doc = run_grid(REGISTRY_TINY, repeats=3, seed=0, slow_repeats=1)
    out = bench_out / "BENCH_8.json"
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc


def test_counts_identical_on_both_paths(wallclock_doc):
    """The count-identity gate: the speedup must be free."""
    assert wallclock_doc["all_counts_equal"], [
        (p["algorithm"], p["counters"], p["counters_slow"])
        for p in wallclock_doc["grid"]
        if not p["counts_equal"]
    ]


def test_numerics_match_on_both_paths(wallclock_doc):
    assert wallclock_doc["all_numerics_match"]


def test_counters_reported_complete(wallclock_doc):
    for p in wallclock_doc["grid"]:
        assert set(p["counters"]) == set(COUNT_FIELDS)
        assert all(v >= 0 for v in p["counters"].values())


def test_fast_path_actually_batches(wallclock_doc):
    """Every grid algorithm must exercise the batched charging APIs."""
    for p in wallclock_doc["grid"]:
        if p["algorithm"] == "naive-left":
            assert p["fast"]["batch_hits"] > 0, p["algorithm"]


def test_speedup_thresholds(benchmark, wallclock_doc):
    by_algo = {p["algorithm"]: p for p in wallclock_doc["grid"]}
    assert set(by_algo) == set(SMOKE_THRESHOLDS)
    for algo, floor in SMOKE_THRESHOLDS.items():
        assert by_algo[algo]["speedup"] >= floor, (
            algo,
            by_algo[algo]["speedup"],
        )
    # timing unit: one fast-path smoke simulation
    benchmark.pedantic(
        lambda: run_point(TINY_GRID[0], repeats=1),
        rounds=3,
        iterations=1,
    )


def test_compiled_counts_identical(compiled_doc):
    """Replayed schedules must reproduce the reference counts exactly."""
    assert compiled_doc["compile"] is True
    assert compiled_doc["all_counts_equal"], [
        (p["algorithm"], p["counters"], p["counters_slow"])
        for p in compiled_doc["grid"]
        if not p["counts_equal"]
    ]
    assert compiled_doc["all_numerics_match"]


def test_compiled_every_registry_algorithm_replays(compiled_doc):
    """All timed repeats must come from schedule replay, never capture."""
    algos = {p["algorithm"] for p in compiled_doc["grid"]}
    assert {"toledo", "square-recursive"} <= algos
    for p in compiled_doc["grid"]:
        assert p["schedule"]["compile"] is True
        assert set(p["schedule"]["modes"]) == {"replay"}, (
            p["algorithm"],
            p["schedule"]["modes"],
        )
        # batch_hits is restored by the replay, so the batching gate
        # (the toledo batch_hits:0 regression) is visible here too.
        assert p["fast"]["batch_hits"] > 0, p["algorithm"]


def test_compiled_speedup_gate(compiled_doc):
    """Every registry algorithm >= 10x over the element-wise path."""
    for p in compiled_doc["grid"]:
        assert p["speedup"] >= COMPILED_GATE, (
            p["algorithm"],
            p["speedup"],
        )


def test_compiled_bounds_crosscheck(compiled_doc):
    """Replayed totals sit where the closed forms say they should.

    Table 1 rows are Theta-forms without constants, so the gate is a
    sanity band on the measured/predicted ratio, plus the lower-bound
    ratio staying O(1): traffic tracks Omega(n^3 / sqrt(M)) up to the
    constant slack the bound's small-n form leaves (lapack dips to
    ~0.8x of the closed-form constant at n=96).
    """
    for p in compiled_doc["grid"]:
        bounds = p["bounds"]
        assert 0.25 <= bounds["words_over_lower_bound"] <= 100.0, (
            p["algorithm"],
            bounds["words_over_lower_bound"],
        )
        for row in bounds["table1"]:
            assert 0.1 <= row["words_ratio"] <= 10.0, (
                p["algorithm"],
                row,
            )


if __name__ == "__main__":
    raise SystemExit(run_module(__file__))
