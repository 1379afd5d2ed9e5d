"""The recursive-run contract: one golden over the cache-oblivious recursions.

``recursive_runs.golden.json`` pins, for ``toledo`` and
``square-recursive`` on every layout at n ∈ {1, 2, 3, 7, 17, 48}, what a
plain (unobserved, single-level) run charges.  Per case it
records the transfer stream (:mod:`tests.transfer_stream`: the SHA-256
of each run array — ``starts``, ``stops``, ``kinds``, ``masks`` — and
their length), the captured :class:`~repro.schedule.TransferSchedule`'s
per-level totals, peaks, flops and read calls, and the SHA-256 of the
factor the algorithm itself computed
(compilation off, so the digest is the interpreter's numerics, not the
canonical replay factor).  A case that raises records the exception's
type and message instead.  ``batch_hits`` is left out: it counts how
the charges were grouped, which is bookkeeping, not modeled state.

The fast memory sizes sit on the boundaries of each recursion:

* the smallest ``M`` the algorithm accepts, and the one below it (which
  raises);
* ``M = n`` and ``n + 1``, where Toledo's top-level column stops
  streaming in pivot-pinned segments (``m + 1 > M``) and fits whole;
* ``M = W - 1`` and ``W``, just below and at the first fit of the whole
  stored matrix (``W`` stored words);
* ``M = n² + n``, past every fit.

The golden was recorded from the per-node charging path, before the
whole-recursion charge plans replaced it, so it is the record of what
that path charged.  Both charging paths are held to it: the planned
one, which plain runs take, on every case, and the live scope path,
which a machine takes once an observer is attached
(:func:`~repro.observability.observe`, which never touches a counter),
on the cases with n ≤ 17 (n = 48 would add most of a minute on that
path).  Regenerate with ``python -m tests.sequential.test_recursive_runs_golden``
only for a deliberate change of the modeled counts.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from repro.layouts import available_layouts, make_layout
from repro.machine import SequentialMachine
from repro.matrices.generators import random_spd
from repro.matrices.tracked import TrackedMatrix
from repro.observability import observe
from repro.schedule import ScheduleRecorder, compile_disabled
from repro.sequential.registry import run_algorithm
from tests.transfer_stream import tap

GOLDEN = os.path.join(os.path.dirname(__file__), "recursive_runs.golden.json")

ALGORITHMS = ("toledo", "square-recursive")
SIZES = (1, 2, 3, 7, 17, 48)
LIVE_SIZES = tuple(n for n in SIZES if n <= 17)
BLOCK = 4  # tile size of the "blocked" layout


def _sha(a: np.ndarray, dtype) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(np.asarray(a, dtype=dtype)).tobytes()
    ).hexdigest()


def _layout(name: str, n: int):
    return make_layout(name, n, block=BLOCK if name == "blocked" else None)


def _run(algorithm: str, layout: str, n: int, M: int, observed: bool) -> dict:
    """One run under capture, observed (live) or plain (planned); the
    record the golden stores."""
    machine = SequentialMachine(M)
    if observed:
        observe(machine)
    A = TrackedMatrix(random_spd(n, seed=7), _layout(layout, n), machine)
    recorder = ScheduleRecorder(machine)
    stream = tap(machine)
    try:
        with compile_disabled():
            L = run_algorithm(algorithm, A)
    except Exception as exc:  # noqa: BLE001 - the exception is the record
        return {"raises": type(exc).__name__, "message": str(exc)}
    finally:
        if observed:
            # the live path charges node by node, never as a batch
            assert machine.batch_hits == 0
    schedule = recorder.finalize()
    runs = stream()
    return {
        "nruns": len(runs["starts"]),
        "starts": _sha(runs["starts"], "<i8"),
        "stops": _sha(runs["stops"], "<i8"),
        "kinds": _sha(runs["kinds"], "|b1"),
        "masks": _sha(runs["masks"], "<i8"),
        "totals": [list(t) for t in schedule.totals],
        "peaks": list(schedule.peaks),
        "flops": schedule.flops,
        "read_calls": schedule.read_calls,
        "factor": _sha(L, "<f8"),
    }


def _smallest_M(algorithm: str, layout: str, n: int, observed: bool) -> int:
    for M in range(1, n * n + 2):
        if "raises" not in _run(algorithm, layout, n, M, observed):
            return M
    raise AssertionError(f"{algorithm}/{layout}/n={n} fails at every M")


def _memory_sizes(algorithm: str, layout: str, n: int, observed: bool) -> list[int]:
    lo = _smallest_M(algorithm, layout, n, observed)
    W = _layout(layout, n).rect_words(0, n, 0, n)
    return sorted(
        M for M in {lo - 1, lo, n, n + 1, W - 1, W, n * n + n} if M >= 1
    )


def records(sizes: "tuple[int, ...]" = SIZES, observed: bool = False) -> dict:
    out = {}
    for algorithm in ALGORITHMS:
        for layout in available_layouts():
            for n in sizes:
                for M in _memory_sizes(algorithm, layout, n, observed):
                    out[f"{algorithm}/{layout}/n={n}/M={M}"] = _run(
                        algorithm, layout, n, M, observed
                    )
    return out


def golden_text(recs: dict) -> str:
    return json.dumps(recs, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def recs():
    return records()


@pytest.mark.parametrize("path", ["plan", "live"])
def test_recursive_runs_match_the_golden(path, request):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = fh.read()
    if path == "plan":
        assert golden_text(request.getfixturevalue("recs")) == golden
        return
    live = records(LIVE_SIZES, observed=True)
    expected = {
        key: rec for key, rec in json.loads(golden).items()
        if int(key.split("/n=")[1].split("/")[0]) in LIVE_SIZES
    }
    assert golden_text(live) == golden_text(expected)


def test_golden_covers_every_boundary(recs):
    """Each (algorithm, layout, n) has a raising smallest-M-minus-one
    case (n ≥ 2) and a case past every fit; Toledo streams a column."""
    for algorithm in ALGORITHMS:
        for layout in available_layouts():
            for n in SIZES:
                keys = [
                    k for k in recs
                    if k.startswith(f"{algorithm}/{layout}/n={n}/")
                ]
                Ms = sorted(int(k.rsplit("=", 1)[1]) for k in keys)
                assert Ms[-1] >= n * n, (algorithm, layout, n)
                first = recs[f"{algorithm}/{layout}/n={n}/M={Ms[0]}"]
                if n >= 2:
                    assert "raises" in first, (algorithm, layout, n)
                if algorithm == "toledo" and n >= 7:
                    # M = n streams the top-level column in segments
                    assert "raises" not in recs[
                        f"{algorithm}/{layout}/n={n}/M={n}"
                    ]


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(golden_text(records()))
