"""The protected-run contract: one golden over every retry path.

``protected_runs.golden.json`` pins, for a fixed set of runs, the
counters, the recorded params, the factor's SHA-256 and the full
``abft`` record (or the name of the exception the run ends in):

* every registry algorithm at n=48, M=112 — unprotected, protected,
  under single silent strikes, on the first seed whose double faults
  make the attempt ladder retry, and with the ladder exhausted;
* the spd-shift retry (lapack, toledo, naive-left on an indefinite
  input) — unprotected, protected, protected under silent strikes, and
  unshifted;
* pxpotrf and SUMMA at n=64, block 8, P=4 — plain, protected, silent
  strikes, strikes composed with message drops and with a fail-stop,
  a retrying double-fault seed, and an exhausted ladder.

Sequential runs execute under :func:`compile_disabled` so a factor's
digest never depends on schedule-cache state.  The second half checks
that the ``abft`` overhead group describes the attempt the counters
report: protected minus unprotected counters equal ``checksum_*``.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.abft import AbftConfig
from repro.faults import FaultPlan
from repro.layouts import make_layout
from repro.machine import SequentialMachine
from repro.matrices.generators import random_spd
from repro.matrices.tracked import TrackedMatrix
from repro.parallel.pxpotrf import pxpotrf
from repro.parallel.summa import summa
from repro.schedule import compile_disabled
from repro.sequential.registry import available_algorithms, run_algorithm

GOLDEN = os.path.join(os.path.dirname(__file__), "protected_runs.golden.json")

SEQ_N, SEQ_M = 48, 112
SHIFT_N, SHIFT_M, SHIFT = 32, 96, 100.0
PAR_N, PAR_BLOCK, PAR_P = 64, 8, 4
SEARCH_SEEDS = range(40)

EXHAUSTED = FaultPlan(seed=0, silent=0.99, silent_double=0.99)


def _digest(x) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(np.asarray(x, dtype=np.float64)).tobytes()
    ).hexdigest()


def _attempt(fn) -> dict:
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the exception is the record
        return {"raises": type(exc).__name__}


# -- sequential -----------------------------------------------------------


def _seq(algorithm, a, M, *, abft=None, spd_shift=None) -> dict:
    machine = SequentialMachine(M)
    A = TrackedMatrix(a, make_layout("column-major", a.shape[0]), machine)
    L = run_algorithm(algorithm, A, abft=abft, spd_shift=spd_shift)
    return {
        "counters": machine.summary(),
        "params": [[k, v] for k, v in L.params],
        "factor": _digest(L),
        "abft": L.abft,
    }


def _retrying_seed(run, plan_for) -> int:
    """The first seed whose double faults retry and still finish."""
    for s in SEARCH_SEEDS:
        rec = _attempt(lambda: run(plan_for(s)))
        if "abft" in rec and rec["abft"]["stats"]["attempts"] > 1:
            return s
    raise AssertionError("no retrying seed in the search range")


def sequential_records() -> dict:
    out = {}
    a = random_spd(SEQ_N, seed=3)
    shifted = random_spd(SHIFT_N, seed=4) - 50.0 * np.eye(SHIFT_N)
    with compile_disabled():
        for alg in available_algorithms():
            def run(plan, max_attempts=3, alg=alg):
                cfg = AbftConfig(plan=plan, max_attempts=max_attempts)
                return _seq(alg, a, SEQ_M, abft=cfg)

            def doubles(s):
                return FaultPlan(seed=s, silent=0.5, silent_double=0.5)

            s = _retrying_seed(lambda p: run(p, 6), doubles)
            out[f"seq/{alg}/plain"] = _seq(alg, a, SEQ_M)
            out[f"seq/{alg}/protected"] = run(None)
            out[f"seq/{alg}/silent"] = run(FaultPlan(seed=5, silent=0.3))
            out[f"seq/{alg}/retry(seed={s})"] = run(doubles(s), 6)
            out[f"seq/{alg}/exhausted"] = _attempt(lambda: run(EXHAUSTED, 2))
        for alg in ("lapack", "toledo", "naive-left"):
            def shift(abft=None, spd_shift=SHIFT, alg=alg):
                return _attempt(lambda: _seq(
                    alg, shifted, SHIFT_M, abft=abft, spd_shift=spd_shift
                ))

            out[f"shift/{alg}/plain"] = shift()
            out[f"shift/{alg}/protected"] = shift(AbftConfig())
            out[f"shift/{alg}/silent"] = shift(
                AbftConfig(plan=FaultPlan(seed=2, silent=0.3))
            )
            out[f"shift/{alg}/unshifted"] = shift(spd_shift=None)
    return out


# -- parallel ---------------------------------------------------------------


def _par(driver, faults=None, abft=None) -> dict:
    a = random_spd(PAR_N, seed=1)
    if driver == "pxpotrf":
        res = pxpotrf(a, PAR_BLOCK, PAR_P, faults=faults, abft=abft)
        factor = res.L
    else:
        b = random_spd(PAR_N, seed=2)
        res = summa(a, b, PAR_BLOCK, PAR_P, faults=faults, abft=abft)
        factor = res.C
    return {
        "counters": dict(res.network.summary(), total_flops=res.total_flops),
        "faults": None if res.fault_stats is None else res.fault_stats.to_dict(),
        "factor": _digest(factor),
        "abft": res.abft,
    }


def parallel_records() -> dict:
    out = {}
    silent = dict(seed=3, silent=0.1)
    for driver in ("pxpotrf", "summa"):
        def run(plan, max_attempts=3, driver=driver):
            cfg = AbftConfig(max_attempts=max_attempts)
            return _par(driver, faults=plan, abft=cfg)

        def doubles(s):
            return FaultPlan(seed=s, silent=0.05, silent_double=0.3)

        s = _retrying_seed(lambda p: run(p, 10), doubles)
        out[f"{driver}/plain"] = _par(driver)
        out[f"{driver}/protected"] = run(None)
        out[f"{driver}/silent"] = run(FaultPlan(**silent))
        out[f"{driver}/silent+drop"] = run(FaultPlan(**silent, drop=0.05))
        out[f"{driver}/silent+failstop"] = run(
            FaultPlan(**silent, failstops=((1, 2),))
        )
        out[f"{driver}/retry(seed={s})"] = run(doubles(s), 10)
        out[f"{driver}/exhausted"] = _attempt(lambda: run(EXHAUSTED, 2))
    return out


def contract_records() -> dict:
    return {**sequential_records(), **parallel_records()}


def contract_text(records: dict) -> str:
    return json.dumps(records, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def records():
    return contract_records()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return fh.read()


def test_protected_runs_match_the_golden(records, golden):
    assert contract_text(records) == golden


def test_retrying_cases_really_retry(records):
    retried = [k for k in records if "/retry(" in k]
    assert len(retried) == len(available_algorithms()) + 2
    for key in retried:
        assert records[key]["abft"]["stats"]["attempts"] >= 2, key
        assert records[key]["abft"]["stats"]["verified"] is True, key
    for key in records:
        if key.endswith("/exhausted"):
            assert records[key] == {"raises": "SilentCorruptionError"}, key
        if key.endswith("/unshifted"):
            assert records[key] == {"raises": "NotPositiveDefiniteError"}, key


# -- the overhead group reconciles with the counters ------------------------


def _protected_runs(records, prefix):
    """The runs under ``prefix`` that finished with an ``abft`` group."""
    for key, rec in sorted(records.items()):
        if key.startswith(prefix) and rec.get("abft"):
            yield key, rec


def test_sequential_overhead_group_equals_the_counter_delta(records):
    checked = 0
    for key, rec in _protected_runs(records, ("seq/", "shift/")):
        plain = records[key.rsplit("/", 1)[0] + "/plain"]
        stats = rec["abft"]["stats"]
        lvl, base = rec["counters"]["levels"][0], plain["counters"]["levels"][0]
        assert lvl["words"] - base["words"] == stats["checksum_words"], key
        assert (
            lvl["messages"] - base["messages"] == stats["checksum_messages"]
        ), key
        assert (
            rec["counters"]["flops"] - plain["counters"]["flops"]
            == stats["checksum_flops"]
        ), key
        checked += 1
    # protected, silent and retry per algorithm, plus the three
    # protected spd-shift pairs
    assert checked == 3 * len(available_algorithms()) + 2 * 3


@pytest.mark.parametrize("driver", ["pxpotrf", "summa"])
def test_parallel_overhead_group_equals_the_flop_delta(records, driver):
    # message drops and fail-stops add words and messages, never flops,
    # so the runs composing them with silent strikes reconcile too
    plain = records[f"{driver}/plain"]["counters"]["total_flops"]
    checked = 0
    for key, rec in _protected_runs(records, (f"{driver}/",)):
        delta = rec["counters"]["total_flops"] - plain
        assert delta == rec["abft"]["stats"]["checksum_flops"], key
        checked += 1
    assert checked == 5
