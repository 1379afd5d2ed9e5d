"""Fail-stop recovery: buddy checkpointing in PxPOTRF and SUMMA.

The acceptance bar (ISSUE 3): fail-stop one rank mid-factorization and
the run must still complete, with the recovered factor *bit-identical*
to the failure-free factor and a nonzero recovery overhead reported.
"""

import numpy as np
import pytest

from repro.faults import FaultPlan
from repro.matrices.generators import random_spd
from repro.parallel.pxpotrf import pxpotrf
from repro.parallel.summa import summa
from repro.util.validation import ValidationError

N, BLOCK, P = 48, 12, 16


def lower_block_owner_rank():
    """A rank that actually owns data in the N/BLOCK/P grid (rank 5)."""
    return 5


class TestPxpotrfRecovery:
    def test_failstop_recovers_bit_identical(self):
        a0 = random_spd(N, seed=0)
        clean = pxpotrf(a0, BLOCK, P)
        plan = FaultPlan(seed=1, failstops=((lower_block_owner_rank(), 1),))
        faulty = pxpotrf(a0, BLOCK, P, faults=plan)
        assert float(np.max(np.abs(faulty.L - clean.L))) == 0.0
        assert np.allclose(faulty.L, np.linalg.cholesky(a0), atol=1e-8)

    def test_recovery_overhead_is_reported_and_nonzero(self):
        a0 = random_spd(N, seed=0)
        plan = FaultPlan(seed=1, failstops=((lower_block_owner_rank(), 1),))
        res = pxpotrf(a0, BLOCK, P, faults=plan)
        stats = res.fault_stats
        assert stats is not None and stats.failstops == 1
        assert stats.recovery_words > 0 and stats.recovery_messages > 0
        assert stats.checkpoint_words > 0 and stats.checkpoint_messages > 0
        assert res.recovery_words == stats.recovery_words
        assert res.recovery_messages == stats.recovery_messages

    def test_overhead_lands_in_critical_path(self):
        a0 = random_spd(N, seed=0)
        clean = pxpotrf(a0, BLOCK, P)
        plan = FaultPlan(seed=1, failstops=((lower_block_owner_rank(), 1),))
        faulty = pxpotrf(a0, BLOCK, P, faults=plan)
        assert faulty.critical_words > clean.critical_words
        assert faulty.critical_messages > clean.critical_messages

    def test_measurement_carries_fault_stats(self):
        a0 = random_spd(N, seed=0)
        plan = FaultPlan(seed=1, failstops=((lower_block_owner_rank(), 1),))
        m = pxpotrf(a0, BLOCK, P, faults=plan).measurement
        assert m.faults is not None and m.faults["failstops"] == 1
        # the faults payload survives the measurement's JSON round trip
        from repro.results import Measurement

        assert Measurement.from_dict(m.to_dict()).faults == m.faults

    def test_failstop_of_every_round_works(self):
        a0 = random_spd(24, seed=2)
        clean = pxpotrf(a0, 8, 4)
        for rnd in range(24 // 8):
            plan = FaultPlan(seed=1, failstops=((1, rnd),))
            faulty = pxpotrf(a0, 8, 4, faults=plan)
            assert float(np.max(np.abs(faulty.L - clean.L))) == 0.0, rnd

    def test_multiple_failstops_different_rounds(self):
        a0 = random_spd(24, seed=2)
        clean = pxpotrf(a0, 8, 4)
        plan = FaultPlan(seed=1, failstops=((1, 1), (2, 2)))
        faulty = pxpotrf(a0, 8, 4, faults=plan)
        assert float(np.max(np.abs(faulty.L - clean.L))) == 0.0
        assert faulty.fault_stats.failstops == 2

    def test_failstops_without_checkpointing_is_an_error(self):
        a0 = random_spd(24, seed=2)
        plan = FaultPlan(seed=1, failstops=((1, 1),))
        with pytest.raises(ValidationError):
            pxpotrf(a0, 8, 4, faults=plan, checkpoint=False)

    def test_checkpointing_alone_still_yields_correct_factor(self):
        a0 = random_spd(24, seed=2)
        res = pxpotrf(a0, 8, 4, checkpoint=True)
        assert np.allclose(res.L, np.linalg.cholesky(a0), atol=1e-8)
        assert res.fault_stats.checkpoint_words > 0
        assert not res.fault_stats.any_injected()


class TestSummaRecovery:
    def test_failstop_recovers_exact_product(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16))
        clean = summa(a, b, 4, 4)
        plan = FaultPlan(seed=1, failstops=((2, 1),))
        faulty = summa(a, b, 4, 4, faults=plan)
        assert float(np.max(np.abs(faulty.C - clean.C))) == 0.0
        assert np.allclose(faulty.C, a @ b, atol=1e-8)
        assert faulty.fault_stats.failstops == 1
        assert faulty.fault_stats.recovery_messages > 0

    def test_failstops_without_checkpointing_is_an_error(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16))
        plan = FaultPlan(seed=1, failstops=((2, 1),))
        with pytest.raises(ValidationError):
            summa(a, b, 4, 4, faults=plan, checkpoint=False)


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda a, **kw: pxpotrf(a, 4, 1, **kw), id="pxpotrf"),
        pytest.param(lambda a, **kw: summa(a, a, 4, 1, **kw), id="summa"),
    ],
)
def test_checkpointing_needs_two_processors(run):
    # a lone rank has no buddy to hold its checkpoints
    with pytest.raises(ValidationError, match="at least 2 processors"):
        run(random_spd(8, seed=0), checkpoint=True)
    # the same P=1 run without checkpointing is fine
    run(random_spd(8, seed=0))


class TestValidationUpFront:
    def test_pxpotrf_rejects_nan_input(self):
        a0 = random_spd(16, seed=0)
        a0[3, 3] = np.nan
        with pytest.raises(ValidationError):
            pxpotrf(a0, 4, 4)

    def test_summa_rejects_inf_operand(self):
        a = np.eye(8)
        b = np.eye(8)
        b[0, 0] = np.inf
        with pytest.raises(ValidationError):
            summa(a, b, 4, 4)
