"""Registry of the sequential Cholesky algorithms.

Single mapping from the names used in Table 1 and the reports to the
callables, so the benchmark harness, the CLI and the tests all sweep
the same census.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.abft import (
    AbftConfig,
    AbftLadder,
    ChecksumGuardian,
    SilentCorruptionError,
)
from repro.matrices.tracked import TrackedMatrix
from repro.results import RunResult, freeze_params
from repro.schedule import compiled_session, note_run_mode
from repro.sequential.blocked_right import lapack_blocked_right
from repro.sequential.lapack_blocked import lapack_blocked
from repro.sequential.naive import (
    naive_left_looking,
    naive_right_looking,
    naive_up_looking,
)
from repro.sequential.square_recursive import square_recursive
from repro.sequential.toledo import toledo
from repro.util.validation import NotPositiveDefiniteError, check_finite

Algorithm = Callable[..., np.ndarray]

ALGORITHMS: Dict[str, Algorithm] = {
    "naive-left": naive_left_looking,
    "naive-right": naive_right_looking,
    "naive-up": naive_up_looking,
    "lapack": lapack_blocked,
    "lapack-right": lapack_blocked_right,
    "toledo": toledo,
    "square-recursive": square_recursive,
}
"""Name → algorithm map (Table 1 census)."""


def available_algorithms() -> tuple[str, ...]:
    """Names accepted by :func:`run_algorithm`."""
    return tuple(sorted(ALGORITHMS))


def run_algorithm(
    name: str,
    A: TrackedMatrix,
    *,
    spd_shift: float | None = None,
    abft: "AbftConfig | dict | bool | None" = None,
    **params,
) -> RunResult:
    """Run a registered algorithm on a tracked matrix.

    Parameters
    ----------
    name:
        One of :func:`available_algorithms`.
    A:
        The tracked operand (overwritten with its factor).  Validated
        up front: an operand containing NaN or Inf is rejected with a
        :class:`~repro.util.validation.ValidationError` *before* any
        simulation charges accrue — a poisoned input would otherwise
        surface as an opaque failure deep inside a panel factorization.
    spd_shift:
        Optional non-SPD degradation path.  A Cholesky on an input
        that is not positive definite raises a structured
        :class:`~repro.util.validation.NotPositiveDefiniteError`
        (carrying the failing stage); with ``spd_shift=s`` the run is
        retried **once** on ``A + s·I`` and the result records the
        shift in its params.  A common choice is a small multiple of
        the largest diagonal entry.
    abft:
        Checksum protection (:class:`~repro.abft.AbftConfig`, a config
        dict, or ``True`` for defaults).  Each attempt is guarded by a
        :class:`~repro.abft.ChecksumGuardian`: single silent faults
        are corrected in place, and an uncorrectable double fault
        moves the :class:`~repro.abft.AbftLadder` to its next,
        attempt-salted schedule, up to ``max_attempts`` attempts
        before the :class:`~repro.abft.SilentCorruptionError`
        propagates.  Guarded attempts bypass the schedule JIT — a
        compiled replay could never observe (let alone heal) an
        injected silent fault.  The result carries ``verified=True``
        and the ``abft`` counter group including a factor attestation
        digest.
    params:
        Algorithm-specific keywords (e.g. ``block=`` for ``"lapack"``).

    The spd-shift retry and the ABFT ladder share one attempt loop:
    every retry restores the pristine input (shifted once the shift
    is taken) and resets the machine, so the measurement — and the
    ``abft`` group's ``checksum_*`` overhead — reflects only the
    successful attempt.

    Returns the lower factor ``L`` as a
    :class:`~repro.results.RunResult` — an ``np.ndarray`` subclass, so
    every pre-existing array-shaped use keeps working, with the run's
    machine handle, configuration and ``.measurement`` attached.
    """
    if name not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {name!r}; available: {available_algorithms()}"
        )
    # Direct array check, not a tracked read: validation is free in the
    # communication model.
    check_finite("A", A.data)
    machine = A.machine
    recorded = dict(params)
    ladder = AbftLadder.coerce(
        abft, machine.faults.plan if machine.faults is not None else None
    )
    shift = float(spd_shift) if spd_shift is not None and spd_shift > 0 else None
    retryable = shift is not None or (
        ladder is not None and ladder.config.max_attempts > 1
    )
    pristine = A.data.copy() if retryable else None
    note_run_mode("off")
    while True:
        guardian = None if ladder is None else ChecksumGuardian(A, ladder)
        machine.abft = guardian
        try:
            L = _attempt(name, A, params, guardian)
            break
        except SilentCorruptionError as exc:
            ladder.retry(exc)
        except NotPositiveDefiniteError:
            if shift is None or "spd_shift" in recorded:
                raise
            recorded["spd_shift"] = shift
        finally:
            machine.abft = None
        A.data[:] = pristine
        if "spd_shift" in recorded:
            A.data[np.diag_indices_from(A.data)] += shift
        machine.reset()
    return RunResult(
        L,
        algorithm=name,
        layout=A.layout.name,
        n=A.layout.n,
        params=freeze_params(recorded),
        machine=machine,
        verified=True if ladder is not None else None,
        abft=None if ladder is None else ladder.record(L),
    )


def _attempt(name: str, A: TrackedMatrix, params: dict, guardian) -> np.ndarray:
    """One attempt: guarded and interpreted, else through the schedule JIT.

    An eligible (pristine, unobserved, unguarded) run replays a cached
    same-shape schedule or runs interpreted under capture; eligibility
    is re-checked per attempt, since a retry resets the machine.  The
    failure shape is normalized: some algorithms raise the structured
    error themselves (via dense_cholesky), the naive ones surface
    numpy's bare LinAlgError at the failing pivot.
    """
    algorithm = ALGORITHMS[name]
    try:
        if guardian is not None:
            guardian.initialize()
            L = algorithm(A, **params)
            guardian.finalize()
            return L
        session = compiled_session(name, A, params)
        if session is not None:
            return session.run(lambda: algorithm(A, **params))
        return algorithm(A, **params)
    except NotPositiveDefiniteError:
        raise
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc), stage=name) from exc
