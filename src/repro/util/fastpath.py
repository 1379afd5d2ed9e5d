"""Process-wide switch between the simulator's fast and reference paths.

One switch chooses, for the whole process, how the simulator charges:

* on (the default): each machine built while it is on may charge a
  run nothing observes as one planned batch
  (:attr:`repro.machine.core.HierarchicalMachine.batched`, read by
  :func:`repro.sequential.charge_plan.plan_eligible`), and the
  count-neutral fast paths apply (NumPy interval merging, closed-form
  layout runs, interval memoization);
* off: every algorithm charges live, one machine call per transfer or
  scope, end to end — the reference the golden count-equality tests
  hold the plans to.

The modeled counts are the same either way.  Setting
``REPRO_SLOW_PATH=1`` in the environment turns the switch off at
import; ``set_fastpath``/``fastpath`` let the golden tests and the
wall-clock bench A/B the two paths inside one process without
re-execing.  A machine reads the switch once, when it is built.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

_enabled: bool = os.environ.get("REPRO_SLOW_PATH", "") != "1"


def fastpath_enabled() -> bool:
    """Whether the fast paths are currently active."""
    return _enabled


def set_fastpath(enabled: bool) -> bool:
    """Set the switch; returns the previous value (for restoration)."""
    global _enabled
    prev = _enabled
    _enabled = bool(enabled)
    return prev


@contextmanager
def fastpath(enabled: bool) -> Iterator[None]:
    """Context manager running its body with the switch forced."""
    prev = set_fastpath(enabled)
    try:
        yield
    finally:
        set_fastpath(prev)


__all__ = ["fastpath", "fastpath_enabled", "set_fastpath"]
