"""Process-wide switch between the simulator's fast and reference paths.

One switch chooses, for the whole process, how the simulator charges:

* on (the default): the batched charging layer — each machine built
  while it is on takes the batched transfer APIs inside the algorithms
  (:attr:`repro.machine.core.HierarchicalMachine.batched`), and the
  recursions charge an unobserved run as one planned batch — plus the
  count-neutral fast paths (NumPy interval merging, closed-form layout
  runs, interval memoization);
* off: the original element-wise code paths end to end, the reference
  the golden count-equality tests hold the fast path to.

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
