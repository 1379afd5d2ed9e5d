"""Memory-model substrate: the machines on which algorithms are counted.

The paper measures algorithms in three machine models; this package
implements all of them as instrumented simulators:

``repro.machine.core``
    The sequential two-level DAM machine (``SequentialMachine``) and
    the d-level hierarchical machine (``HierarchicalMachine``).  Both
    count *words* (bandwidth) and *messages* (latency; a message is a
    maximal contiguous run of slow-memory addresses, capped at the
    fast-memory size), enforce fast-memory capacity, and support
    ideal-cache *scopes* for charging cache-oblivious recursions at
    the recursion frontier where a subproblem first fits in a level.

``repro.machine.lru``
    An element-granularity fully associative LRU cache simulator used
    to cross-validate the explicit machine on small instances.

``repro.machine.stack_distance``
    LRU stack-distance analysis: one pass over an address trace yields
    the miss count for *every* capacity simultaneously, which is how
    the multilevel cross-validation avoids re-simulating per level.

``repro.machine.tracing``
    Optional event recording (every transfer and scope) for debugging
    and for the layout/figure reports.
"""

from repro.machine.counters import CommCounters, MemoryLevel
from repro.machine.core import (
    CapacityError,
    HierarchicalMachine,
    ModelError,
    SequentialMachine,
)
from repro.machine.lru import LRUCache
from repro.machine.stack_distance import StackDistanceAnalyzer
from repro.machine.tracing import (
    MachineTrace,
    ReadEvent,
    ScopeEvent,
    TraceOverflow,
    WriteEvent,
)

__all__ = [
    "CommCounters",
    "MemoryLevel",
    "SequentialMachine",
    "HierarchicalMachine",
    "CapacityError",
    "ModelError",
    "LRUCache",
    "StackDistanceAnalyzer",
    "MachineTrace",
    "ReadEvent",
    "WriteEvent",
    "ScopeEvent",
    "TraceOverflow",
]
