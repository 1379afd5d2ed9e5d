"""The sequential DAM machine and its multi-level generalization.

Model (paper, Section 1 and §3.2):

* Slow memory holds the matrix; fast memory holds ``M`` words.
* Communication = transferring words between the two.  *Bandwidth* is
  the number of words moved; *latency* is the number of messages,
  where one message carries a maximal run of consecutively stored
  words, at most ``M`` of them.
* In the hierarchical model there are levels ``M_1 < M_2 < ... < M_d``
  and an optimal algorithm must minimize the traffic across *every*
  adjacent pair simultaneously (Corollary 3.2).

Two charging disciplines coexist, mirroring the paper's analyses:

**Explicit transfers** (:meth:`HierarchicalMachine.read` /
:meth:`~HierarchicalMachine.write`) model algorithms that decide their
own data movement — the naïve algorithms, LAPACK's blocked POTRF, and
the per-column base cases of Toledo's recursion.  An explicit transfer
crosses the *entire* hierarchy (write-through), which is exactly how
the paper charges Toledo's leaf I/O at every level (the recurrence of
Claim 3.1 charges ``2m`` per leaf regardless of ``M``).  The machine
tracks the explicitly resident working set and enforces the fast
memory capacity, so an algorithm that claims to be blocked for size
``M`` is *checked*, not trusted.

**Ideal-cache scopes** (:meth:`HierarchicalMachine.scope`) model
cache-oblivious recursions (Algorithms 5–8).  A scope declares the
footprint of a recursive subproblem.  For each level, at the moment a
scope's footprint first fits in that level (and no enclosing scope
did), the scope's inputs are charged as reads and — when the scope
exits — its outputs as writes, both at that level only.  This is
precisely the paper's accounting: the recurrence base cases
("if n ≤ sqrt(M/3)") charge the subproblem's operands once, and
everything beneath the frontier is free at that level.

Numerical work is real: the algorithms compute actual factorizations
with NumPy once a subproblem fits the smallest level, so every
simulated run is verified against a reference Cholesky.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.machine.counters import CommCounters, MemoryLevel
from repro.machine.tracing import MachineTrace, ReadEvent, ScopeEvent, WriteEvent
from repro.observability.spans import NULL_PROFILER
from repro.util.intervals import IntervalSet, RunBatch
from repro.util.validation import check_positive_int


class ModelError(RuntimeError):
    """An algorithm was run outside the regime its model supports."""


class CapacityError(ModelError):
    """The explicit working set exceeded the fast memory capacity."""


class _Scope:
    """Handle returned by :meth:`HierarchicalMachine.scope`.

    ``fits`` tells the algorithm whether the subproblem footprint fits
    the *fastest* level; once it does, no deeper recursion can incur
    any further charge at any level, so the algorithm may (and, for
    simulation speed, should) compute the subproblem directly with
    NumPy instead of recursing to scalar base cases.
    """

    __slots__ = ("fits", "depth", "_write_levels")

    def __init__(self, fits: bool, depth: int) -> None:
        self.fits = fits
        self.depth = depth
        self._write_levels: list[MemoryLevel] = []


class HierarchicalMachine:
    """A machine with ``d`` fast-memory levels above slow memory.

    Parameters
    ----------
    capacities:
        Level sizes in words, strictly increasing
        (``M_1 < M_2 < ... < M_d``).  A single entry gives the
        two-level DAM machine of Section 1.
    enforce_capacity:
        If true (default), exceeding the fastest level's capacity with
        explicitly resident data raises :class:`CapacityError`; if
        false, the violation is recorded on the affected levels
        (``level.capacity_violated``) and execution continues.  The
        multilevel benches use ``False`` to *demonstrate* LAPACK's
        tuning dilemma (§3.2.2) rather than crash on it.
    record_trace:
        If true, every transfer and scope is appended to
        :attr:`trace` for inspection.
    trace_max_events:
        Optional cap on recorded trace events: past it the trace
        stops growing and counts dropped events behind an explicit
        overflow marker (see :class:`~repro.machine.tracing.MachineTrace`).
        ``None`` (default) keeps the historical unbounded behaviour.

    A run on one fast level that nothing observes (:meth:`unobserved`)
    and no fault injector arms may be charged as one planned batch
    (:meth:`charge_intervals`, called by
    :class:`~repro.sequential.charge_plan.ChargePlan`) instead of one
    ``read``/``write``/``release`` call or scope per transfer;
    attaching any observer makes the run charge live.  The two are
    count-identical — the golden equality tests assert it — so what
    observes the machine chooses the walk, never the counts.

    The schedule JIT (:mod:`repro.schedule`) needs no hook here: it
    reads a captured run's totals off the counters afterwards and
    adds them to a pristine machine on replay
    (:meth:`replay_schedule`).
    """

    def __init__(
        self,
        capacities: Sequence[int],
        *,
        enforce_capacity: bool = True,
        record_trace: bool = False,
        trace_max_events: int | None = None,
    ) -> None:
        caps = [check_positive_int("capacity", c) for c in capacities]
        if not caps:
            raise ValueError("need at least one fast-memory level")
        if any(b <= a for a, b in zip(caps, caps[1:])):
            raise ValueError(
                f"capacities must be strictly increasing, got {caps}"
            )
        self.levels: tuple[MemoryLevel, ...] = tuple(
            MemoryLevel(capacity=c, name=f"L{i + 1}(M={c})")
            for i, c in enumerate(caps)
        )
        self.enforce_capacity = bool(enforce_capacity)
        self.flops: int = 0
        self.resident: IntervalSet = IntervalSet()
        self.trace: MachineTrace | None = (
            MachineTrace(max_events=trace_max_events) if record_trace else None
        )
        #: Phase-span recorder; the shared no-op unless
        #: :func:`repro.observability.observe` attaches a live one.
        self.profiler = NULL_PROFILER
        #: Live fault oracle, or ``None`` for the fault-free machine.
        self.faults: FaultInjector | None = None
        #: Live budget enforcer (:class:`repro.serving.budget.BudgetGuard`),
        #: or ``None`` for the unmetered machine.  The guard only *reads*
        #: the counters, so counts are bit-identical either way.
        self.guard = None
        #: How many planned runs were charged as one batch.
        self.batch_hits: int = 0
        #: Live :class:`~repro.abft.ChecksumGuardian` protecting the
        #: current run, or ``None`` when ABFT is off.  Algorithms probe
        #: this attribute at their block boundaries; with it unset the
        #: probe is a single attribute test and counts are bit-identical
        #: to a machine that never heard of ABFT.
        self.abft = None
        self._read_seq: int = 0
        self._scope_depth: int = 0
        self._next_base: int = 0

    def attach_faults(
        self, plan: "FaultPlan | FaultInjector | None"
    ) -> FaultInjector | None:
        """Arm the machine with transient read faults from ``plan``.

        Only the plan's ``read_fault`` probability applies here (the
        rest describes networks); a plan that schedules no read faults
        leaves the machine on its zero-overhead path with counters
        bit-identical to a machine that never heard of faults.
        """
        if plan is None:
            self.faults = None
            return None
        injector = plan if isinstance(plan, FaultInjector) else None
        if injector is None:
            if plan.read_fault <= 0.0:
                self.faults = None
                return None
            injector = FaultInjector(plan)
        elif injector.plan.read_fault <= 0.0:
            self.faults = None
            return None
        self.faults = injector
        return injector

    def attach_guard(self, guard) -> None:
        """Arm the machine with a live budget enforcer (or disarm with None).

        The guard polls the fastest level's counters at every charging
        chokepoint and raises
        :class:`~repro.serving.budget.BudgetExceeded` the moment a cap
        is crossed.  With no guard attached the chokepoints cost a
        single pointer test and the counters stay bit-identical.
        """
        self.guard = guard

    def unobserved(self) -> bool:
        """Whether nothing watches this machine's per-event state.

        True when no trace, span profiler, budget guard or ABFT
        guardian is attached.  Each of those sees individual transfers
        or scopes, so only an unobserved run may replace its events
        with a bulk charge: a recursion's charge plan
        (:func:`repro.sequential.charge_plan.plan_eligible`) or a
        compiled schedule (:func:`repro.schedule.compiled_session`).
        """
        return (
            self.trace is None
            and self.profiler is NULL_PROFILER
            and self.guard is None
            and self.abft is None
        )

    # -- convenience accessors (fastest level) -------------------------

    @property
    def fast(self) -> MemoryLevel:
        """The fastest (smallest) level."""
        return self.levels[0]

    @property
    def M(self) -> int:
        """Fast memory size of the fastest level, in words."""
        return self.levels[0].capacity

    @property
    def words(self) -> int:
        """Words moved across the fastest boundary (Table 1 'Bandwidth')."""
        return self.levels[0].words

    @property
    def messages(self) -> int:
        """Messages across the fastest boundary (Table 1 'Latency')."""
        return self.levels[0].messages

    @property
    def counters(self) -> CommCounters:
        return self.levels[0].counters

    def snapshot(self) -> list[CommCounters]:
        """Per-level counter copies, for phase diffing in benches."""
        return [lvl.counters.snapshot() for lvl in self.levels]

    # -- explicit transfers ---------------------------------------------

    def read(self, ivs: IntervalSet) -> None:
        """Explicitly transfer ``ivs`` from slow memory into fast memory.

        Charges every level (write-through hierarchy), makes the
        addresses resident, and checks capacity.  Re-reading resident
        addresses still charges: the paper's explicit algorithms are
        counted by the transfers they *issue*.
        """
        if ivs.is_empty():
            return
        words = ivs.words
        for level in self.levels:
            level.counters.add_read(words, ivs.messages(cap=level.capacity))
        self.resident = self.resident | ivs
        self._note_resident()
        if self.trace is not None:
            self.trace.append(ReadEvent(ivs))
        if self.faults is not None:
            # transient read fault (ECC-detected garbage): the transfer
            # must be re-issued, and the retry is charged at every
            # level, exactly like the original
            seq = self._read_seq
            self._read_seq += 1
            if self.faults.read_faulted(seq):
                for level in self.levels:
                    level.counters.add_read(
                        words, ivs.messages(cap=level.capacity)
                    )
                self.faults.stats.read_retry_words += words
                self.faults.stats.read_retry_messages += ivs.messages(
                    cap=self.fast.capacity
                )
                if self.trace is not None:
                    self.trace.append(ReadEvent(ivs))
        if self.guard is not None:
            self.guard.check_machine(self)

    def write(self, ivs: IntervalSet) -> None:
        """Explicitly transfer ``ivs`` from fast memory back to slow memory.

        The addresses must be resident (an algorithm can only write
        back data it holds); they stay resident afterwards.
        """
        if ivs.is_empty():
            return
        if self.enforce_capacity and not ivs.issubset(self.resident):
            missing = ivs - self.resident
            raise CapacityError(
                f"write of non-resident addresses {missing!r}; "
                "explicit algorithms must read (or allocate) before writing"
            )
        words = ivs.words
        for level in self.levels:
            level.counters.add_write(words, ivs.messages(cap=level.capacity))
        if self.trace is not None:
            self.trace.append(WriteEvent(ivs))
        if self.guard is not None:
            self.guard.check_machine(self)

    # -- batched transfers ------------------------------------------------

    def charge_intervals(self, batch: RunBatch, *, peak_extra: int) -> None:
        """Charge a planned run's explicit transfers at once.

        ``batch`` holds one pre-merged interval set per transfer, in
        the order the live path issues them; words and messages are
        charged per level with O(#intervals) array reductions, so the
        cost no longer scales with the number of transfers, let alone
        words.  ``peak_extra`` is the largest number of words the live
        path holds at once beyond the current resident set; it feeds
        the same peak tracking and capacity enforcement.  Batched
        transfers are transient: :attr:`resident` is left untouched.

        Only a charge plan
        (:class:`~repro.sequential.charge_plan.ChargePlan`) calls this,
        on a machine that nothing observes and no fault injector arms:
        a trace, span profiler, budget guard or ABFT guardian sees
        individual transfers, and read faults number them, so such a
        machine takes the live path and a batch here raises
        :class:`ModelError`.
        """
        if not self.unobserved() or self.faults is not None:
            raise ModelError(
                "charge_intervals needs an unobserved machine with no "
                "fault injector; observed and fault-armed runs charge live"
            )
        if batch.nsets == 0:
            return
        self.batch_hits += 1
        read_words, write_words = batch.direction_words()
        for level in self.levels:
            rm, wm = batch.direction_messages(cap=level.capacity)
            level.counters.add_batch(read_words, rm, write_words, wm)
        words = self.resident.words + int(peak_extra)
        for level in self.levels:
            level.note_resident(words)
        if self.enforce_capacity and words > self.fast.capacity:
            raise CapacityError(
                f"batched working set of {words} words exceeds fast memory "
                f"capacity M={self.fast.capacity}"
            )

    def allocate(self, ivs: IntervalSet) -> None:
        """Make addresses resident *without* a read (freshly computed data).

        Used when an algorithm creates output in fast memory (e.g. a
        factor block it is about to write back) rather than loading it.
        Counts against capacity but moves no words.
        """
        if ivs.is_empty():
            return
        self.resident = self.resident | ivs
        self._note_resident()

    def release(self, ivs: IntervalSet) -> None:
        """Evict addresses from fast memory (no traffic for clean data).

        Dirty data must be written back with :meth:`write` *before*
        being released; the machine cannot tell dirty from clean, so
        that discipline is the algorithm's responsibility (and is
        what the paper's counts assume).
        """
        if ivs.is_empty():
            return
        self.resident = self.resident - ivs

    def release_all(self) -> None:
        """Evict everything (end of an algorithm phase)."""
        self.resident = IntervalSet()

    def _note_resident(self) -> None:
        words = self.resident.words
        for level in self.levels:
            level.note_resident(words)
        if self.enforce_capacity and words > self.fast.capacity:
            raise CapacityError(
                f"resident set of {words} words exceeds fast memory "
                f"capacity M={self.fast.capacity}"
            )

    # -- ideal-cache scopes ----------------------------------------------

    @contextmanager
    def scope(
        self,
        read_ivs: IntervalSet,
        write_ivs: IntervalSet | None = None,
    ) -> Iterator[_Scope]:
        """Declare a cache-oblivious recursive subproblem.

        Parameters
        ----------
        read_ivs:
            Addresses the subproblem consumes: its whole footprint,
            including any accumulated-into output.
        write_ivs:
            Addresses the subproblem produces, a subset of ``read_ivs``
            (every recursion node accumulates into an output it also
            reads); defaults to none.

        For each level whose capacity first covers the footprint here
        (ideal-cache frontier), ``read_ivs`` is charged as a read now
        and ``write_ivs`` as a write when the scope exits.  The scope
        handle's ``fits`` flag reports whether the footprint fits the
        fastest level — the signal to stop recursing and compute.
        """
        fwords = read_ivs.words
        self._scope_depth += 1
        handle = _Scope(
            fits=fwords <= self.fast.capacity, depth=self._scope_depth
        )
        for level in self.levels:
            if level.fitted_scope_depth is None and fwords <= level.capacity:
                level.fitted_scope_depth = self._scope_depth
                level.counters.add_read(
                    read_ivs.words, read_ivs.messages(cap=level.capacity)
                )
                level.note_resident(fwords)
                handle._write_levels.append(level)
        if self.trace is not None:
            self.trace.append(
                ScopeEvent(read_ivs, fitted=[l.name for l in handle._write_levels])
            )
        if self.guard is not None:
            self.guard.check_machine(self)
        try:
            yield handle
        finally:
            for level in handle._write_levels:
                if write_ivs is not None and not write_ivs.is_empty():
                    level.counters.add_write(
                        write_ivs.words, write_ivs.messages(cap=level.capacity)
                    )
                level.fitted_scope_depth = None
            self._scope_depth -= 1
            if self.guard is not None and handle._write_levels:
                self.guard.check_machine(self)

    # -- compiled replay ---------------------------------------------------

    def replay_schedule(self, schedule) -> None:
        """Add a compiled :class:`~repro.schedule.TransferSchedule`'s
        counts to this machine in one shot.

        The replay entry point of the schedule JIT: per-level counter
        totals, peak residency, flops, batch hits, the read sequence
        and (with a matching fault plan armed) the realized fault
        schedule all land exactly as the captured run left them.
        Validation happens before any mutation — on
        :class:`~repro.schedule.ScheduleError` the machine is
        untouched.
        """
        schedule.apply(self)

    # -- address-space management ------------------------------------------

    def reserve_address_space(self, words: int) -> int:
        """Reserve a slow-memory region of ``words`` addresses.

        Returns the base address.  Matrices sharing one machine (e.g.
        the three operands of a matmul) call this so their address
        ranges — and hence their message runs — never overlap.
        """
        if words < 0:
            raise ValueError("cannot reserve a negative region")
        base = self._next_base
        self._next_base += words
        return base

    # -- arithmetic -------------------------------------------------------

    def add_flops(self, n: int) -> None:
        """Record ``n`` scalar floating-point operations (§3.1.3)."""
        if n < 0:
            raise ValueError("flop count must be non-negative")
        self.flops += n
        if self.guard is not None:
            self.guard.check_machine(self)

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Zero all counters and evict everything (reuse between runs)."""
        for level in self.levels:
            level.counters = CommCounters()
            level.peak_resident = 0
            level.fitted_scope_depth = None
        self.flops = 0
        self.batch_hits = 0
        self.resident = IntervalSet()
        self._scope_depth = 0
        self._read_seq = 0
        if self.faults is not None:
            # fresh injector, same plan: a reused machine replays the
            # same deterministic fault schedule a fresh one would
            self.faults = FaultInjector(self.faults.plan)
        if self.trace is not None:
            self.trace = MachineTrace(max_events=self.trace.max_events)

    def bandwidth_cost(self, betas: Sequence[float]) -> float:
        """Weighted bandwidth cost ``Σ β_i · words_i`` — the measured
        side of Corollary 3.2's Equation (11)."""
        if len(betas) != len(self.levels):
            raise ValueError(
                f"need one β per level ({len(self.levels)}), got {len(betas)}"
            )
        return sum(b * lvl.words for b, lvl in zip(betas, self.levels))

    def latency_cost(self, alphas: Sequence[float]) -> float:
        """Weighted latency cost ``Σ α_i · messages_i`` — the measured
        side of Corollary 3.2's Equation (12)."""
        if len(alphas) != len(self.levels):
            raise ValueError(
                f"need one α per level ({len(self.levels)}), got {len(alphas)}"
            )
        return sum(a * lvl.messages for a, lvl in zip(alphas, self.levels))

    def summary(self) -> dict[str, object]:
        """A plain-dict report of all counters (for benches / JSON)."""
        return {
            "flops": self.flops,
            "levels": [
                {
                    "name": lvl.name,
                    "capacity": lvl.capacity,
                    "words": lvl.words,
                    "words_read": lvl.counters.words_read,
                    "words_written": lvl.counters.words_written,
                    "messages": lvl.messages,
                    "peak_resident": lvl.peak_resident,
                    "capacity_violated": lvl.capacity_violated,
                }
                for lvl in self.levels
            ],
        }

    def __repr__(self) -> str:
        caps = ", ".join(str(l.capacity) for l in self.levels)
        return f"{type(self).__name__}([{caps}])"


class SequentialMachine(HierarchicalMachine):
    """The two-level DAM machine of Section 1 (one fast level of size M)."""

    def __init__(
        self,
        M: int,
        *,
        enforce_capacity: bool = True,
        record_trace: bool = False,
        trace_max_events: int | None = None,
    ) -> None:
        super().__init__(
            [M],
            enforce_capacity=enforce_capacity,
            record_trace=record_trace,
            trace_max_events=trace_max_events,
        )
