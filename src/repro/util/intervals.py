"""Exact integer interval algebra.

The sequential model of the paper (Section 1, footnote 1) is the
two-level I/O (DAM) model with transfer granularity of one word, where
a *message* is a bundle of consecutively stored words.  Consequently
the fundamental object every storage layout produces, and every
machine consumes, is a set of half-open integer intervals
``[start, stop)`` over the linear (slow-memory) address space.

``IntervalSet`` is an immutable, always-normalized (sorted, disjoint,
non-adjacent) set of such intervals.  Normalization is what makes the
message count well defined: two adjacent address runs are one message.

All arithmetic here is exact integer arithmetic; there is no floating
point anywhere in the counting path.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

Interval = Tuple[int, int]

#: Run count past which the NumPy merge beats the pure-Python one.
_NP_MERGE_MIN = 64


def _merge_intervals_np(pairs: "list[Interval]") -> Tuple[Interval, ...]:
    """Vectorized merge: argsort + running-max + group-boundary scan."""
    arr = np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2)
    arr = arr[arr[:, 1] > arr[:, 0]]
    if not len(arr):
        return ()
    arr = arr[np.argsort(arr[:, 0], kind="stable")]
    starts = arr[:, 0]
    stops = np.maximum.accumulate(arr[:, 1])
    new_group = np.empty(len(arr), dtype=bool)
    new_group[0] = True
    # a strictly larger start than the running max stop opens a new
    # run; <= merges (overlap or adjacency), same as the python path
    new_group[1:] = starts[1:] > stops[:-1]
    first = np.flatnonzero(new_group)
    last = np.append(first[1:], len(arr)) - 1
    return tuple(zip(starts[first].tolist(), stops[last].tolist()))


def merge_intervals(raw: Iterable[Interval]) -> Tuple[Interval, ...]:
    """Sort and coalesce intervals, dropping empties.

    Overlapping and *adjacent* intervals are merged: ``(0, 4)`` and
    ``(4, 9)`` become ``(0, 9)``, because a single message can carry a
    contiguous run regardless of how the run was assembled.

    Parameters
    ----------
    raw:
        Any iterable of ``(start, stop)`` pairs with ``start <= stop``.

    Returns
    -------
    tuple of (start, stop)
        Sorted, disjoint, non-adjacent, non-empty intervals.
    """
    pairs = raw if isinstance(raw, list) else list(raw)
    if len(pairs) >= _NP_MERGE_MIN:
        return _merge_intervals_np(pairs)
    return _merge_sorted_runs(sorted((int(a), int(b)) for a, b in pairs if b > a))


class IntervalSet:
    """An immutable normalized set of half-open integer intervals.

    Instances support the operations the communication model needs:

    * ``len(s)`` / ``s.runs`` — number of maximal contiguous runs
      (= number of messages when no message-size cap applies);
    * ``s.words`` — total number of addresses covered (= bandwidth
      cost of transferring the set);
    * ``s.messages(cap)`` — number of messages when a single message
      may carry at most ``cap`` words (the paper caps messages at the
      fast-memory size M);
    * set algebra (``|``, ``&``, ``-``) used by tests and by the
      resident-set tracking of the machines.
    """

    __slots__ = ("_ivs", "_words")

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._ivs: Tuple[Interval, ...] = merge_intervals(intervals)
        self._words: int | None = None

    # -- constructors -------------------------------------------------

    @classmethod
    def single(cls, start: int, stop: int) -> "IntervalSet":
        """The set covering the single run ``[start, stop)``."""
        return cls(((start, stop),))

    @classmethod
    def point(cls, address: int) -> "IntervalSet":
        """The set covering one address."""
        return cls(((address, address + 1),))

    @classmethod
    def _from_normalized(cls, ivs: Tuple[Interval, ...]) -> "IntervalSet":
        out = cls.__new__(cls)
        out._ivs = ivs
        out._words = None
        return out

    @classmethod
    def from_strided(
        cls,
        rows: "tuple[int, int]",
        col_range: "tuple[int, int]",
        ld: int,
    ) -> "IntervalSet":
        """The footprint of rows ``[r0, r1)`` of columns ``[c0, c1)`` in
        a column-major-style layout with leading dimension ``ld``.

        Column ``c`` contributes the run ``[r0 + c·ld, r1 + c·ld)``, so
        a panel footprint is built in closed form instead of by merging
        per-element (or per-column) intervals.  Requires
        ``0 <= r0 <= r1 <= ld``; full-height panels (``r1 - r0 = ld``)
        coalesce into a single run, exactly as the merge would.
        """
        (r0, r1), (c0, c1) = rows, col_range
        if r1 <= r0 or c1 <= c0:
            return EMPTY
        if not 0 <= r0 <= r1 <= ld:
            raise ValueError(
                f"rows [{r0},{r1}) must satisfy 0 <= r0 <= r1 <= ld={ld}"
            )
        if r1 - r0 == ld:
            return cls.single(c0 * ld + r0, (c1 - 1) * ld + r1)
        return cls._from_normalized(
            tuple((r0 + c * ld, r1 + c * ld) for c in range(c0, c1))
        )

    # -- basic queries -------------------------------------------------

    @property
    def intervals(self) -> Tuple[Interval, ...]:
        """The normalized intervals as a tuple of ``(start, stop)``."""
        return self._ivs

    @property
    def runs(self) -> int:
        """Number of maximal contiguous runs."""
        return len(self._ivs)

    @property
    def words(self) -> int:
        """Total number of addresses covered (cached after first use)."""
        # getattr guards sets unpickled from before the cache slot existed
        w = getattr(self, "_words", None)
        if w is None:
            if len(self._ivs) >= _NP_MERGE_MIN:
                arr = np.asarray(self._ivs, dtype=np.int64)
                w = int((arr[:, 1] - arr[:, 0]).sum())
            else:
                w = sum(b - a for a, b in self._ivs)
            self._words = w
        return w

    def messages(self, cap: int | None = None) -> int:
        """Number of messages needed to transfer this set.

        Parameters
        ----------
        cap:
            Maximum words per message, or ``None`` for unbounded
            messages.  The paper uses ``cap = M`` (a message cannot
            exceed the fast memory that receives it).
        """
        if cap is None:
            return len(self._ivs)
        if cap <= 0:
            raise ValueError(f"message cap must be positive, got {cap}")
        total = 0
        for a, b in self._ivs:
            total += -((a - b) // cap)  # ceil((b - a) / cap)
        return total

    def is_empty(self) -> bool:
        """Whether the set covers no addresses."""
        return not self._ivs

    def __len__(self) -> int:
        return len(self._ivs)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._ivs)

    def __bool__(self) -> bool:
        return bool(self._ivs)

    def __contains__(self, address: int) -> bool:
        # binary search over the sorted runs
        lo, hi = 0, len(self._ivs)
        while lo < hi:
            mid = (lo + hi) // 2
            a, b = self._ivs[mid]
            if address < a:
                hi = mid
            elif address >= b:
                lo = mid + 1
            else:
                return True
        return False

    def addresses(self) -> Iterator[int]:
        """Iterate over every covered address (tests / small inputs only)."""
        for a, b in self._ivs:
            yield from range(a, b)

    def shift(self, offset: int) -> "IntervalSet":
        """Translate every interval by ``offset`` (relocating a matrix
        into its slot of a shared slow-memory address space)."""
        if offset == 0:
            return self
        return IntervalSet._from_normalized(
            tuple((a + offset, b + offset) for a, b in self._ivs)
        )

    # -- set algebra ---------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        """Addresses covered by either set."""
        return IntervalSet(self._ivs + other._ivs)

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        """Addresses covered by both sets."""
        out: list[Interval] = []
        i = j = 0
        a, b = self._ivs, other._ivs
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo < hi:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet._from_normalized(tuple(out))

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        """Addresses covered by this set but not by ``other``."""
        out: list[Interval] = []
        j = 0
        b = other._ivs
        for lo, hi in self._ivs:
            cur = lo
            while j < len(b) and b[j][1] <= cur:
                j += 1
            k = j
            while k < len(b) and b[k][0] < hi:
                blo, bhi = b[k]
                if blo > cur:
                    out.append((cur, blo))
                cur = max(cur, bhi)
                if bhi >= hi:
                    break
                k += 1
            if cur < hi:
                out.append((cur, hi))
        return IntervalSet._from_normalized(merge_intervals(out))

    def __or__(self, other: "IntervalSet") -> "IntervalSet":
        return self.union(other)

    def __and__(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersection(other)

    def __sub__(self, other: "IntervalSet") -> "IntervalSet":
        return self.difference(other)

    def issubset(self, other: "IntervalSet") -> bool:
        """Whether every covered address is covered by ``other``."""
        return (self - other).is_empty()

    def isdisjoint(self, other: "IntervalSet") -> bool:
        """Whether the two sets share no address."""
        return (self & other).is_empty()

    # -- dunder plumbing -----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._ivs == other._ivs

    def __hash__(self) -> int:
        return hash(self._ivs)

    def __repr__(self) -> str:
        inner = ", ".join(f"[{a},{b})" for a, b in self._ivs)
        return f"IntervalSet({inner})"


def _merge_sorted_runs(runs: "list[Interval]") -> Tuple[Interval, ...]:
    """Coalesce already-sorted, non-empty runs (no cleaning pass)."""
    if not runs:
        return ()
    merged: list[Interval] = [runs[0]]
    for start, stop in runs[1:]:
        last_start, last_stop = merged[-1]
        if start <= last_stop:
            if stop > last_stop:
                merged[-1] = (last_start, stop)
        else:
            merged.append((start, stop))
    return tuple(merged)


def union_all(sets: Sequence[IntervalSet]) -> IntervalSet:
    """Union of many interval sets (single normalization pass)."""
    raw: list[Interval] = []
    for s in sets:
        raw.extend(s.intervals)
    # every input run is normalized already: skip the per-pair
    # cleaning of the general merge
    if len(raw) >= _NP_MERGE_MIN:
        return IntervalSet._from_normalized(_merge_intervals_np(raw))
    raw.sort()
    return IntervalSet._from_normalized(_merge_sorted_runs(raw))


def stack_runs(
    sets: "Sequence[IntervalSet]",
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Each set's runs, concatenated in order: ``(starts, stops, offsets)``.

    Set ``i`` owns runs ``offsets[i]:offsets[i + 1]``; an empty set owns
    none but keeps its slot.  This is the array form of a list of sets
    that :meth:`Layout.rect_runs <repro.layouts.base.Layout.rect_runs>`
    returns and :meth:`RunBatch.from_runs` consumes.
    """
    starts: list[int] = []
    stops: list[int] = []
    offsets = [0]
    for s in sets:
        for a, b in s.intervals:
            starts.append(a)
            stops.append(b)
        offsets.append(len(starts))
    return (
        np.array(starts, dtype=np.int64),
        np.array(stops, dtype=np.int64),
        np.array(offsets, dtype=np.int64),
    )


def gather_runs(
    starts: np.ndarray, stops: np.ndarray, offsets: np.ndarray, ids
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """The runs of sets ``ids`` (any order, repeats allowed), stacked."""
    ids = np.asarray(ids, dtype=np.int64)
    lo = offsets[ids]
    counts = offsets[ids + 1] - lo
    out = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    idx = np.repeat(lo - out[:-1], counts)
    idx += np.arange(len(idx), dtype=np.int64)
    return starts[idx], stops[idx], out


def union_groups(
    starts: np.ndarray, stops: np.ndarray, offsets: np.ndarray, sizes
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """The union of each group of consecutive stacked sets, stacked.

    Group ``g`` is the next ``sizes[g]`` sets; its union is normalized
    exactly as :func:`union_all` would normalize it (overlapping and
    adjacent runs coalesce), while runs of different groups never
    merge.  One stable sort serves every group: each run is keyed by
    ``group · span + address``, so the groups stay apart and in order.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    ngroups = len(sizes)
    out = np.zeros(ngroups + 1, dtype=np.int64)
    if not len(starts):
        return starts, stops, out
    run_group = np.repeat(
        np.repeat(np.arange(ngroups, dtype=np.int64), sizes), np.diff(offsets)
    )
    span = int(stops.max()) + 1
    lo = run_group * span + starts
    order = np.argsort(lo, kind="stable")
    lo = lo[order]
    hi = np.maximum.accumulate((run_group * span + stops)[order])
    new = np.empty(len(lo), dtype=bool)
    new[0] = True
    new[1:] = lo[1:] > hi[:-1]
    first = np.flatnonzero(new)
    last = np.append(first[1:], len(lo)) - 1
    group = run_group[order][first]
    np.cumsum(np.bincount(group, minlength=ngroups), out=out[1:])
    return lo[first] - group * span, hi[last] - group * span, out


class RunBatch:
    """An ordered sequence of per-transfer interval sets, as arrays.

    A charge plan's unit of work: each *set* is one transfer (exactly
    what the live path charges with one ``machine.read``/``machine.write``
    call or one scope boundary), kept in issue order.  Runs are
    stored struct-of-arrays (``starts``/``stops`` per run, ``offsets``
    delimiting each set's runs, ``is_write`` per set) so words and
    messages are charged with O(#runs) NumPy reductions instead of
    O(#words) Python loops.

    Invariants the builders maintain (and the machine relies on):

    * each set's runs are normalized (sorted, disjoint, non-adjacent),
      i.e. identical to the :class:`IntervalSet` the element-wise path
      would have charged;
    * runs are **never** merged across set boundaries — two adjacent
      transfers stay two messages, exactly as two ``read`` calls would;
    * empty sets are dropped at build time, mirroring the machine's
      early return on an empty explicit transfer.
    """

    __slots__ = ("starts", "stops", "offsets", "is_write")

    def __init__(
        self,
        starts: np.ndarray,
        stops: np.ndarray,
        offsets: np.ndarray,
        is_write: "np.ndarray | None" = None,
    ) -> None:
        self.starts = np.asarray(starts, dtype=np.int64)
        self.stops = np.asarray(stops, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        nsets = len(self.offsets) - 1
        if is_write is None:
            is_write = np.zeros(nsets, dtype=bool)
        self.is_write = np.asarray(is_write, dtype=bool)
        if len(self.starts) != len(self.stops):
            raise ValueError("starts and stops must have equal length")
        if nsets < 0 or int(self.offsets[-1]) != len(self.starts):
            raise ValueError("offsets must span all runs")
        if len(self.is_write) != nsets:
            raise ValueError("need one is_write flag per set")

    # -- constructors --------------------------------------------------

    @classmethod
    def from_runs(
        cls,
        starts: np.ndarray,
        stops: np.ndarray,
        offsets: np.ndarray,
        is_write: "bool | Sequence[bool]" = False,
    ) -> "RunBatch":
        """Build from stacked per-set runs (as :func:`stack_runs` returns).

        ``is_write`` is one flag for the batch or one per set; empty
        sets are dropped together with their flags.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        nsets = len(offsets) - 1
        flags = np.asarray(is_write, dtype=bool)
        if flags.ndim == 0:
            flags = np.full(nsets, bool(flags))
        keep = offsets[1:] > offsets[:-1]
        if not keep.all():
            offsets = np.concatenate((offsets[:1], offsets[1:][keep]))
            flags = flags[keep]
        return cls(starts, stops, offsets, flags)

    # -- queries -------------------------------------------------------

    @property
    def nsets(self) -> int:
        """Number of transfers in the batch."""
        return len(self.offsets) - 1

    def __len__(self) -> int:
        return self.nsets

    @property
    def words(self) -> int:
        """Total words across all transfers."""
        return int((self.stops - self.starts).sum())

    def _run_is_write(self) -> np.ndarray:
        return np.repeat(self.is_write, np.diff(self.offsets))

    def direction_words(self) -> "tuple[int, int]":
        """``(read_words, write_words)`` totals."""
        lengths = self.stops - self.starts
        written = int(lengths.sum(where=self._run_is_write()))
        return int(lengths.sum()) - written, written

    def direction_messages(self, cap: int | None = None) -> "tuple[int, int]":
        """``(read_messages, write_messages)`` under a message cap.

        Per transfer this equals ``IntervalSet.messages(cap)`` — each
        run costs ``ceil(len/cap)`` messages (1 when uncapped) and runs
        never merge across transfers.
        """
        w = self._run_is_write()
        if cap is None:
            written = int(w.sum())
            return len(w) - written, written
        if cap <= 0:
            raise ValueError(f"message cap must be positive, got {cap}")
        msgs = self.stops - self.starts  # ceil(len / cap), in place
        msgs += cap - 1
        msgs //= cap
        written = int(msgs.sum(where=w))
        return int(msgs.sum()) - written, written

    def __repr__(self) -> str:
        return (
            f"RunBatch(nsets={self.nsets}, runs={len(self.starts)}, "
            f"words={self.words})"
        )


EMPTY = IntervalSet()
"""The empty interval set (shared immutable instance)."""
