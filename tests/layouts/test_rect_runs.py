"""``Layout.rect_runs`` and ``TrackedMatrix.rect_runs``, checked exactly.

``rect_runs`` is the batch form of :meth:`Layout.intervals`: column-major
builds it in closed form and Morton from one sorted address array, the
other layouts stack ``intervals`` per rectangle.  Every layout must give
exactly ``[layout.intervals(*r) for r in rects]`` — over every rectangle
(empty ones included) for n = 1 … 12 and over seeded samples, with
repeats, for larger n — and reject an out-of-range rectangle with
:class:`LayoutError`, as ``intervals`` does.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from repro.layouts import LayoutError, available_layouts, make_layout
from repro.machine import SequentialMachine
from repro.matrices.tracked import TrackedMatrix
from repro.util.intervals import EMPTY, RunBatch, stack_runs

LAYOUTS = available_layouts()
SAMPLE_SIZES = (13, 31, 33, 100, 160)


def _layout(name: str, n: int):
    return make_layout(name, n, block=3 if name == "blocked" else None)


def _sets(runs) -> list:
    starts, stops, offsets = (np.asarray(a).tolist() for a in runs)
    return [
        tuple(zip(starts[lo:hi], stops[lo:hi]))
        for lo, hi in zip(offsets, offsets[1:])
    ]


def _every_rect(n: int) -> list:
    spans = list(itertools.combinations_with_replacement(range(n + 1), 2))
    return [(r0, r1, c0, c1) for r0, r1 in spans for c0, c1 in spans]


def _sample_rects(n: int, count: int, seed: int) -> list:
    rng = random.Random(seed)
    rects = []
    for _ in range(count):
        r0, r1 = sorted(rng.randrange(n + 1) for _ in range(2))
        c0, c1 = sorted(rng.randrange(n + 1) for _ in range(2))
        rects.append((r0, r1, c0, c1))
    # repeats exercise the per-distinct-rectangle expansion
    return rects + rng.sample(rects, count // 4)


def _expected(layout, rects) -> list:
    return [layout.intervals(*r).intervals for r in rects]


@pytest.mark.parametrize("name", LAYOUTS)
def test_every_rectangle_up_to_twelve(name):
    for n in range(1, 13):
        layout = _layout(name, n)
        rects = _every_rect(n)
        assert _sets(layout.rect_runs(rects)) == _expected(layout, rects), n


@pytest.mark.parametrize("name", LAYOUTS)
@pytest.mark.parametrize("n", SAMPLE_SIZES)
def test_seeded_samples(name, n):
    layout = _layout(name, n)
    rects = _sample_rects(n, 120, seed=n)
    assert _sets(layout.rect_runs(rects)) == _expected(layout, rects)


@pytest.mark.parametrize("name", LAYOUTS)
def test_empty_batch(name):
    starts, stops, offsets = _layout(name, 5).rect_runs([])
    assert len(starts) == len(stops) == 0
    assert offsets.tolist() == [0]


@pytest.mark.parametrize("name", LAYOUTS)
@pytest.mark.parametrize(
    "bad", [(0, 6, 0, 1), (-1, 2, 0, 1), (3, 2, 0, 1), (0, 1, 4, 6), (0, 1, 2, 1)]
)
def test_out_of_range_rectangle_raises_layout_error(name, bad):
    layout = _layout(name, 5)
    with pytest.raises(LayoutError) as single:
        layout.intervals(*bad)
    with pytest.raises(LayoutError) as batch:
        layout.rect_runs([(0, 2, 0, 2), bad, (1, 3, 1, 3)])
    assert str(batch.value) == str(single.value)


@pytest.mark.parametrize("name", LAYOUTS)
def test_tracked_rect_runs_equal_the_memo(name):
    """Runs are global and equal the memo's sets; a batch built from
    them drops empty rectangles and their flags."""
    n = 33
    machine = SequentialMachine(64)
    TrackedMatrix(np.eye(n), _layout(name, n), machine)  # base > 0 below
    A = TrackedMatrix(np.eye(n), _layout(name, n), machine)
    assert A.base > 0
    rects = _sample_rects(n, 80, seed=5) + [(4, 4, 0, 3), (0, 3, 7, 7)]
    rng = random.Random(6)
    flags = [rng.random() < 0.5 for _ in rects]
    sets = [A.intervals(*r) for r in rects]
    assert EMPTY in sets
    got = A.rect_runs(rects)
    for g, want in zip(got, stack_runs(sets)):
        assert g.tolist() == want.tolist()
    batch = RunBatch.from_runs(*got, is_write=flags)
    kept = [f for s, f in zip(sets, flags) if s]
    assert batch.is_write.tolist() == kept and batch.nsets == len(kept)


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_lower_words_of_equals_the_stored_words(n):
    """The array form of ``lower_words`` against the packed layout's
    stored words, on every nonempty rectangle."""
    from repro.layouts.base import lower_words_of

    layout = make_layout("packed", n)
    rects = [
        (r0, r1, c0, c1)
        for r0, r1 in itertools.combinations(range(n + 1), 2)
        for c0, c1 in itertools.combinations(range(n + 1), 2)
    ]
    got = lower_words_of(*np.array(rects).T)
    assert got.tolist() == [layout.intervals(*r).words for r in rects]
