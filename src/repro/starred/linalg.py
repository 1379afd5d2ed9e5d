"""Element-level linear algebra over masked values.

Everything here works on NumPy *object* arrays whose entries are
Python floats or :class:`~repro.starred.value.Star` scalars, and
performs only classical operations: sums of products accumulated in an
explicit order, never distributivity rewrites (footnote 7 of the
paper: ``X·Y`` means the straightforward n³ algorithm — distributivity
does not hold for starred values, so the order of operations *is* the
semantics).

``starred_cholesky`` evaluates Equations (5)–(6) under three different
schedules (left-looking, right-looking, and the square-recursive
order).  Lemma 2.2 says any schedule respecting the dependency DAG
computes the same factor; the tests check all three agree — on real
inputs with the reference factor, and on reduction inputs with each
other.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.starred.value import MaskedValue, Star, ssqrt
from repro.util.imath import split_point


def to_object_matrix(a: Iterable) -> np.ndarray:
    """Build a 2-D object array of masked values (floats pass through)."""
    rows = [list(r) for r in a]
    n = len(rows)
    out = np.empty((n, len(rows[0]) if n else 0), dtype=object)
    for i, row in enumerate(rows):
        if len(row) != out.shape[1]:
            raise ValueError("ragged rows in matrix input")
        for j, v in enumerate(row):
            out[i, j] = v if isinstance(v, Star) else float(v)
    return out


def starred_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Classical ``A·B`` over masked values (explicit n³ loop).

    Accumulation runs over ``k`` in increasing order; with masked
    values the order matters in principle (no distributivity), and
    this fixed order is the one footnote 7's convention pins down.
    """
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    m, k = a.shape
    k2, r = b.shape
    if k != k2:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    out = np.empty((m, r), dtype=object)
    for i in range(m):
        for j in range(r):
            acc: MaskedValue = a[i, 0] * b[0, j] if k else 0.0
            for t in range(1, k):
                acc = acc + a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def _dot(xs, ys) -> MaskedValue:
    """Ordered sum of elementwise products (empty sum is real 0)."""
    acc: MaskedValue = 0.0
    first = True
    for x, y in zip(xs, ys):
        p = x * y
        acc = p if first else acc + p
        first = False
    return acc


def starred_cholesky(t: np.ndarray, order: str = "left") -> np.ndarray:
    """Cholesky factor of an object matrix by Equations (5)–(6).

    Parameters
    ----------
    t:
        Square object matrix (only the lower triangle is referenced).
    order:
        Evaluation schedule: ``"left"`` (column at a time, lazily
        updated), ``"right"`` (eager trailing updates), or
        ``"recursive"`` (the Algorithm 6 order).  All respect the
        dependency DAG of Figure 1, so by Lemma 2.2 all produce the
        same factor.

    Returns the lower-triangular object matrix ``L`` (zeros above the
    diagonal as real ``0.0``).
    """
    t = np.asarray(t, dtype=object)
    n = t.shape[0]
    if t.shape != (n, n):
        raise ValueError(f"need a square matrix, got {t.shape}")
    if order == "left":
        return _chol_left(t.copy())
    if order == "right":
        return _chol_right(t.copy())
    if order == "recursive":
        work = t.copy()
        _chol_recursive(work, 0, n)
        return np.tril(work)
    raise ValueError(f"unknown order {order!r}")


def _chol_left(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    L = np.empty_like(a)
    L[...] = 0.0
    for j in range(n):
        for i in range(j, n):
            s = a[i, j] - _dot(L[i, :j], L[j, :j]) if j else a[i, j]
            if i == j:
                L[j, j] = ssqrt(s)
            else:
                L[i, j] = s / L[j, j]
    return L


def _chol_right(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    n = a.shape[0]
    for j in range(n):
        a[j, j] = ssqrt(a[j, j])
        for i in range(j + 1, n):
            a[i, j] = a[i, j] / a[j, j]
        for k in range(j + 1, n):
            for i in range(k, n):
                a[i, k] = a[i, k] - a[i, j] * a[k, j]
    for i in range(n):
        for j in range(i + 1, n):
            a[i, j] = 0.0
    return a


def _chol_recursive(a: np.ndarray, lo: int, hi: int) -> None:
    """In-place recursive order on ``a[lo:hi, lo:hi]``."""
    n = hi - lo
    if n == 1:
        a[lo, lo] = ssqrt(a[lo, lo])
        return
    k = lo + split_point(n)
    _chol_recursive(a, lo, k)
    # panel solve: L21 = A21 · L11^{-T} by forward substitution
    for i in range(k, hi):
        for j in range(lo, k):
            s = a[i, j] - _dot(a[i, lo:j], a[j, lo:j]) if j > lo else a[i, j]
            a[i, j] = s / a[j, j]
    # symmetric trailing update (lower triangle only)
    for i in range(k, hi):
        for j in range(k, i + 1):
            a[i, j] = a[i, j] - _dot(a[i, lo:k], a[j, lo:k])
    _chol_recursive(a, k, hi)
