"""Communication-count tests: the paper's formulas, asserted exactly
or as scaling bounds.

The exact closed forms (§3.1.4, §3.1.5) are checked to the word; the
asymptotic forms (Algorithm 4/5/6 analyses) are checked as explicit
constant-factor bounds at concrete sizes.
"""

import numpy as np
import pytest

from repro.layouts import BlockedLayout, ColumnMajorLayout, MortonLayout, RowMajorLayout
from repro.machine import SequentialMachine
from repro.matrices import TrackedMatrix
from repro.matrices.generators import random_spd
from repro.observability import observe
from repro.sequential import (
    lapack_blocked,
    naive_left_looking,
    naive_right_looking,
    naive_up_looking,
    square_recursive,
    toledo,
)


def run(algo, n, M, layout=None, *, observed=False, **kw):
    """One run of ``algo``; an observer makes it take the live walk."""
    machine = SequentialMachine(M)
    if observed:
        observe(machine)
    lay = layout or ColumnMajorLayout(n)
    A = TrackedMatrix(random_spd(n, seed=n), lay, machine)
    algo(A, **kw)
    return machine


#: n at and around powers of two, primes and odd sizes (§3.1.4–3.1.5).
NAIVE_NS = [1, 2, 3, 5, 8, 17, 31, 32, 33, 49, 64, 65]


def _memory(n: int, regime: str) -> int:
    """M at the two-column boundary (2n, 2n + 1) or roomy (4n)."""
    return {"2n": 2 * n, "2n+1": 2 * n + 1, "4n": 4 * n}[regime]


@pytest.mark.parametrize("observed", [False, True], ids=["plan", "live"])
class TestNaiveExactCounts:
    """§3.1.4 and §3.1.5, M >= 2n, column-major storage: exact
    equalities, on the charge plan and on the live walk."""

    @pytest.mark.parametrize("regime", ["2n", "2n+1", "4n"])
    @pytest.mark.parametrize("n", NAIVE_NS)
    def test_left_looking_words(self, observed, n, regime):
        m = run(naive_left_looking, n, _memory(n, regime), observed=observed)
        assert 6 * m.words == n**3 + 6 * n**2 + 5 * n

    @pytest.mark.parametrize("regime", ["2n", "2n+1", "4n"])
    @pytest.mark.parametrize("n", NAIVE_NS)
    def test_left_looking_messages(self, observed, n, regime):
        m = run(naive_left_looking, n, _memory(n, regime), observed=observed)
        assert 2 * m.messages == n**2 + 3 * n

    @pytest.mark.parametrize("regime", ["2n", "2n+1", "4n"])
    @pytest.mark.parametrize("n", NAIVE_NS)
    def test_right_looking_words(self, observed, n, regime):
        m = run(naive_right_looking, n, _memory(n, regime), observed=observed)
        assert 3 * m.words == n**3 + 3 * n**2 + 2 * n

    @pytest.mark.parametrize("regime", ["2n", "2n+1", "4n"])
    @pytest.mark.parametrize("n", NAIVE_NS)
    def test_right_looking_messages(self, observed, n, regime):
        m = run(naive_right_looking, n, _memory(n, regime), observed=observed)
        assert m.messages == n**2 + n

    @pytest.mark.parametrize("regime", ["2n", "4n"])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 32])
    def test_up_looking_mirrors_left(self, observed, n, regime):
        """The row-wise twin has the left-looking word count, on
        row-major storage, with the same message count."""
        M = _memory(n, regime)
        m_up = run(naive_up_looking, n, M, RowMajorLayout(n), observed=observed)
        m_left = run(naive_left_looking, n, M, observed=observed)
        assert m_up.words == m_left.words
        assert m_up.messages == m_left.messages

    def test_left_reads_vs_writes(self, observed):
        # left-looking writes each column exactly once
        n = 16
        m = run(naive_left_looking, n, 4 * n, observed=observed)
        assert m.counters.words_written == n * (n + 1) // 2

    def test_right_writes_more(self, observed):
        # right-looking rewrites trailing columns every iteration
        n = 16
        m = run(naive_right_looking, n, 4 * n, observed=observed)
        assert m.counters.words_written > n * (n + 1) // 2


class TestNaiveSegmentedRegime:
    """M < 2n: bandwidth stays Θ(n³); messages are O(n³/M)."""

    def test_left_bandwidth_unchanged(self):
        n = 32
        big = run(naive_left_looking, n, 4 * n)
        small = run(naive_left_looking, n, 16)
        # same words up to the pinned-scalar overhead (≤ 2 extra words
        # per (segment, k) pair)
        assert small.words >= big.words
        assert small.words <= 2 * big.words + 4 * n * n

    def test_left_messages_scale_with_M(self):
        n = 32
        m8 = run(naive_left_looking, n, 8)
        m16 = run(naive_left_looking, n, 16)
        assert m8.messages > m16.messages

    def test_right_segmented_constant_factor(self):
        n = 32
        big = run(naive_right_looking, n, 4 * n)
        small = run(naive_right_looking, n, 16)
        assert big.words <= small.words <= 3 * big.words

    def test_naive_on_blocked_storage_hurts_latency(self):
        """§3.1.4 last sentence: blocked storage increases the naïve
        algorithm's latency (columns are scattered across tiles)."""
        n = 32
        col = run(naive_left_looking, n, 4 * n)
        blk = run(naive_left_looking, n, 4 * n, layout=BlockedLayout(n, 4))
        assert blk.messages > 2 * col.messages


class TestLapackCounts:
    """Algorithm 4: B(n) = O(n³/b + n²), latency by storage format."""

    def test_bandwidth_shrinks_with_block_size(self):
        n, M = 64, 64 * 64 * 3
        words = [
            run(lapack_blocked, n, M, block=b).words for b in (1, 4, 16)
        ]
        assert words[0] > words[1] > words[2]

    def test_block_one_is_naive_magnitude(self):
        n = 24
        m1 = run(lapack_blocked, n, 4 * n * n, block=1)
        naive = run(naive_left_looking, n, 4 * n)
        # same Θ(n³): within a small constant of each other
        assert m1.words <= 4 * naive.words
        assert naive.words <= 4 * m1.words

    def test_optimal_block_meets_bandwidth_bound(self):
        n = 64
        M = 3 * 16 * 16  # b_opt = 16
        m = run(lapack_blocked, n, M)
        lower = n**3 / np.sqrt(M)
        assert m.words <= 12 * lower  # explicit constant, not just Θ

    def test_latency_blocked_vs_column_major(self):
        """Conclusion 3: same bandwidth, b× fewer messages on blocked
        storage."""
        n, b = 64, 16
        M = 3 * b * b
        col = run(lapack_blocked, n, M, block=b)
        blk = run(
            lapack_blocked, n, M, layout=BlockedLayout(n, b), block=b
        )
        assert blk.words == col.words
        assert col.messages >= (b // 2) * blk.messages

    def test_block_too_big_rejected(self):
        from repro.machine import ModelError

        n = 16
        with pytest.raises(ModelError):
            run(lapack_blocked, n, 47, block=4)  # 3*16 = 48 > 47

    def test_default_block_size(self):
        from repro.sequential.lapack_blocked import default_block_size

        assert default_block_size(3 * 16 * 16) == 16
        assert default_block_size(3 * 16 * 16 + 5) == 16


class TestSquareRecursiveCounts:
    """Algorithm 6: B = O(n³/√M + n²), L = O(n³/M^{3/2}) on Morton."""

    def test_bandwidth_bound_with_constant(self):
        n, M = 128, 3 * 16 * 16
        m = run(square_recursive, n, M, layout=MortonLayout(n))
        assert m.words <= 10 * (n**3 / np.sqrt(M) + n * n)

    def test_latency_bound_on_morton(self):
        n, M = 128, 3 * 16 * 16
        m = run(square_recursive, n, M, layout=MortonLayout(n))
        assert m.messages <= 40 * (n**3 / M**1.5 + n * n / M)

    def test_latency_worse_on_column_major(self):
        n, M = 128, 3 * 16 * 16
        mor = run(square_recursive, n, M, layout=MortonLayout(n))
        col = run(square_recursive, n, M)
        assert col.words == pytest.approx(mor.words, rel=0.01)
        assert col.messages > 4 * mor.messages

    def test_whole_matrix_fits_costs_2n2(self):
        n = 16
        m = run(square_recursive, n, 4 * n * n)
        assert m.words == 2 * n * n  # read once, write once


class TestToledoCounts:
    """Claim 3.1 and the latency lower bounds of §3.1.7."""

    def test_bandwidth_has_log_term(self):
        # with huge M the matmuls are free; the per-column base cases
        # still pay Θ(mn) per recursion level = Θ(n² log n) total
        n = 64
        m = run(toledo, n, 64 * n * n)
        assert m.words >= n * n  # at least read+write everything
        assert m.words >= 2 * n * n  # leaves alone: 2m per column
        # and it exceeds square-recursive's 2n² whenever n > 2
        sq = run(square_recursive, n, 64 * n * n)
        assert m.words > sq.words

    def test_bandwidth_bound_with_constant(self):
        n, M = 128, 3 * 16 * 16
        m = run(toledo, n, M)
        bound = n**3 / np.sqrt(M) + n * n * np.log2(n)
        assert m.words <= 12 * bound

    def test_latency_on_morton_is_quadratic(self):
        """Ω(n²) messages on recursive block storage: every column
        base case touches Θ(m) separate runs."""
        n = 64
        M = 3 * 16 * 16
        m = run(toledo, n, M, layout=MortonLayout(n))
        assert m.messages >= n * n / 4

    def test_latency_better_for_square_recursive(self):
        n, M = 64, 3 * 16 * 16
        t = run(toledo, n, M, layout=MortonLayout(n))
        s = run(square_recursive, n, M, layout=MortonLayout(n))
        assert t.messages > 8 * s.messages


class TestDataIndependence:
    """Classical Cholesky moves the same data for every SPD input."""

    @pytest.mark.parametrize(
        "algo", [naive_left_looking, lapack_blocked, toledo, square_recursive]
    )
    def test_counts_independent_of_values(self, algo):
        n = 16
        results = set()
        for seed in (0, 1, 2):
            m = run(algo, n, 4 * n) if algo is naive_left_looking else run(
                algo, n, 3 * 8 * 8
            )
            results.add((m.words, m.messages, m.flops))
        assert len(results) == 1
