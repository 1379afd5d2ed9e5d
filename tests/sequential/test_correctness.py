"""Numerical correctness of every sequential algorithm.

Every algorithm × every layout × several matrix families must produce
the reference Cholesky factor, and must perform *exactly* the
arithmetic count of §3.1.3 — the strongest possible evidence that
they implement the paper's algorithms and not approximations of them.
"""

import math

import numpy as np
import pytest

from repro.layouts import (
    BlockedLayout,
    ColumnMajorLayout,
    MortonLayout,
    PackedLayout,
    RecursivePackedLayout,
    RFPLayout,
    RowMajorLayout,
)
from repro.machine import SequentialMachine
from repro.matrices import TrackedMatrix
from repro.matrices.generators import (
    diagonally_dominant,
    hilbert_shifted,
    random_spd,
    wishart_like,
)
from repro.sequential import (
    available_algorithms,
    cholesky_flops,
    run_algorithm,
)

ALGOS = available_algorithms()


def layouts_for(n):
    return [
        ColumnMajorLayout(n),
        RowMajorLayout(n),
        PackedLayout(n),
        RFPLayout(n),
        BlockedLayout(n, max(1, n // 4)),
        MortonLayout(n),
        RecursivePackedLayout(n, "recursive"),
        RecursivePackedLayout(n, "column"),
    ]


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 21, 32])
def test_factor_matches_reference(algo, n):
    a0 = random_spd(n, seed=n)
    machine = SequentialMachine(max(64, 4 * n))
    A = TrackedMatrix(a0, ColumnMajorLayout(n), machine)
    L = run_algorithm(algo, A)
    assert np.allclose(L, np.linalg.cholesky(a0), atol=1e-8), algo


@pytest.mark.parametrize("algo", ALGOS)
def test_factor_on_every_layout(algo):
    n = 12
    a0 = random_spd(n, seed=3)
    ref = np.linalg.cholesky(a0)
    for lay in layouts_for(n):
        machine = SequentialMachine(4 * n)
        A = TrackedMatrix(a0, lay, machine)
        L = run_algorithm(algo, A)
        assert np.allclose(L, ref, atol=1e-8), (algo, lay.name)


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize(
    "gen", [random_spd, diagonally_dominant, wishart_like, hilbert_shifted]
)
def test_factor_matrix_families(algo, gen):
    n = 15
    a0 = gen(n)
    machine = SequentialMachine(4 * n)
    A = TrackedMatrix(a0, ColumnMajorLayout(n), machine)
    L = run_algorithm(algo, A)
    assert np.allclose(L @ L.T, a0, atol=1e-8)


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("n", [1, 2, 5, 13, 24])
def test_exact_flop_count(algo, n):
    """§3.1.3: all algorithms do the same arithmetic up to reordering."""
    machine = SequentialMachine(max(64, 4 * n))
    A = TrackedMatrix(random_spd(n), ColumnMajorLayout(n), machine)
    run_algorithm(algo, A)
    assert machine.flops == cholesky_flops(n), algo


@pytest.mark.parametrize("algo", ALGOS)
def test_flops_independent_of_layout_and_data(algo):
    n = 10
    counts = set()
    for seed, lay in [(0, ColumnMajorLayout(n)), (1, MortonLayout(n)),
                      (2, PackedLayout(n))]:
        machine = SequentialMachine(4 * n)
        A = TrackedMatrix(random_spd(n, seed=seed), lay, machine)
        run_algorithm(algo, A)
        counts.add(machine.flops)
    assert counts == {cholesky_flops(n)}


@pytest.mark.parametrize("algo", ALGOS)
def test_not_spd_raises(algo):
    n = 8
    a0 = random_spd(n, seed=0)
    a0[n // 2, n // 2] = -50.0  # break definiteness, keep symmetry
    machine = SequentialMachine(4 * n)
    A = TrackedMatrix(a0, ColumnMajorLayout(n), machine)
    with pytest.raises(np.linalg.LinAlgError):
        run_algorithm(algo, A)


@pytest.mark.parametrize("algo", ALGOS)
def test_machine_left_clean(algo):
    """Algorithms must release everything they held."""
    n = 12
    machine = SequentialMachine(4 * n)
    A = TrackedMatrix(random_spd(n), ColumnMajorLayout(n), machine)
    run_algorithm(algo, A)
    assert machine.resident.is_empty()


@pytest.mark.parametrize("algo", ["naive-left", "naive-right", "lapack",
                                  "toledo", "square-recursive"])
def test_small_memory_regimes_still_correct(algo):
    """M < 2n forces the segmented / deeply-recursive code paths."""
    n = 24
    a0 = random_spd(n, seed=9)
    ref = np.linalg.cholesky(a0)
    machine = SequentialMachine(20)  # far below 2n = 48
    A = TrackedMatrix(a0, ColumnMajorLayout(n), machine)
    L = run_algorithm(algo, A)
    assert np.allclose(L, ref, atol=1e-8)
    assert machine.flops == cholesky_flops(n)


def _up_looking_reference(a: np.ndarray) -> np.ndarray:
    """Row-by-row Cholesky, each row by per-element forward
    substitution against the finished rows (the paper's inner loop)."""
    n = len(a)
    L = np.zeros_like(a)
    for i in range(n):
        row = a[i, : i + 1].copy()
        for j in range(i):
            row[j] = (row[j] - row[:j] @ L[j, :j]) / L[j, j]
        row[i] = math.sqrt(row[i] - row[:i] @ row[:i])
        L[i, : i + 1] = row
    return L


@pytest.mark.parametrize("observed", [False, True], ids=["planned", "live"])
@pytest.mark.parametrize("n", [1, 2, 17, 64])
def test_up_looking_row_solve_matches_forward_substitution(n, observed):
    """Up-looking solves each row with one triangular solve; it agrees
    with per-element forward substitution to float64 rounding."""
    from repro.observability.spans import observe
    from repro.schedule import compile_disabled

    a0 = random_spd(n, seed=n)
    machine = SequentialMachine(2 * n)
    if observed:
        observe(machine)
    A = TrackedMatrix(a0, RowMajorLayout(n), machine)
    with compile_disabled():  # the walk's own factor, not a replay's
        L = run_algorithm("naive-up", A)
    np.testing.assert_allclose(L, _up_looking_reference(a0), rtol=1e-12, atol=1e-12)
    assert machine.flops == cholesky_flops(n)


def test_registry_unknown():
    machine = SequentialMachine(64)
    A = TrackedMatrix(random_spd(4), ColumnMajorLayout(4), machine)
    with pytest.raises(ValueError):
        run_algorithm("does-not-exist", A)


def test_registry_lists_all():
    assert set(ALGOS) == {
        "naive-left", "naive-right", "naive-up",
        "lapack", "lapack-right", "toledo", "square-recursive",
    }
