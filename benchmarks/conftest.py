"""Shared infrastructure for the benchmark harness.

Each ``bench_*.py`` regenerates one artifact of the paper's evaluation
(a table, a figure's quantitative counterpart, or an in-text formula),
asserts that the measured *shape* matches the paper's claim, and
writes the rendered table to ``reports/``.

Conventions:

* expensive sweeps run once per module via session-scoped fixtures;
* the ``benchmark`` fixture times one representative unit of the sweep
  (so ``pytest benchmarks/ --benchmark-only`` also yields a timing
  table for the simulator itself);
* every module ends by emitting a ``ReportWriter`` artifact — run with
  ``-s`` to see the tables inline, or read them from ``reports/``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, set before anything imports numpy
# (as perfbench/harness.py does): OpenBLAS reads these once, when it
# loads.  Unpinned, its worker threads contend with the timed work and
# can stall the timed gates (bench_cluster.py, bench_durability.py).
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

from repro.analysis.report import ReportWriter  # noqa: E402


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--bench-out",
        action="store",
        default=None,
        metavar="DIR",
        help="directory for bench JSON artifacts (e.g. BENCH_5.json); "
        "defaults to the repository root",
    )


@pytest.fixture(scope="session")
def bench_out(request: pytest.FixtureRequest) -> Path:
    """Directory bench modules write their JSON artifacts into."""
    opt = request.config.getoption("--bench-out")
    if opt:
        path = Path(opt)
        path.mkdir(parents=True, exist_ok=True)
        return path
    return Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def reports_emitted():
    """Collect report names emitted during the session (diagnostics)."""
    emitted: list[str] = []
    yield emitted


def emit_report(writer: ReportWriter) -> str:
    """Print and save a report; returns the saved path."""
    return writer.emit(echo=True)


def run_module(path: str, argv: "list[str] | None" = None) -> int:
    """Run one bench module standalone: ``python -m benchmarks.bench_x``.

    Thin wrapper over ``pytest.main`` so every module's ``__main__``
    guard stays one line and picks up this conftest (fixtures,
    ``--bench-out``) exactly as a full ``pytest benchmarks/`` run does.
    """
    import sys

    args = list(sys.argv[1:] if argv is None else argv)
    return pytest.main([path, *args])
