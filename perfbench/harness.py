"""Shared pieces of the benchmark: state roots, statistics, memory, fingerprint.

Nothing here imports ``repro``; the workload modules do.  Every path the
benchmark writes lives under ``<checkout>/.bench_state``, which is
removed when the run ends.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")
STATE_DIR = os.path.join(CHECKOUT, ".bench_state")

#: BLAS/OpenMP pools are pinned to one thread per process.  Unpinned,
#: two shard processes on two cores oversubscribe the CPUs and the
#: serving figures collapse (see README.md).
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


#: What every workload imports before its first timed operation.
PROGRAM_MODULES = ("numpy", "repro.analysis.sweeps", "repro.experiments", "repro.serving")
IMPORT_REPEATS = 5


def pin_blas_threads() -> None:
    """Pin BLAS pools to one thread; must run before numpy is imported.

    Child processes (engine pool workers, shard processes) inherit the
    environment, so one call covers the whole process tree.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_seconds() -> float:
    """Median wall time for a fresh interpreter to import the program.

    Several fresh imports make a steadier figure than this process's
    own single import, which also pays for writing bytecode on the
    first run in a checkout.
    """
    code = "import " + ", ".join(PROGRAM_MODULES)
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=CHECKOUT, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return median(times)


# -- statistics ------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty sample."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(p / 100.0 * len(data)))
    return float(data[min(rank, len(data)) - 1])


def median(values) -> float:
    data = sorted(values)
    if not data:
        raise ValueError("median of an empty sample")
    mid = len(data) // 2
    if len(data) % 2:
        return float(data[mid])
    return (data[mid - 1] + data[mid]) / 2.0


#: The exact counts a measurement is checked on.  They depend on the
#: shape (and fault plan) of a point, never on its matrix seed.
COUNT_FIELDS = ("words", "messages", "flops", "words_read", "words_written")


def counts(measurement) -> dict:
    return {f: int(getattr(measurement, f)) for f in COUNT_FIELDS}


# -- isolated state --------------------------------------------------------


class StateRoot:
    """A private directory tree for one benchmark process.

    Each round gets a fresh sub-directory that the program's state
    environment variables point at (result cache, schedule cache disk
    tier, temp files), so no round can read what an earlier one wrote
    and nothing touches the checkout's ``.repro-cache/`` or
    ``reports/``.
    """

    def __init__(self, tag: str) -> None:
        self.path = os.path.join(STATE_DIR, f"{tag}-{os.getpid()}")
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        self._rounds = 0
        self.point_env(os.path.join(self.path, "base"))

    @staticmethod
    def point_env(root: str) -> None:
        os.makedirs(os.path.join(root, "tmp"), exist_ok=True)
        os.environ["REPRO_CACHE_DIR"] = os.path.join(root, "cache")
        os.environ["REPRO_SCHEDULE_DIR"] = os.path.join(root, "schedules")
        os.environ["TMPDIR"] = os.path.join(root, "tmp")
        import tempfile

        tempfile.tempdir = None  # re-read TMPDIR on next use

    def new_round(self) -> str:
        """Create and activate a fresh round directory; returns it."""
        self._rounds += 1
        root = os.path.join(self.path, f"round-{self._rounds}")
        os.makedirs(root)
        self.point_env(root)
        return root

    def drop_round(self, root: str) -> None:
        shutil.rmtree(root, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(STATE_DIR)
        except OSError:
            pass  # another run still holds its own sub-directory


def dir_bytes(root: str) -> int:
    """Total size of the regular files under ``root``."""
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                pass
    return total


# -- memory ----------------------------------------------------------------


def _status_kb(pid: int, field: str) -> "int | None":
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return None


def _children(pid: int) -> "list[int]":
    out = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
                out.extend(int(x) for x in fh.read().split())
        except (OSError, ValueError):
            pass
    return out


def descendants(pid: int) -> "list[int]":
    seen, stack = [], _children(pid)
    while stack:
        child = stack.pop()
        if child not in seen:
            seen.append(child)
            stack.extend(_children(child))
    return seen


def rss_kb(pid: int) -> "int | None":
    """Current resident set of one process, in KiB."""
    return _status_kb(pid, "VmRSS")


def tree_peak_kb() -> "dict[int, int]":
    """``VmHWM`` (own peak resident set, KiB) of this process and each descendant."""
    me = os.getpid()
    peaks = {}
    for pid in [me] + descendants(me):
        kb = _status_kb(pid, "VmHWM")
        if kb is not None:
            peaks[pid] = kb
    return peaks


class PeakRss:
    """Samples the peak resident set of this process and its descendants.

    ``VmHWM`` is each process's own high-water mark, so sampling it
    every ``interval`` seconds and keeping the last value seen per pid
    loses nothing for processes that live longer than one interval,
    such as engine pool workers that exit before the sweep returns.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self._peaks: "dict[int, int]" = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="perfbench-rss", daemon=True
        )

    def _sample(self) -> None:
        for pid, kb in tree_peak_kb().items():
            self._peaks[pid] = max(kb, self._peaks.get(pid, 0))

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> "PeakRss":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def total_mb(self) -> float:
        return sum(self._peaks.values()) / 1024.0

    def self_mb(self) -> float:
        return self._peaks.get(os.getpid(), 0) / 1024.0


# -- environment fingerprint -------------------------------------------------


def _git_commit() -> "str | None":
    head = os.path.join(CHECKOUT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(CHECKOUT, ".git", ref[5:]), encoding="ascii") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _cpu_model() -> "str | None":
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _filesystem(path: str) -> "str | None":
    best, fstype = "", None
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                mount, kind = parts[1], parts[2]
                if path.startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, kind
    except (OSError, IndexError):
        return None
    return fstype


def cpu_times() -> "list[int]":
    """The host's aggregate CPU tick counters from ``/proc/stat``."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before: "list[int]", after: "list[int]") -> float:
    """Share of host CPU time lost to steal in between (0 when unknown)."""
    return host_shares(before, after).get("steal", 0.0)


def host_shares(before: "list[int]", after: "list[int]") -> dict:
    """Share of host CPU time lost to steal and spent in iowait in between.

    Both move every timing this benchmark reports without any change in
    the program, so each run records them next to its result.
    """
    if len(before) < 8 or len(after) < 8:
        return {}
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8]) or 1
    return {"steal": delta[7] / total, "iowait": delta[4] / total}


def fingerprint() -> dict:
    """Where and how this run was measured."""
    import numpy as np

    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # noqa: BLE001 - best-effort description only
        pass
    return {
        "git_commit": _git_commit(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "state_fs": _filesystem(STATE_DIR),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


# -- output ----------------------------------------------------------------


def note(kind: str, payload) -> None:
    """One diagnostic JSON line on stdout (never the last line)."""
    print(json.dumps({"note": kind, **payload}, sort_keys=True), flush=True)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def now() -> float:
    return time.perf_counter()
