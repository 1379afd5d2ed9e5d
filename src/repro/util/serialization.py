"""Crash-safe artifact writes.

Every artifact the library persists — cache entries, compiled
schedules, experiment artifacts, reports, bench documents, metrics
dumps — goes through one discipline: serialize to a temporary file in
the target directory, flush and fsync it, then :func:`os.replace` it
into place.
A reader can therefore never observe a torn file: it sees either the
previous complete version or the new complete one, even if the writing
process is killed mid-write.  (A stray ``.tmp-*`` file may survive a
kill; it is never read and the next write cleans nothing up but also
collides with nothing, since every write gets a fresh temp name.)
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> str:
    """Atomically replace ``path`` with ``data``; returns the path.

    The parent directory is created if missing.  The data is durable
    (fsync'd) before the rename, so a crash immediately after return
    cannot roll the file back to a truncated state.
    """
    path = str(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def atomic_write_text(path: str | os.PathLike, text: str) -> str:
    """Atomically replace ``path`` with ``text`` (UTF-8); returns the path."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(
    path: str | os.PathLike,
    obj: Any,
    *,
    indent: int | None = None,
    sort_keys: bool = False,
) -> str:
    """Atomically write ``obj`` as JSON to ``path``; returns the path."""
    text = json.dumps(obj, indent=indent, sort_keys=sort_keys)
    if indent is not None:
        text += "\n"
    return atomic_write_text(path, text)


__all__ = ["atomic_write_bytes", "atomic_write_json", "atomic_write_text"]
