"""Crash- and concurrency-safe file primitives for run artifacts.

Two failure modes matter once runs fan out across worker processes
(:mod:`repro.runner`):

* a worker killed mid-write must never leave a *truncated* report JSON
  behind — :func:`atomic_write_text` stages the document in a sibling
  temp file and publishes it with ``os.replace``, so readers only ever
  see the old or the new complete document;
* concurrent appenders must never *interleave* partial lines in a
  shared JSONL log — :func:`locked_append_line` issues each record as
  a single ``O_APPEND`` write under an ``fcntl`` exclusive lock, so
  ``trajectory.jsonl`` stays one well-formed JSON document per line no
  matter how many processes append at once.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict

try:  # POSIX only; on other platforms appends fall back to O_APPEND alone.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]


def atomic_write_text(path: str, text: str) -> str:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lands in the destination directory so the final
    rename never crosses a filesystem boundary; on any error the temp
    file is removed and nothing at ``path`` changes.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        mode="w",
        dir=directory,
        prefix=os.path.basename(path) + ".",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    return path


def locked_append_line(path: str, line: str) -> str:
    """Append ``line`` (newline added) to ``path`` as one atomic record.

    The record is encoded first and issued as a *single* ``os.write``
    on an ``O_APPEND`` descriptor, under an ``fcntl`` exclusive lock
    where available — concurrent appenders serialise instead of
    interleaving bytes mid-line.
    """
    if "\n" in line:
        raise ValueError("JSONL records must be single lines")
    payload = (line + "\n").encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            remaining = payload
            while remaining:
                remaining = remaining[os.write(fd, remaining):]
        finally:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)
    return path


def append_jsonl(path: str, entry: Dict[str, object]) -> str:
    """Append one dict to a JSONL log via :func:`locked_append_line`."""
    return locked_append_line(path, json.dumps(entry, sort_keys=True))
