"""Tests for crash-safe report IO: atomic writes, locked appends.

The concurrency stress is the reproducer for the trajectory-corruption
bug: several processes appending to one JSONL log through plain
``open(path, "a")`` + ``write()`` can interleave partial lines.  The
``locked_append_line`` path (single ``O_APPEND`` write under an
advisory lock) must keep every line intact under the same pressure.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.obs.fileio import (
    append_jsonl,
    atomic_write_text,
    locked_append_line,
)


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(str(path), '{"a": 1}\n')
        assert path.read_text() == '{"a": 1}\n'

    def test_overwrites_previous(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(str(path), "old\n")
        atomic_write_text(str(path), "new\n")
        assert path.read_text() == "new\n"

    def test_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(str(path), "x\n")
        assert os.listdir(tmp_path) == ["out.json"]

    def test_failure_preserves_previous_content(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(str(path), "precious\n")
        with pytest.raises(TypeError):
            atomic_write_text(str(path), None)
        assert path.read_text() == "precious\n"


class TestLockedAppend:
    def test_appends_lines(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        locked_append_line(path, "one")
        locked_append_line(path, "two")
        assert open(path).read() == "one\ntwo\n"

    def test_rejects_embedded_newline(self, tmp_path):
        with pytest.raises(ValueError):
            locked_append_line(str(tmp_path / "log"), "a\nb")

    def test_append_jsonl_round_trips(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        entries = [{"n": index, "payload": "x" * index} for index in range(5)]
        for entry in entries:
            append_jsonl(path, entry)
        with open(path) as handle:
            loaded = [json.loads(line) for line in handle]
        assert loaded == entries


_APPENDER = """
import json, sys
from repro.obs.fileio import append_jsonl
path, worker, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
for index in range(count):
    append_jsonl(path, {"worker": worker, "index": index, "pad": "x" * 400})
"""


class TestConcurrentAppend:
    def test_four_concurrent_appenders_zero_torn_lines(self, tmp_path):
        # The acceptance criterion: 4 processes, interleaved appends,
        # every line parses and every entry arrives exactly once.
        path = str(tmp_path / "trajectory.jsonl")
        workers, per_worker = 4, 100
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _APPENDER, path, str(n), str(per_worker)],
                env=env,
            )
            for n in range(workers)
        ]
        assert all(proc.wait(timeout=120) == 0 for proc in procs)

        # json.loads raises on any torn or interleaved line.
        with open(path) as handle:
            entries = [json.loads(line) for line in handle]
        assert len(entries) == workers * per_worker
        seen = {(entry["worker"], entry["index"]) for entry in entries}
        assert len(seen) == workers * per_worker, "lost or duplicated lines"
        assert all(entry["pad"] == "x" * 400 for entry in entries)
