"""Function census hook: record which ``src/repro`` functions run.

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that has one, so putting this directory first on ``PYTHONPATH``
arms the hook in every interpreter a command starts, child processes
included::

    PYTHONPATH=benchmarks/census:src python -m pytest benchmarks -q --quick

A ``sys.setprofile`` hook records the code object of every call (the
simulator runs no threads, so the main thread's hook sees them all).
At exit the process writes the ``module:qualname`` keys of the
``src/repro`` functions it called to
``benchmarks/results/census/<pid>.json``; ``report.py`` merges them.
A process that leaves through ``os._exit`` writes nothing, and a
spawn-pool worker may be terminated by its pool while it writes: the
file is written under a temporary name and renamed into place, so a
killed writer leaves no empty or cut-off ``.json`` behind.

A profiler replaces this hook while it runs (cProfile, or
pytest-benchmark's timing loop unless ``--benchmark-disable`` is
given), so calls made under another profiler are not seen.
"""

import atexit
import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
_SRC = os.path.join(_ROOT, "src") + os.sep
_PACKAGE = os.path.join(_SRC, "repro") + os.sep
_OUT = os.path.join(_ROOT, "benchmarks", "results", "census")

_seen = set()


def _record(frame, event, _arg):
    if event == "call":
        _seen.add(frame.f_code)


def _key(code):
    path = code.co_filename[len(_SRC):-len(".py")]
    module = path.replace(os.sep, ".")
    if module.endswith(".__init__"):
        module = module[: -len(".__init__")]
    return f"{module}:{code.co_qualname}"


def _write():
    sys.setprofile(None)
    called = sorted({
        _key(code) for code in list(_seen)
        if code.co_filename.startswith(_PACKAGE)
        and code.co_filename.endswith(".py")
    })
    os.makedirs(_OUT, exist_ok=True)
    path = os.path.join(_OUT, f"{os.getpid()}.json")
    with open(path + ".tmp", "w") as handle:
        json.dump({"called": called}, handle)
    os.replace(path + ".tmp", path)


atexit.register(_write)
sys.setprofile(_record)
