"""Check the function census against its allow-list.

Run from the repository root after the census commands (``run.sh``)::

    python benchmarks/census/report.py

The universe is every function, method and lambda compiled from
``src/repro`` (comprehensions excluded), keyed ``module:qualname``;
code objects that share a key (a property's getter and setter, two
lambdas in one function) count as one entry.  The called set is the
union of the ``benchmarks/results/census/*.json`` files that
``sitecustomize.py`` writes.  ``allow.txt`` holds one
``module:qualname  reason`` entry per line.

Exits 1, listing the offending keys, when a function is neither called
nor allow-listed, when an allow-listed function was called (the entry
is stale), or when an entry names no function in ``src/repro``.
"""

import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
CENSUS_DIR = os.path.join(ROOT, "benchmarks", "results", "census")
ALLOW = os.path.join(HERE, "allow.txt")

#: Set on function code objects, never on module or class bodies.
_CO_NEWLOCALS = 0x0002
_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def module_name(path):
    module = os.path.relpath(path, SRC)[: -len(".py")].replace(os.sep, ".")
    return module[: -len(".__init__")] if module.endswith(".__init__") else module


def functions():
    """``{key: line count}`` of every function in ``src/repro``."""
    found = {}
    pattern = os.path.join(SRC, "repro", "**", "*.py")
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path, encoding="utf-8") as handle:
            code = compile(handle.read(), path, "exec")
        module = module_name(path)
        stack = [code]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            if not code.co_flags & _CO_NEWLOCALS:
                continue
            if code.co_name in _COMPREHENSIONS:
                continue
            lines = [line for _s, _e, line in code.co_lines() if line]
            key = f"{module}:{code.co_qualname}"
            span = max(lines) - code.co_firstlineno + 1 if lines else 1
            found[key] = found.get(key, 0) + span
    return found


def called():
    keys = set()
    files = glob.glob(os.path.join(CENSUS_DIR, "*.json"))
    for path in files:
        with open(path, encoding="utf-8") as handle:
            keys.update(json.load(handle)["called"])
    return keys, len(files)


def allowed():
    """``{key: reason}`` from ``allow.txt``; a line without a reason
    is an error."""
    entries = {}
    with open(ALLOW, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            key, _, reason = text.partition(" ")
            if not reason.strip():
                raise SystemExit(f"allow.txt:{number}: {key} has no reason")
            if key in entries:
                raise SystemExit(f"allow.txt:{number}: {key} listed twice")
            entries[key] = reason.strip()
    return entries


def main():
    universe = functions()
    seen, processes = called()
    if not processes:
        print(f"no census output under {CENSUS_DIR}: run run.sh first")
        return 1
    allow = allowed()
    uncalled = sorted(set(universe) - seen)
    missing = [key for key in uncalled if key not in allow]
    stale = sorted(key for key in allow if key in seen)
    unknown = sorted(key for key in allow if key not in universe)
    print(
        f"census: {len(universe)} functions in src/repro, "
        f"{len(universe) - len(uncalled)} called across {processes} "
        f"processes, {len(uncalled)} uncalled "
        f"({sum(universe[key] for key in uncalled)} lines), "
        f"{len(allow)} allow-listed"
    )
    for title, keys in (
        ("uncalled and not allow-listed (call it, delete it, or add "
         "'<key>  <reason>' to allow.txt)", missing),
        ("allow-listed but called (delete the entry)", stale),
        ("allow-listed but not a function in src/repro", unknown),
    ):
        if keys:
            print(f"\n{title}:")
            for key in keys:
                print(f"  {key}")
    return 1 if missing or stale or unknown else 0


if __name__ == "__main__":
    sys.exit(main())
