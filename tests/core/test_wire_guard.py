"""Static guard: wire error payloads are shaped only in ``repro.errors``.

Walks the AST of every module under ``src/repro/core`` *and*
``src/repro/security`` and fails if any of them builds a dict literal
with an ``"error_type"`` key — the signature of hand-rolled wire
marshalling that :func:`repro.errors.to_wire` /
:func:`~repro.errors.from_wire` exist to centralise.  The security
package is guarded because :meth:`~repro.security.ExecutionContext.run`
builds the typed failures (``ExecuteResult.error_wire``) that the
REV/COD reply path ships.
"""

import ast
from pathlib import Path

import pytest

from repro.errors import WIRE_TYPE_KEY

_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
GUARDED_DIRS = (_SRC / "core", _SRC / "security")


def _offending_dicts(tree: ast.AST):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Dict):
            continue
        for key in node.keys:
            if (
                isinstance(key, ast.Constant)
                and key.value == WIRE_TYPE_KEY
            ):
                yield node


@pytest.mark.parametrize(
    "directory", GUARDED_DIRS, ids=lambda d: d.name
)
def test_guarded_dir_exists(directory):
    assert directory.is_dir(), directory


@pytest.mark.parametrize(
    "directory", GUARDED_DIRS, ids=lambda d: d.name
)
def test_no_raw_wire_payload_dicts(directory):
    offenders = []
    for path in sorted(directory.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _offending_dicts(tree):
            offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, (
        "raw {'error_type': ...} wire payload dict(s) found outside "
        f"repro.errors — use to_wire/remote_failure instead: {offenders}"
    )
