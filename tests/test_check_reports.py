"""The ``e2e-run`` check of ``benchmarks/check_reports.py``, which CI
runs on the saved output of each full-scale e2e run."""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "check_reports.py"


@pytest.fixture(scope="module")
def check_reports():
    spec = importlib.util.spec_from_file_location("check_reports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(tmp_path, summary):
    path = tmp_path / "run.out"
    path.write_text("a table line\n" + json.dumps(summary) + "\n")
    return str(path)


def test_passes_a_correct_run_with_no_failure(check_reports, tmp_path, capsys):
    path = write_run(tmp_path, {"correct": True, "attempted": 5, "failed": 0})
    assert check_reports.main(["e2e-run", path]) == 0
    assert capsys.readouterr().out.startswith("ok: 5 operations")


@pytest.mark.parametrize(
    "summary",
    [
        {"correct": False, "attempted": 5, "failed": 0},
        {"correct": 1, "attempted": 5, "failed": 0},
        {"correct": True, "attempted": 5, "failed": 2},
    ],
)
def test_fails_an_incorrect_or_failed_run(check_reports, tmp_path, summary):
    with pytest.raises(AssertionError):
        check_reports.main(["e2e-run", write_run(tmp_path, summary)])


@pytest.mark.parametrize("argv", [["e2e-run"], ["e1", "extra"], ["nope"]])
def test_bad_usage_exits_2(check_reports, argv):
    assert check_reports.main(argv) == 2
