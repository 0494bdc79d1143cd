"""Tests for the matrix orchestrator: replay identity, merge, failures.

The load-bearing invariant here is **cross-process replay
equivalence**: a job executed in a spawn worker must produce the same
report, byte for byte, as the same job executed in this process.  That
is what makes pooled matrix results interchangeable with serial ones —
and it is exactly the invariant the message-id scoping bug broke
(``net.message._message_ids`` is process-global, so a worker's second
job used to see ids offset by its first job's history).
"""

import itertools
import json
import random

import pytest

from repro.runner import (
    RunMatrix,
    execute_job,
    merge_matrix_report,
    report_bytes,
    resolve_scenario,
    run_matrix,
)

#: Small-fleet chaos params so each job stays in the low milliseconds.
FAST = {"clients": 2, "servers": 1, "requests_per_client": 2}


def _fast_matrix(name="m", seeds=(0, 1), scenarios=("chaos",)):
    return RunMatrix(
        name=name, scenarios=scenarios, seeds=seeds, params=dict(FAST)
    )


# A deliberately nondeterministic scenario: each call returns a fresh
# counter value, so any strict replay must mismatch.  Referenced by
# dotted path to exercise the module:callable resolution too.
_NONDET_CALLS = itertools.count()


def nondet_job(seed, plan=None, **params):
    return {
        "schema": 3,
        "name": "nondet",
        "created_at": 0.0,
        "env": {},
        "params": {},
        "metrics": {"nondet.calls": float(next(_NONDET_CALLS))},
        "kind_counts": {},
        "spans": [],
        "series": None,
    }


def not_a_report_job(seed, plan=None, **params):
    return ["not", "a", "dict"]


class TestExecuteJob:
    def test_ok_payload_is_report_dict(self):
        key, status, payload = execute_job(
            {"scenario": "chaos", "seed": 3, "params": dict(FAST)}
        )
        assert (key, status) == ("chaos/default/s3", "ok")
        assert payload["schema"] == 3
        assert "chaos.completion_rate" in payload["metrics"]

    def test_same_process_residue_free(self):
        # The reproducer for the message-id bug: the second job run in
        # a process must match a job run in a fresh scope bit for bit.
        job = {"scenario": "chaos", "seed": 5, "params": dict(FAST)}
        first = execute_job(dict(job))[2]
        second = execute_job(dict(job))[2]
        assert report_bytes(first) == report_bytes(second)

    def test_exception_contained_as_error(self):
        key, status, payload = execute_job(
            {"scenario": "chaos", "seed": 0, "params": {"bogus_kwarg": 1}}
        )
        assert status == "error"
        assert "bogus_kwarg" in payload

    @pytest.mark.parametrize("scenario", ["chaos", "hostile"])
    @pytest.mark.parametrize("plan", ["default", "none"])
    def test_serverless_fleet_reported_as_value_error(self, scenario, plan):
        _key, status, payload = execute_job(
            {
                "scenario": scenario,
                "seed": 0,
                "plan": plan,
                "params": {"servers": 0},
            }
        )
        assert status == "error"
        assert payload.startswith("ValueError: servers must be >= 1")

    def test_non_dict_return_is_error(self):
        _key, status, payload = execute_job(
            {
                "scenario": "tests.runner.test_orchestrator:not_a_report_job",
                "seed": 0,
            }
        )
        assert status == "error"
        assert "RunReport dict" in payload


class TestResolveScenario:
    def test_builtin_names(self):
        assert callable(resolve_scenario("chaos"))
        assert callable(resolve_scenario("hostile"))

    def test_dotted_path(self):
        fn = resolve_scenario("tests.runner.test_orchestrator:nondet_job")
        assert fn is nondet_job

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="chaos, hostile"):
            resolve_scenario("nope")

    def test_dangling_path_raises(self):
        with pytest.raises(ModuleNotFoundError):
            resolve_scenario("no.such.module:fn")
        with pytest.raises(AttributeError):
            resolve_scenario("repro.runner:no_such_fn")


class TestSerialRun:
    def test_all_jobs_complete(self):
        result = run_matrix(_fast_matrix(seeds=(0, 1, 2)))
        assert result.ok and result.verdict == "ok"
        assert sorted(result.reports) == [
            "chaos/default/s0", "chaos/default/s1", "chaos/default/s2",
        ]
        assert result.report["metrics"]["runner.completed_jobs"] == 3.0

    def test_failures_captured_not_raised(self):
        matrix = RunMatrix(name="bad", seeds=(0,), params={"bogus": 1})
        result = run_matrix(matrix)
        assert not result.ok
        assert result.verdict == "failed"
        assert list(result.failures) == ["chaos/default/s0"]
        metrics = result.report["metrics"]
        assert metrics["runner.failures"] == 1.0
        assert metrics['runner.job_ok{job="chaos/default/s0"}'] == 0.0
        verdict = result.to_verdict()
        assert verdict["verdict"] == "failed"
        assert verdict["failures"]

    def test_strict_replay_clean_on_deterministic_scenario(self):
        result = run_matrix(_fast_matrix(), strict=True)
        assert result.ok
        assert result.replayed == 2
        assert result.report["metrics"]["runner.replay_mismatches"] == 0.0

    def test_strict_replay_flags_nondeterminism(self):
        matrix = RunMatrix(
            name="nondet",
            scenarios=("tests.runner.test_orchestrator:nondet_job",),
            seeds=(0, 1),
        )
        result = run_matrix(matrix, strict=True)
        assert not result.ok
        assert len(result.replay_mismatches) == 2
        assert result.report["metrics"]["runner.replay_mismatches"] == 2.0
        assert "REPLAY-MISMATCH" in result.render()

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError):
            run_matrix(_fast_matrix(), workers=0)


class TestPooledRun:
    """Spawn-pool paths: slower (interpreter start per worker), so the
    matrices stay tiny."""

    def test_pooled_jobs_byte_identical_to_in_process(self):
        # The acceptance criterion: a worker-pool job report is byte
        # identical to the same job executed in this process.
        matrix = _fast_matrix(seeds=(0, 1))
        pooled = run_matrix(matrix, workers=2)
        assert pooled.ok and pooled.workers == 2
        for job in matrix.jobs():
            _key, status, local = execute_job(job.to_dict())
            assert status == "ok"
            assert report_bytes(pooled.reports[job.key]) == report_bytes(
                local
            ), f"cross-process divergence for {job.key}"

    def test_merged_report_independent_of_worker_count(self):
        matrix = _fast_matrix(seeds=(2, 3))
        serial = run_matrix(matrix, workers=1)
        pooled = run_matrix(matrix, workers=2)
        assert report_bytes(serial.report) == report_bytes(pooled.report)

    def test_pool_survives_failing_job(self):
        # One seed carries a poison param via a dotted-path scenario
        # that raises inside the worker; the other jobs still land.
        matrix = RunMatrix(
            name="mixed", seeds=(0, 1, 2), params=dict(FAST)
        )
        good = run_matrix(matrix, workers=2)
        assert good.ok
        bad = RunMatrix(name="bad", seeds=(0, 1), params={"bogus": 1})
        result = run_matrix(bad, workers=2)
        assert len(result.failures) == 2
        assert not result.ok


class TestMergeDeterminism:
    def _reports(self):
        matrix = _fast_matrix(seeds=(0, 1, 2))
        result = run_matrix(matrix)
        return matrix, result.reports

    def test_merge_ignores_completion_order(self):
        matrix, reports = self._reports()
        keys = list(reports)
        merged = []
        for ordering in (keys, list(reversed(keys))):
            random.Random(17).shuffle(ordering)
            shuffled = {key: reports[key] for key in ordering}
            merged.append(merge_matrix_report(matrix, shuffled))
        assert report_bytes(merged[0]) == report_bytes(merged[1])

    def test_merge_is_schema_v3_with_job_nodes(self):
        matrix, reports = self._reports()
        document = merge_matrix_report(matrix, reports)
        assert document["schema"] == 3
        assert sorted(document["nodes"]) == sorted(reports)
        for section in document["nodes"].values():
            assert "chaos.completion_rate" in section

    def test_aggregates_cover_every_stat(self):
        matrix, reports = self._reports()
        metrics = merge_matrix_report(matrix, reports)["metrics"]
        for stat in ("min", "p50", "p90", "max", "mean"):
            assert f"agg.chaos.completion_rate.{stat}" in metrics
        assert metrics["agg.chaos.completion_rate.min"] <= metrics[
            "agg.chaos.completion_rate.max"
        ]

    def test_merged_document_is_json_clean(self):
        matrix, reports = self._reports()
        document = merge_matrix_report(matrix, reports)
        assert json.loads(json.dumps(document)) == document

    def test_sim_seconds_total_sums_jobs(self):
        matrix, reports = self._reports()
        metrics = merge_matrix_report(matrix, reports)["metrics"]
        expected = sum(
            report["env"]["sim_time"] for report in reports.values()
        )
        assert metrics["runner.sim_seconds_total"] == pytest.approx(
            expected
        )

    def test_merged_report_loads_as_checked_run_report(self, tmp_path):
        from repro.obs import RunReport

        matrix, reports = self._reports()
        document = merge_matrix_report(matrix, reports)
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(document))
        loaded = RunReport.load_checked(str(path))
        assert loaded.name == matrix.name
        assert len(loaded.nodes) == len(reports)
