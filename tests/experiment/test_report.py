"""ExperimentReport aggregation and schema validation — including the
regression contract that a fault scheduled past the run window surfaces
as pending and is counted, never silently dropped."""

import copy

import pytest

from repro.experiment import (
    EXPERIMENTS,
    Experiment,
    RunRecord,
    validate_experiment_report,
)


@pytest.fixture(scope="module")
def pending_fault_report(tmp_path_factory):
    """One tiny study whose agent-crash fault is scheduled far past the
    run window (crash_at >> duration), so it can never fire."""
    out_dir = tmp_path_factory.mktemp("pending") / "study"
    exp = Experiment(
        EXPERIMENTS.get("skew-degradation"),
        grid={"skew_ms": [0.0]},
        reps=2,
        extra_knobs={"crash_host": "h1_0", "crash_at": 1.0},
    )
    report = exp.execute(out_dir)
    assert report is not None
    return out_dir, report


class TestPendingFaults:
    def test_pending_fault_surfaces_in_run_artifacts(
        self, pending_fault_report
    ):
        out_dir, _ = pending_fault_report
        import json

        for path in sorted((out_dir / "runs").glob("point*.json")):
            doc = json.loads(path.read_text(encoding="utf-8"))
            plan = doc["result"]["measurements"]["fault_plan"]
            assert any(line.endswith("[pending]") for line in plan), plan

    def test_pending_fault_counted_by_aggregation(
        self, pending_fault_report
    ):
        """A never-fired fault must show up in the per-run records, the
        per-point aggregate, and the summary — not vanish."""
        _, report = pending_fault_report
        doc = report.to_json()
        assert validate_experiment_report(doc) == []
        assert all(run["pending_faults"] >= 1 for run in doc["runs"])
        point = doc["points"][0]
        assert point["pending_faults"] == sum(
            run["pending_faults"] for run in doc["runs"]
        )
        assert doc["summary"]["pending_faults"] == point["pending_faults"]
        assert doc["summary"]["pending_faults"] >= 2

    def test_armed_fault_is_not_pending(self, tmp_path):
        """The control: the same fault scheduled inside the window heals
        and contributes zero to the pending count."""
        exp = Experiment(
            EXPERIMENTS.get("skew-degradation"),
            grid={"skew_ms": [0.0]},
            reps=1,
            extra_knobs={"crash_host": "h1_0", "crash_at": 0.005},
        )
        report = exp.execute(tmp_path)
        assert report.to_json()["summary"]["pending_faults"] == 0


class TestRunRecord:
    def test_ok_requires_no_error_and_correct_diagnosis(self):
        record = RunRecord(
            point=0, rep=0, params={}, seed=1, diagnosis_ok=True
        )
        assert record.ok
        assert not RunRecord(
            point=0, rep=0, params={}, seed=1,
            diagnosis_ok=True, error="boom",
        ).ok
        assert not RunRecord(
            point=0, rep=0, params={}, seed=1, diagnosis_ok=False
        ).ok


class TestValidator:
    @pytest.fixture(scope="class")
    def valid_doc(self, tmp_path_factory):
        exp = Experiment(
            EXPERIMENTS.get("skew-degradation"),
            grid={"skew_ms": [0.0]},
            reps=1,
        )
        report = exp.execute(tmp_path_factory.mktemp("valid") / "study")
        return report.to_json()

    def test_valid_report_passes(self, valid_doc):
        assert validate_experiment_report(valid_doc) == []

    def test_unknown_top_level_field_rejected(self, valid_doc):
        doc = copy.deepcopy(valid_doc)
        doc["surprise"] = 1
        assert any(
            problem.startswith("unknown field 'surprise'")
            for problem in validate_experiment_report(doc)
        )

    def test_unknown_run_field_rejected(self, valid_doc):
        doc = copy.deepcopy(valid_doc)
        doc["runs"][0]["directory_fp"] = 0.0
        (problem,) = validate_experiment_report(doc)
        assert problem.startswith("unknown field 'runs[0].directory_fp'")
        assert "directory_fpr" in problem  # the allowed list names the fix

    def test_missing_field_rejected(self, valid_doc):
        doc = copy.deepcopy(valid_doc)
        del doc["grid"]
        assert any(
            "grid" in problem
            for problem in validate_experiment_report(doc)
        )

    def test_bool_is_not_an_int(self, valid_doc):
        doc = copy.deepcopy(valid_doc)
        doc["runs"][0]["seed"] = True
        assert any(
            "seed" in problem
            for problem in validate_experiment_report(doc)
        )

    def test_stat_triple_enforced(self, valid_doc):
        doc = copy.deepcopy(valid_doc)
        del doc["points"][0]["accuracy"]["min"]
        assert validate_experiment_report(doc) == [
            "missing field 'points[0].accuracy.min'"
        ]

    def test_summary_consistency_enforced(self, valid_doc):
        doc = copy.deepcopy(valid_doc)
        doc["summary"]["runs"] += 1
        assert any(
            "disagrees" in problem
            for problem in validate_experiment_report(doc)
        )

    def test_wrong_schema_id_rejected(self, valid_doc):
        doc = copy.deepcopy(valid_doc)
        doc["schema"] = "switchpointer.experiment-report/v0"
        assert any(
            "unknown schema" in problem
            for problem in validate_experiment_report(doc)
        )

    def test_report_excludes_wall_clock(self, valid_doc):
        """The byte-identical-resume contract: nothing host-dependent
        crosses from the run artifacts into the report."""
        for run in valid_doc["runs"]:
            assert "wall_time_s" not in run
            assert "phase_s" not in run
            assert "ingest_records_per_s" not in run
