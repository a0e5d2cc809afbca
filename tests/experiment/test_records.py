"""The report table: run artifacts wrapping PointResults, the
ExperimentReport they fold into, schema validation, and the
schema-string pins that make adding a field an explicit version bump."""

import json

import pytest

from repro.experiment.records import PointResult
from repro.experiment.report import (
    ExperimentReport,
    RunArtifact,
    aggregate_runs,
    validate_experiment_report,
)


def make_points() -> list[PointResult]:
    return [
        PointResult(
            index=i,
            params={"hosts": 64 * (i + 1)},
            knobs={"hosts": 64 * (i + 1), "min_fan_in": 4},
            seed=1000 + i,
            diagnosis_ok=(i != 1),
            problems=["incast"] if i != 1 else [],
            suspects=["leaf0"] if i != 1 else [],
            wall_time_s=0.25 + i,
            phase_s={"build": 0.1, "run": 0.1},
            sim_time_s=0.06,
            flow_count=200 * (i + 1),
            peak_records=9,
            total_records=9,
            evicted_records=0,
            ingest_records_per_s=1500.5,
            measurements={"alerts": 1},
            error=None if i != 2 else "ValueError: boom",
        )
        for i in range(3)
    ]


def make_artifacts() -> list[dict]:
    return [
        RunArtifact(
            experiment="incast",
            point=point.index,
            rep=0,
            params=point.params,
            seed=point.seed,
            result=point,
        ).to_json()
        for point in make_points()
    ]


def make_report() -> ExperimentReport:
    """A one-repetition table over three points: what a scale sweep
    writes."""
    return aggregate_runs(
        experiment="incast",
        scenario="incast",
        expect_problem="incast",
        base_seed=1729,
        reps=1,
        grid={"hosts": [64, 128, 192]},
        artifacts=make_artifacts(),
    )


class TestRoundTrip:
    def test_to_json_is_schema_valid(self):
        assert validate_experiment_report(make_report().to_json()) == []

    def test_json_serializable(self):
        text = json.dumps(make_report().to_json())
        assert validate_experiment_report(json.loads(text)) == []

    def test_summary_counts(self):
        summary = make_report().summary
        assert summary["runs"] == summary["points"] == 3
        assert summary["ok_runs"] == 1  # run 1 misdiagnosed, run 2 errored
        assert summary["errors"] == 1

    def test_ok_requires_no_error_and_correct_diagnosis(self):
        points = make_points()
        assert points[0].ok
        assert not points[1].ok
        assert not points[2].ok
        assert [run.ok for run in make_report().runs] == [True, False, False]


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_experiment_report([]) != []
        assert validate_experiment_report(None) != []

    def test_rejects_missing_top_field(self):
        doc = make_report().to_json()
        del doc["grid"]
        assert any("grid" in e for e in validate_experiment_report(doc))

    def test_rejects_wrong_schema_id(self):
        doc = make_report().to_json()
        doc["schema"] = "something/v0"
        assert validate_experiment_report(doc) != []

    def test_rejects_corrupt_point(self):
        doc = make_artifacts()[1]
        del doc["result"]["wall_time_s"]
        assert any("result.wall_time_s" in e for e in RunArtifact.check(doc, ""))

    def test_rejects_bool_masquerading_as_int(self):
        doc = make_report().to_json()
        doc["runs"][0]["peak_records"] = True
        assert any("peak_records" in e for e in validate_experiment_report(doc))

    def test_rejects_out_of_order_indices(self):
        doc = make_report().to_json()
        doc["points"].reverse()
        errors = validate_experiment_report(doc)
        assert "points[].point must be 0..n-1 in order" in errors

    def test_rejects_summary_count_mismatch(self):
        doc = make_report().to_json()
        doc["summary"]["runs"] = 99
        assert any("summary.runs" in e for e in validate_experiment_report(doc))

    def test_rejects_unknown_top_level_key_naming_it(self):
        """A typo in a hand-edited report must fail loudly, naming the
        offending key — not be silently tolerated."""
        doc = make_report().to_json()
        doc["expect_probelm"] = "incast"  # the classic transposition
        errors = validate_experiment_report(doc)
        assert any(e.startswith("unknown field 'expect_probelm'") for e in errors)

    def test_unknown_key_error_lists_allowed_fields(self):
        doc = make_report().to_json()
        doc["bogus"] = 1
        (error,) = [e for e in validate_experiment_report(doc) if "bogus" in e]
        assert "allowed:" in error
        assert "scenario" in error

    def test_rejects_unknown_point_field_naming_it(self):
        doc = make_artifacts()[1]
        doc["result"]["wall_tme_s"] = 0.5
        (error,) = RunArtifact.check(doc, "")
        assert error.startswith("unknown field 'result.wall_tme_s'")
        assert "wall_time_s" in error  # the allowed list names the fix


POINT_RESULT = [
    "diagnosis_latency_sim_s", "diagnosis_ok", "error", "evicted_records",
    "flow_count", "freshness", "index", "ingest_records_per_s", "knobs",
    "measurements", "ok", "params", "peak_records", "phase_s", "problems",
    "seed", "sim_time_s", "suspects", "total_records", "wall_time_s",
]

#: Each schema string pinned to the field names its records declare,
#: nested records included.  Adding, removing or renaming a field fails
#: this test until the pin changes — and the pin changes under a new
#: schema string, so a reader never meets two shapes under one name.
PINNED = {
    "switchpointer.experiment-report/v3": {
        "ExperimentReport": [
            "base_seed", "expect_problem", "experiment", "grid", "points",
            "reps", "runs", "scenario", "schema", "summary",
        ],
        "RunRecord": [
            "diagnosis_latency_sim_s", "diagnosis_ok", "directory_fpr",
            "error", "flow_count", "freshness", "ok", "params",
            "peak_records", "pending_faults", "point", "problems", "rep",
            "seed", "sim_time_s", "suspects",
        ],
        "PointAggregate": [
            "accuracy", "diagnosis_latency_sim_s", "directory_fpr",
            "errors", "freshness", "knobs", "params", "peak_records",
            "pending_faults", "point", "reps", "sim_time_s",
        ],
        "Stats": ["max", "mean", "min"],
    },
    "switchpointer.experiment-run/v1": {
        "RunArtifact": [
            "experiment", "params", "point", "rep", "result", "schema",
            "seed",
        ],
        "PointResult": POINT_RESULT,
    },
}


def declared(record, out=None):
    """record name -> sorted field names, for it and every nested record."""
    out = {} if out is None else out
    columns = record.columns()
    out[record.__name__] = sorted(columns)
    for column in columns.values():
        if column.record is not None:
            declared(column.record, out)
    return out


class TestSchemaTable:
    def test_schema_strings_pin_their_fields(self):
        documents = (ExperimentReport, RunArtifact)
        assert {doc.SCHEMA: declared(doc) for doc in documents} == PINNED

    def test_undeclared_attribute_raises(self):
        """slots: a field the table does not declare cannot be written,
        so it can never silently miss the report."""
        point = make_points()[0]
        with pytest.raises(AttributeError):
            point.bogus = 1
