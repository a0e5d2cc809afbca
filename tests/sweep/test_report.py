"""SweepReport JSON round-trip and schema validation."""

import json

from repro.sweep import PointResult, SweepReport, validate_report


def make_report() -> SweepReport:
    points = [
        PointResult(
            index=i,
            params={"hosts": 64 * (i + 1)},
            knobs={"hosts": 64 * (i + 1), "ingest_batch": 16},
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
    return SweepReport(
        sweep="incast",
        scenario="incast",
        expect_problem="incast",
        base_seed=1729,
        workers=2,
        grid={"hosts": [64, 128, 192]},
        points=points,
        wall_time_s=2.0,
    )


class TestRoundTrip:
    def test_to_json_is_schema_valid(self):
        assert validate_report(make_report().to_json()) == []

    def test_json_serializable(self):
        text = json.dumps(make_report().to_json())
        assert validate_report(json.loads(text)) == []

    def test_from_json_round_trips(self):
        doc = make_report().to_json()
        again = SweepReport.from_json(doc).to_json()
        assert again == doc

    def test_summary_counts(self):
        summary = make_report().summary()
        assert summary["points"] == 3
        assert summary["ok"] == 1  # point 1 misdiagnosed, point 2 errored
        assert summary["diagnosis_failures"] == 1
        assert summary["errors"] == 1
        assert summary["max_flow_count"] == 600

    def test_ok_requires_no_error_and_correct_diagnosis(self):
        report = make_report()
        assert report.points[0].ok
        assert not report.points[1].ok
        assert not report.points[2].ok
        assert not report.all_ok


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_report([]) != []
        assert validate_report(None) != []

    def test_rejects_missing_top_field(self):
        doc = make_report().to_json()
        del doc["grid"]
        assert any("grid" in e for e in validate_report(doc))

    def test_rejects_wrong_schema_id(self):
        doc = make_report().to_json()
        doc["schema"] = "something/v0"
        assert validate_report(doc) != []

    def test_rejects_corrupt_point(self):
        doc = make_report().to_json()
        del doc["points"][1]["wall_time_s"]
        assert any("wall_time_s" in e for e in validate_report(doc))

    def test_rejects_bool_masquerading_as_int(self):
        doc = make_report().to_json()
        doc["points"][0]["peak_records"] = True
        assert any("peak_records" in e for e in validate_report(doc))

    def test_rejects_out_of_order_indices(self):
        doc = make_report().to_json()
        doc["points"].reverse()
        assert any("indices" in e for e in validate_report(doc))

    def test_rejects_summary_count_mismatch(self):
        doc = make_report().to_json()
        doc["summary"]["points"] = 99
        assert any("summary.points" in e for e in validate_report(doc))

    def test_rejects_unknown_top_level_key_naming_it(self):
        """A typo in a hand-edited report must fail loudly, naming the
        offending key — not be silently tolerated."""
        doc = make_report().to_json()
        doc["expect_probelm"] = "incast"  # the classic transposition
        errors = validate_report(doc)
        assert any("unknown top-level field 'expect_probelm'" in e
                   for e in errors)

    def test_unknown_key_error_lists_allowed_fields(self):
        doc = make_report().to_json()
        doc["bogus"] = 1
        (error,) = [e for e in validate_report(doc) if "bogus" in e]
        assert "allowed:" in error
        assert "scenario" in error
