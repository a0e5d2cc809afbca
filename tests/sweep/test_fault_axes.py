"""Fault-axis sweeps and explicit nightly points.

Covers the acceptance bar directly: a partial-deployment sweep point at
deploy_frac < 1.0 must land in a schema-valid report, and the combined
top-end point rides the incast-scale nightly run table as an explicit
extra point (seeded like any other) rather than a full cross product.
"""

import pytest

from repro.experiment import ExperimentError, validate_experiment_report
from repro.sweep import SWEEPS, SweepError, SweepSpec


class TestFaultAxisRegistry:
    def test_fault_axis_sweeps_registered(self):
        for name in ("partial-deployment", "clock-skew", "multi-fault"):
            assert name in SWEEPS

    def test_partial_deployment_binds_deploy_frac(self):
        spec = SWEEPS.get("partial-deployment")
        assert spec.axes["deploy"] == "deploy_frac"
        assert any(v < 1.0 for v in spec.nightly_grid["deploy"])

    def test_clock_skew_binds_skew_ms(self):
        spec = SWEEPS.get("clock-skew")
        assert spec.axes["skew_ms"] == "skew_ms"

    def test_multi_fault_axis_varies_fault_count(self):
        spec = SWEEPS.get("multi-fault")
        counts = {v.count("+") + 1
                  for v in spec.default_grid["faults"]}
        assert len(counts) > 1     # one- and two-fault points


class TestPartialDeploymentSweep:
    def test_deploy_lt_one_point_in_schema_valid_report(
            self, sweep_table, run_artifacts, tmp_path):
        report = sweep_table(
            "partial-deployment", {"deploy": [1.0, 0.75]}
        ).execute(tmp_path, workers=1)
        assert validate_experiment_report(report.to_json()) == []
        partial = next(doc["result"] for doc in run_artifacts(tmp_path)
                       if doc["params"]["deploy"] == 0.75)
        # the point reports its diagnosis accuracy and the mask it drew
        assert partial["diagnosis_ok"] is True
        assert partial["knobs"]["deploy_frac"] == 0.75
        assert partial["measurements"]["uninstrumented_switches"]
        assert report.summary["ok_runs"] == report.summary["runs"]


class TestMultiFaultSweep:
    def test_two_fault_point_counts_only_full_attribution(
            self, sweep_table, tmp_path):
        report = sweep_table(
            "multi-fault", {"faults": ["silent-drop+ecmp-polarization"]}
        ).execute(tmp_path, workers=1)
        run = report.runs[0]
        assert run.diagnosis_ok
        assert "multi-fault" in run.problems
        assert "gray-failure" in run.problems
        assert "ecmp-polarization" in run.problems


class TestNightlyPoints:
    def test_extra_points_append_after_the_grid(self, sweep_table):
        spec = SWEEPS.get("incast-scale")
        assert spec.nightly_points == (
            {"hosts": 4096, "flows": 2000},
            {"hosts": 65536, "flows": 100000},
        )
        experiment = sweep_table(
            "incast-scale", {"hosts": [64], "flows": [200]},
            extra_points=[{"hosts": 128, "flows": 300}])
        assert [run.params for run in experiment.runs] == [
            {"hosts": 64, "flows": 200}, {"hosts": 128, "flows": 300}]
        assert [run.point for run in experiment.runs] == [0, 1]

    def test_extra_point_is_seeded_like_any_other(self, sweep_table):
        """An extra point's seed is its canonical (params, rep) seed —
        the same one it gets as a point of the cartesian grid."""
        extra = sweep_table("incast-scale", {"hosts": [64]},
                            extra_points=[{"hosts": 128, "flows": 300}])
        gridded = sweep_table("incast-scale",
                              {"hosts": [128], "flows": [300]})
        assert extra.runs[1].seed == gridded.runs[0].seed

    def test_extra_point_axes_resolve_to_knobs(self, sweep_table):
        experiment = sweep_table("incast-scale", {"hosts": [64]},
                                 extra_points=[{"hosts": 128, "flows": 300}])
        knobs = experiment.knobs[1]
        assert knobs["hosts"] == 128 and knobs["bg_flows"] == 300

    def test_budget_note_declared_for_the_top_end(self):
        spec = SWEEPS.get("incast-scale")
        assert spec.budget_note and "4096" in spec.budget_note
        assert "65536" in spec.budget_note and "100000" in spec.budget_note

    def test_registration_rejects_undeclared_point_axis(self):
        with pytest.raises(SweepError, match="nightly_points"):
            SWEEPS.register(SweepSpec(
                scenario="incast", name="bad-points",
                summary="s", expect_problem="incast",
                axes={"hosts": "hosts"},
                default_grid={"hosts": (64,)},
                nightly_grid={"hosts": (64,)},
                nightly_points=({"flows": 10},),
            ))

    def test_extra_point_knob_clash_with_pinned_knob(self, sweep_table):
        with pytest.raises(ExperimentError, match="override swept axis"):
            sweep_table("incast-scale", {"hosts": [64]},
                        extra_knobs={"bg_flows": 5},
                        extra_points=[{"flows": 300}])

    def test_extra_point_unknown_axis_rejected(self, sweep_table):
        with pytest.raises(ExperimentError, match="unknown axis 'bogus'"):
            sweep_table("incast-scale", {"hosts": [64]},
                        extra_points=[{"bogus": 1}])
