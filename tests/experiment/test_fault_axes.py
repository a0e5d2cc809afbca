"""Fault-knob sweeps and explicit nightly points.

Covers the acceptance bar directly: a partial-deployment sweep point at
deploy_frac < 1.0 must land in a schema-valid report, and the combined
top-end point rides the incast-scale nightly run table as an explicit
extra point (seeded like any other) rather than a full cross product.
"""

import pytest

from repro.experiment import EXPERIMENTS, ExperimentError, ExperimentSpec
from repro.experiment.report import validate_experiment_report
from repro.experiment.runner import Experiment
from repro.scenarios import ScenarioError


def table(name, grid=None, **kwargs):
    """A registered experiment's run table, its grid overridden."""
    return Experiment(EXPERIMENTS.get(name), grid=grid, **kwargs)


class TestFaultKnobRegistry:
    def test_fault_knob_sweeps_registered(self):
        for name in ("partial-deployment", "clock-skew", "multi-fault"):
            assert name in EXPERIMENTS

    def test_partial_deployment_varies_deploy_frac(self):
        spec = EXPERIMENTS.get("partial-deployment")
        assert any(v < 1.0 for v in spec.nightly_grid["deploy_frac"])

    def test_clock_skew_varies_skew_ms(self):
        spec = EXPERIMENTS.get("clock-skew")
        assert list(spec.grid) == ["skew_ms"]

    def test_multi_fault_grid_varies_fault_count(self):
        spec = EXPERIMENTS.get("multi-fault")
        counts = {v.count("+") + 1 for v in spec.grid["faults"]}
        assert len(counts) > 1     # one- and two-fault points


class TestPartialDeploymentSweep:
    def test_deploy_lt_one_point_in_schema_valid_report(
            self, run_artifacts, tmp_path):
        report = table(
            "partial-deployment", {"deploy_frac": [1.0, 0.75]}
        ).execute(tmp_path, workers=1)
        assert validate_experiment_report(report.to_json()) == []
        partial = next(doc["result"] for doc in run_artifacts(tmp_path)
                       if doc["params"]["deploy_frac"] == 0.75)
        # the point reports its diagnosis accuracy and the mask it drew
        assert partial["diagnosis_ok"] is True
        assert partial["knobs"]["deploy_frac"] == 0.75
        assert partial["measurements"]["uninstrumented_switches"]
        assert report.summary["ok_runs"] == report.summary["runs"]


class TestMultiFaultSweep:
    def test_two_fault_point_counts_only_full_attribution(self, tmp_path):
        report = table(
            "multi-fault", {"faults": ["silent-drop+ecmp-polarization"]}
        ).execute(tmp_path, workers=1)
        run = report.runs[0]
        assert run.diagnosis_ok
        assert "multi-fault" in run.problems
        assert "gray-failure" in run.problems
        assert "ecmp-polarization" in run.problems


class TestNightlyPoints:
    def test_extra_points_append_after_the_grid(self):
        spec = EXPERIMENTS.get("incast-scale")
        assert spec.nightly_points == (
            {"hosts": 4096, "bg_flows": 2000},
            {"hosts": 65536, "bg_flows": 100000},
        )
        experiment = table(
            "incast-scale", {"hosts": [64], "bg_flows": [200]},
            extra_points=[{"hosts": 128, "bg_flows": 300}])
        assert [run.params for run in experiment.runs] == [
            {"hosts": 64, "bg_flows": 200}, {"hosts": 128, "bg_flows": 300}]
        assert [run.point for run in experiment.runs] == [0, 1]

    def test_nightly_table_appends_the_declared_points(self):
        spec = EXPERIMENTS.get("incast-scale")
        experiment = Experiment(spec, grid=spec.nightly_grid,
                                extra_points=spec.nightly_points)
        assert [run.params for run in experiment.runs][-2:] == [
            {"hosts": 4096, "bg_flows": 2000},
            {"hosts": 65536, "bg_flows": 100000},
        ]

    def test_extra_point_is_seeded_like_any_other(self):
        """An extra point's seed is its canonical (params, rep) seed —
        the same one it gets as a point of the cartesian grid."""
        extra = table("incast-scale", {"hosts": [64]},
                      extra_points=[{"hosts": 128, "bg_flows": 300}])
        gridded = table("incast-scale", {"hosts": [128], "bg_flows": [300]})
        assert extra.runs[1].seed == gridded.runs[0].seed

    def test_extra_point_knobs_join_the_table(self):
        experiment = table("incast-scale", {"hosts": [64]},
                           extra_points=[{"hosts": 128, "bg_flows": 300}])
        knobs = experiment.knobs[1]
        assert knobs["hosts"] == 128 and knobs["bg_flows"] == 300

    def test_budget_note_declared_for_the_top_end(self):
        spec = EXPERIMENTS.get("incast-scale")
        assert spec.budget_note and "4096" in spec.budget_note
        assert "65536" in spec.budget_note and "100000" in spec.budget_note

    def test_registration_rejects_undeclared_point_knob(self):
        with pytest.raises(ExperimentError, match=(
                r"experiment 'bad-points': unknown knob\(s\) for "
                r"'incast': \['flows'\]")):
            EXPERIMENTS.register(ExperimentSpec(
                scenario="incast", name="bad-points",
                summary="s", expect_problem="incast",
                grid={"hosts": (64,)},
                nightly_points=({"flows": 10},),
            ))

    def test_extra_point_unknown_knob_rejected(self):
        with pytest.raises(ScenarioError,
                           match=r"unknown knob\(s\) .*\['bogus'\]"):
            table("incast-scale", {"hosts": [64]},
                  extra_points=[{"bogus": 1}])
