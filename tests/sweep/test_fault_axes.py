"""Fault-axis sweeps and explicit nightly points.

Covers the acceptance bar directly: a partial-deployment sweep point at
deploy_frac < 1.0 must land in a schema-valid SweepReport, and the
combined top-end point rides the incast-scale nightly grid as an
explicit extra point rather than a full cross product.
"""

import pytest

from repro.sweep import (SWEEPS, Sweep, SweepError, SweepSpec,
                         validate_report)


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
    def test_deploy_lt_one_point_in_schema_valid_report(self):
        spec = SWEEPS.get("partial-deployment")
        sweep = Sweep(spec, {"deploy": [1.0, 0.75]}, workers=1)
        report = sweep.run()
        doc = report.to_json()
        assert validate_report(doc) == []
        partial = next(p for p in doc["points"]
                       if p["params"]["deploy"] == 0.75)
        # the point reports its diagnosis accuracy and the mask it drew
        assert partial["diagnosis_ok"] is True
        assert partial["knobs"]["deploy_frac"] == 0.75
        assert partial["measurements"]["uninstrumented_switches"]
        assert report.all_ok


class TestMultiFaultSweep:
    def test_two_fault_point_counts_only_full_attribution(self):
        spec = SWEEPS.get("multi-fault")
        sweep = Sweep(spec,
                      {"faults": ["silent-drop+ecmp-polarization"]},
                      workers=1)
        report = sweep.run()
        point = report.points[0]
        assert point.diagnosis_ok
        assert "multi-fault" in point.problems
        assert "gray-failure" in point.problems
        assert "ecmp-polarization" in point.problems


class TestNightlyPoints:
    def test_extra_points_append_after_the_grid(self):
        spec = SWEEPS.get("incast-scale")
        assert spec.nightly_points == (
            {"hosts": 4096, "flows": 2000},
            {"hosts": 65536, "flows": 100000},
        )
        sweep = Sweep(spec, {"hosts": [64], "flows": [200]},
                      workers=1,
                      extra_points=[{"hosts": 128, "flows": 300}])
        assert sweep.params == [{"hosts": 64, "flows": 200},
                                {"hosts": 128, "flows": 300}]

    def test_extra_point_axes_resolve_to_knobs(self):
        spec = SWEEPS.get("incast-scale")
        sweep = Sweep(spec, {"hosts": [64]}, workers=1,
                      extra_points=[{"hosts": 128, "flows": 300}])
        knobs = sweep.payloads[1][1]
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

    def test_extra_point_knob_clash_with_pinned_knob(self):
        spec = SWEEPS.get("incast-scale")
        with pytest.raises(Exception, match="override swept axis"):
            Sweep(spec, {"hosts": [64]}, workers=1,
                  extra_knobs={"bg_flows": 5},
                  extra_points=[{"flows": 300}])
