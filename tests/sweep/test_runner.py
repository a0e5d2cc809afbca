"""Sweep runner: registry resolution, execution, parallel equivalence."""

import pytest

from repro.sweep import (
    SWEEPS,
    GridError,
    Sweep,
    SweepError,
    execute_point,
    point_seed,
)

FAST = {"duration": 0.02, "burst_start": 0.008}


class TestRegistry:
    def test_sweeps_registered_next_to_scenarios(self):
        for name in ("incast", "incast-scale", "gray-failure",
                     "polarization", "link-flap"):
            assert name in SWEEPS
        assert len(SWEEPS) >= 5

    def test_several_sweeps_may_share_a_scenario(self):
        """incast-scale is a second sweep of the incast scenario, along
        the traffic axis instead of the fabric axis."""
        fabric = SWEEPS.get("incast")
        traffic = SWEEPS.get("incast-scale")
        assert fabric.scenario == traffic.scenario == "incast"
        assert fabric.name != traffic.name
        assert traffic.knobs_for({"flows": 2000})["bg_flows"] == 2000

    def test_unknown_sweep_rejected(self):
        with pytest.raises(SweepError, match="unknown sweep 'no-such-sweep'"):
            SWEEPS.get("no-such-sweep")

    def test_duplicate_name_rejected(self):
        from repro.sweep.registry import SweepSpec

        with pytest.raises(SweepError, match="duplicate sweep name"):
            SWEEPS.register(SweepSpec(
                scenario="incast", summary="dup", expect_problem="incast",
                axes={"hosts": "hosts"}, default_grid={"hosts": (64,)},
                nightly_grid={"hosts": (64,)}))

    def test_nightly_grid_is_mandatory(self):
        """`sweep nightly` runs every registered spec — a spec it could
        not run would silently shrink the scheduled CI coverage."""
        from repro.sweep.registry import SweepSpec

        with pytest.raises(SweepError, match="nightly grid"):
            SWEEPS.register(SweepSpec(
                scenario="incast", name="incast-no-nightly",
                summary="x", expect_problem="incast",
                axes={"hosts": "hosts"}, default_grid={"hosts": (64,)}))

    def test_axes_resolve_to_knobs(self):
        spec = SWEEPS.get("incast")
        knobs = spec.knobs_for({"hosts": 256, "records": 512})
        assert knobs["hosts"] == 256
        assert knobs["records_per_host"] == 512
        # base knobs ride along on every point
        assert knobs["ingest_batch"] == 16

    def test_unknown_axis_rejected_before_running(self):
        spec = SWEEPS.get("incast")
        with pytest.raises(GridError, match="unknown axis"):
            Sweep(spec, {"bogus": [1]})

    def test_pinned_knob_may_not_override_swept_axis(self):
        """--knob hosts=32 with --grid hosts=64,256 would run every
        point at 32 while the report claims 64/256 — reject it."""
        spec = SWEEPS.get("incast")
        with pytest.raises(GridError, match="override swept axis"):
            Sweep(spec, {"hosts": [64, 256]},
                  extra_knobs={"hosts": 32})
        # pinning a knob that is not swept stays allowed
        Sweep(spec, {"hosts": [64]}, extra_knobs={"duration": 0.02})


class TestExecution:
    def test_inline_sweep_aggregates_points(self):
        spec = SWEEPS.get("incast")
        sweep = Sweep(
            spec, {"hosts": [64, 128]}, workers=1, extra_knobs=FAST
        )
        report = sweep.run()
        assert [p.params["hosts"] for p in report.points] == [64, 128]
        assert report.all_ok
        assert all(p.problems == ["incast"] for p in report.points)
        assert all(p.peak_records > 0 for p in report.points)
        assert all(p.wall_time_s > 0 for p in report.points)
        assert report.workers == 1

    def test_point_error_is_contained(self):
        spec = SWEEPS.get("incast")
        # n_senders below min_fan_in still runs; a negative duration
        # must error that point without killing the sweep
        sweep = Sweep(
            spec,
            {"hosts": [64]},
            workers=1,
            extra_knobs={"duration": -1.0},
        )
        report = sweep.run()
        assert len(report.points) == 1
        assert report.points[0].error is not None
        assert not report.all_ok

    def test_traffic_axis_populates_flow_metrics(self):
        """flows= drives a background population, and the point records
        how many flows ran and the ingest throughput they produced."""
        spec = SWEEPS.get("incast-scale")
        sweep = Sweep(spec, {"hosts": [64], "flows": [300]}, workers=1,
                      extra_knobs=FAST)
        report = sweep.run()
        point = report.points[0]
        assert point.ok, point.error or point.problems
        assert point.flow_count >= 300
        assert point.ingest_records_per_s > 0
        assert point.measurements["bg_packets_delivered"] > 0
        # more flows -> more records ingested than the bare scenario
        bare = Sweep(spec, {"hosts": [64], "flows": [0]}, workers=1,
                     extra_knobs=FAST).run().points[0]
        assert point.total_records > bare.total_records

    def test_seeds_stable_per_index(self):
        spec = SWEEPS.get("incast")
        sweep = Sweep(spec, {"hosts": [64, 128]}, base_seed=42)
        seeds = [payload[2] for payload in sweep.payloads]
        assert seeds == [point_seed(42, 0), point_seed(42, 1)]

    def test_gray_failure_requires_correct_suspect(self):
        """problem='gray-failure' alone is not enough: the verdict must
        name the injected switch, else localization regressions would
        pass the gate silently."""
        spec = SWEEPS.get("gray-failure")
        sweep = Sweep(spec, {"victims": [2]}, workers=1,
                      extra_knobs={"duration": 0.04})
        assert sweep.payloads[0][4] == "S3"  # default fault_switch
        report = sweep.run()
        assert report.all_ok
        assert "S3" in report.points[0].suspects
        # an expectation that cannot be met flips diagnosis_ok
        wrong = Sweep(spec, {"victims": [2]}, workers=1,
                      extra_knobs={"duration": 0.04,
                                   "fault_switch": "S2"})
        assert wrong.payloads[0][4] == "S2"

    def test_parallel_matches_inline(self):
        """Worker count must not change any point's outcome."""
        spec = SWEEPS.get("incast")
        grid = {"hosts": [64, 128]}
        inline = Sweep(
            spec, grid, workers=1, extra_knobs=FAST
        ).run()
        pooled = Sweep(
            spec, grid, workers=2, extra_knobs=FAST
        ).run()
        for a, b in zip(inline.points, pooled.points):
            assert a.params == b.params
            assert a.seed == b.seed
            assert a.diagnosis_ok and b.diagnosis_ok
            assert a.problems == b.problems
            assert a.suspects == b.suspects
            assert a.peak_records == b.peak_records
            assert a.total_records == b.total_records
            assert a.sim_time_s == pytest.approx(b.sim_time_s)
            assert a.measurements == b.measurements

    def test_execute_point_matches_single_run(self):
        """A sweep point is the single run with the same knobs/seed."""
        from repro.scenarios import run_scenario

        spec = SWEEPS.get("incast")
        knobs = spec.knobs_for({"hosts": 64})
        knobs.update(FAST)
        point = execute_point(
            (spec.scenario, knobs, 7, spec.expect_problem, None, 0,
             {"hosts": 64})
        )
        single = run_scenario("incast", **knobs)
        assert point.error is None
        assert point.problems == [v.problem for v in single.verdicts]
        assert point.suspects == [
            v.suspect for v in single.verdicts if v.suspect
        ]
        assert point.measurements == single.measurements
