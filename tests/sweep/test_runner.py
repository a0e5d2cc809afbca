"""Sweeps as one-repetition run tables: registry resolution, execution,
parallel equivalence."""

import pytest

from repro.experiment import ExperimentError
from repro.sweep import SWEEPS, SweepError, execute_point

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
        assert knobs == {"hosts": 256, "records_per_host": 512}
        # base knobs ride along on every point
        bits = SWEEPS.get("directory-bits").knobs_for({"dir_bits": 8})
        assert bits == {"directory_backend": "bloom",
                        "directory_bits": 8}

    def test_unknown_axis_rejected_before_running(self, sweep_table):
        with pytest.raises(ExperimentError, match="unknown axis"):
            sweep_table("incast", {"bogus": [1]})

    def test_pinned_knob_may_not_override_swept_axis(self, sweep_table):
        """--knob hosts=32 with --grid hosts=64,256 would run every
        point at 32 while the report claims 64/256 — reject it."""
        with pytest.raises(ExperimentError, match="override swept axis"):
            sweep_table("incast", {"hosts": [64, 256]},
                        extra_knobs={"hosts": 32})
        # pinning a knob that is not swept stays allowed
        sweep_table("incast", {"hosts": [64]},
                    extra_knobs={"duration": 0.02})


class TestExecution:
    def test_inline_sweep_aggregates_points(
            self, sweep_table, run_artifacts, tmp_path):
        report = sweep_table("incast", {"hosts": [64, 128]},
                             extra_knobs=FAST).execute(tmp_path, workers=1)
        assert [r.params["hosts"] for r in report.runs] == [64, 128]
        assert report.summary["ok_runs"] == report.summary["runs"] == 2
        assert all(r.problems == ["incast"] for r in report.runs)
        assert all(r.peak_records > 0 for r in report.runs)
        assert all(doc["result"]["wall_time_s"] > 0
                   for doc in run_artifacts(tmp_path))

    def test_point_error_is_contained(self, sweep_table, tmp_path):
        # n_senders below min_fan_in still runs; a negative duration
        # must error that point without killing the sweep
        report = sweep_table(
            "incast", {"hosts": [64]}, extra_knobs={"duration": -1.0}
        ).execute(tmp_path, workers=1)
        assert len(report.runs) == 1
        assert report.runs[0].error is not None
        assert report.summary["ok_runs"] == 0

    def test_traffic_axis_populates_flow_metrics(
            self, sweep_table, run_artifacts, tmp_path):
        """flows= drives a background population, and the point records
        how many flows ran and the ingest throughput they produced."""
        sweep_table("incast-scale", {"hosts": [64], "flows": [300]},
                    extra_knobs=FAST).execute(tmp_path / "busy", workers=1)
        (doc,) = run_artifacts(tmp_path / "busy")
        point = doc["result"]
        assert point["ok"], point["error"] or point["problems"]
        assert point["flow_count"] >= 300
        assert point["ingest_records_per_s"] > 0
        assert point["measurements"]["bg_packets_delivered"] > 0
        # more flows -> more records ingested than the bare scenario
        sweep_table("incast-scale", {"hosts": [64], "flows": [0]},
                    extra_knobs=FAST).execute(tmp_path / "bare", workers=1)
        (bare,) = run_artifacts(tmp_path / "bare")
        assert point["total_records"] > bare["result"]["total_records"]

    def test_seeds_follow_params_not_position(self, sweep_table):
        """A point's seed is its canonical (params, rep) seed: listing
        the grid in another order cannot re-seed it."""
        forward = sweep_table("incast", {"hosts": [64, 128]}, base_seed=42)
        backward = sweep_table("incast", {"hosts": [128, 64]}, base_seed=42)
        seeds = {r.params["hosts"]: r.seed for r in forward.runs}
        assert seeds == {r.params["hosts"]: r.seed for r in backward.runs}
        assert len(set(seeds.values())) == 2

    def test_gray_failure_requires_correct_suspect(
            self, sweep_table, tmp_path):
        """problem='gray-failure' alone is not enough: the verdict must
        name the injected switch, else localization regressions would
        pass the gate silently."""

        def expected_suspect(experiment):
            run = experiment.runs[0]
            cell = experiment.sweep.cell(
                run.index, run.params, experiment.knobs[run.index], run.seed)
            return cell[4]

        experiment = sweep_table("gray-failure", {"victims": [2]},
                                 extra_knobs={"duration": 0.04})
        assert expected_suspect(experiment) == "S3"  # default fault_switch
        report = experiment.execute(tmp_path, workers=1)
        assert report.runs[0].ok
        assert "S3" in report.runs[0].suspects
        # an expectation that cannot be met flips diagnosis_ok
        wrong = sweep_table("gray-failure", {"victims": [2]},
                            extra_knobs={"duration": 0.04,
                                         "fault_switch": "S2"})
        assert expected_suspect(wrong) == "S2"

    def test_parallel_matches_inline(
            self, sweep_table, run_artifacts, tmp_path):
        """Worker count must not change any point's outcome."""
        grid = {"hosts": [64, 128]}
        sweep_table("incast", grid, extra_knobs=FAST).execute(
            tmp_path / "inline", workers=1)
        sweep_table("incast", grid, extra_knobs=FAST).execute(
            tmp_path / "pooled", workers=2)
        inline = run_artifacts(tmp_path / "inline")
        pooled = run_artifacts(tmp_path / "pooled")
        assert len(inline) == len(pooled) == 2
        for a, b in zip(inline, pooled):
            assert a["params"] == b["params"]
            assert a["seed"] == b["seed"]
            a, b = a["result"], b["result"]
            assert a["diagnosis_ok"] and b["diagnosis_ok"]
            assert a["problems"] == b["problems"]
            assert a["suspects"] == b["suspects"]
            assert a["peak_records"] == b["peak_records"]
            assert a["total_records"] == b["total_records"]
            assert a["sim_time_s"] == pytest.approx(b["sim_time_s"])
            assert a["measurements"] == b["measurements"]
        assert ((tmp_path / "inline" / "report.json").read_bytes()
                == (tmp_path / "pooled" / "report.json").read_bytes())

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
