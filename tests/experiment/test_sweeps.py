"""Scale sweeps as one-repetition run tables: registry resolution,
execution, parallel equivalence."""

import pytest

from repro.experiment import EXPERIMENTS, ExperimentError, ExperimentSpec
from repro.experiment.cells import execute_point
from repro.experiment.runner import Experiment
from repro.scenarios import ScenarioError

FAST = {"duration": 0.02, "burst_start": 0.008}


def table(name, grid=None, **kwargs):
    """A registered experiment's run table, its grid overridden."""
    return Experiment(EXPERIMENTS.get(name), grid=grid, **kwargs)


class TestRegistry:
    def test_sweeps_registered_next_to_scenarios(self):
        for name in ("incast", "incast-scale", "gray-failure",
                     "polarization", "link-flap"):
            assert name in EXPERIMENTS
            assert EXPERIMENTS.get(name).reps == 1
        assert len(EXPERIMENTS) >= 5

    def test_several_experiments_may_share_a_scenario(self):
        """incast-scale is a second sweep of the incast scenario, along
        the traffic knob instead of the fabric knob."""
        fabric = EXPERIMENTS.get("incast")
        traffic = EXPERIMENTS.get("incast-scale")
        assert fabric.scenario == traffic.scenario == "incast"
        assert fabric.name != traffic.name
        assert "bg_flows" in traffic.grid

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError,
                           match="unknown experiment 'no-such-sweep'"):
            EXPERIMENTS.get("no-such-sweep")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ExperimentError,
                           match="duplicate experiment name"):
            EXPERIMENTS.register(ExperimentSpec(
                scenario="incast", summary="dup", expect_problem="incast",
                grid={"hosts": (64,)}))

    def test_nightly_grid_defaults_to_grid(self):
        """`experiment nightly` runs every registered spec: one without
        a reduced grid runs its own."""
        spec = ExperimentSpec(scenario="incast", summary="x",
                              expect_problem="incast",
                              grid={"hosts": (64,)})
        assert spec.nightly_grid == {"hosts": (64,)}
        assert EXPERIMENTS.get("skew-degradation").nightly_grid == \
            EXPERIMENTS.get("skew-degradation").grid

    def test_knobs_layer_base_pins_then_grid(self):
        spec = EXPERIMENTS.get("incast")
        knobs = spec.knobs_for({"hosts": 256, "records_per_host": 512})
        assert knobs == {"hosts": 256, "records_per_host": 512}
        # base knobs ride along on every point, under any pin
        bits = EXPERIMENTS.get("directory-bits").knobs_for(
            {"directory_bits": 8}, {"directory_hashes": 2})
        assert bits == {"directory_backend": "bloom",
                        "directory_hashes": 2, "directory_bits": 8}

    def test_unknown_grid_knob_rejected_before_running(self):
        with pytest.raises(ScenarioError,
                           match=r"unknown knob\(s\) for 'incast'"):
            table("incast", {"bogus": [1]})

    def test_grid_value_wins_over_a_pinned_knob(self):
        """--knob hosts=32 with --grid hosts=64,256 runs the grid: every
        point runs at the value its params and report name."""
        pinned = table("incast", {"hosts": [64, 256]},
                       extra_knobs={"hosts": 32, "duration": 0.02})
        assert [knobs["hosts"] for knobs in pinned.knobs] == [64, 256]
        assert all(knobs["duration"] == 0.02 for knobs in pinned.knobs)


class TestExecution:
    def test_inline_sweep_aggregates_points(
            self, run_artifacts, tmp_path):
        report = table("incast", {"hosts": [64, 128]},
                       extra_knobs=FAST).execute(tmp_path, workers=1)
        assert [r.params["hosts"] for r in report.runs] == [64, 128]
        assert report.summary["ok_runs"] == report.summary["runs"] == 2
        assert all(r.problems == ["incast"] for r in report.runs)
        assert all(r.peak_records > 0 for r in report.runs)
        assert all(doc["result"]["wall_time_s"] > 0
                   for doc in run_artifacts(tmp_path))

    def test_point_error_is_contained(self, tmp_path):
        # n_senders below min_fan_in still runs; a negative duration
        # must error that point without killing the sweep
        report = table(
            "incast", {"hosts": [64]}, extra_knobs={"duration": -1.0}
        ).execute(tmp_path, workers=1)
        assert len(report.runs) == 1
        assert report.runs[0].error is not None
        assert report.summary["ok_runs"] == 0

    def test_traffic_axis_populates_flow_metrics(
            self, run_artifacts, tmp_path):
        """bg_flows drives a background population, and the point records
        how many flows ran and the ingest throughput they produced."""
        table("incast-scale", {"hosts": [64], "bg_flows": [300]},
              extra_knobs=FAST).execute(tmp_path / "busy", workers=1)
        (doc,) = run_artifacts(tmp_path / "busy")
        point = doc["result"]
        assert point["ok"], point["error"] or point["problems"]
        assert point["flow_count"] >= 300
        assert point["ingest_records_per_s"] > 0
        assert point["measurements"]["bg_packets_delivered"] > 0
        # more flows -> more records ingested than the bare scenario
        table("incast-scale", {"hosts": [64], "bg_flows": [0]},
              extra_knobs=FAST).execute(tmp_path / "bare", workers=1)
        (bare,) = run_artifacts(tmp_path / "bare")
        assert point["total_records"] > bare["result"]["total_records"]

    def test_seeds_follow_params_not_position(self):
        """A point's seed is its canonical (params, rep) seed: listing
        the grid in another order cannot re-seed it."""
        forward = table("incast", {"hosts": [64, 128]}, base_seed=42)
        backward = table("incast", {"hosts": [128, 64]}, base_seed=42)
        seeds = {r.params["hosts"]: r.seed for r in forward.runs}
        assert seeds == {r.params["hosts"]: r.seed for r in backward.runs}
        assert len(set(seeds.values())) == 2

    def test_gray_failure_requires_correct_suspect(self, tmp_path):
        """problem='gray-failure' alone is not enough: the verdict must
        name the injected switch, else localization regressions would
        pass the gate silently."""

        def expected_suspect(experiment):
            run = experiment.runs[0]
            cell = experiment.spec.cell(
                run.index, run.params, experiment.knobs[run.index], run.seed)
            return cell[4]

        experiment = table("gray-failure", {"n_flows": [2]},
                           extra_knobs={"duration": 0.04})
        assert expected_suspect(experiment) == "S3"  # default fault_switch
        report = experiment.execute(tmp_path, workers=1)
        assert report.runs[0].ok
        assert "S3" in report.runs[0].suspects
        # an expectation that cannot be met flips diagnosis_ok
        wrong = table("gray-failure", {"n_flows": [2]},
                      extra_knobs={"duration": 0.04, "fault_switch": "S2"})
        assert expected_suspect(wrong) == "S2"

    def test_parallel_matches_inline(self, run_artifacts, tmp_path):
        """Worker count must not change any point's outcome."""
        grid = {"hosts": [64, 128]}
        table("incast", grid, extra_knobs=FAST).execute(
            tmp_path / "inline", workers=1)
        table("incast", grid, extra_knobs=FAST).execute(
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

        spec = EXPERIMENTS.get("incast")
        knobs = spec.knobs_for({"hosts": 64}, FAST)
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
