"""Integration: `cli sweep run` executes a one-repetition run table into a
resumable artifact directory with a schema-valid report, and every run
replays as the single run with its recorded seed and knobs (the
reproducibility contract docs/SWEEPS.md promises)."""

import json

from repro.cli import build_parser, main
from repro.core.rng import seed_run
from repro.experiment import validate_experiment_report
from repro.scenarios import run_scenario
from repro.sweep import SWEEPS

FAST = ["--knob", "duration=0.02", "--knob", "burst_start=0.008"]


def run_cli_sweep(out_dir, *extra, grid="hosts=64,128"):
    return main(
        ["sweep", "run", "incast", "--grid", grid,
         "--workers", "1", "--out-dir", str(out_dir), *FAST, *extra])


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text(encoding="utf-8"))


class TestSweepCli:
    def test_list(self, capsys):
        assert main(["sweep", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("incast", "incast-scale", "gray-failure",
                     "polarization", "link-flap"):
            assert name in out

    def test_run_writes_schema_valid_report(self, tmp_path, capsys):
        assert run_cli_sweep(tmp_path) == 0
        printed = capsys.readouterr().out
        assert "2 point(s) x 1 rep(s) = 2 runs" in printed
        assert "2/2 runs diagnosed correctly" in printed
        doc = read_report(tmp_path)
        assert validate_experiment_report(doc) == []
        assert doc["experiment"] == doc["sweep"] == "incast"
        assert doc["scenario"] == "incast"
        assert doc["reps"] == 1
        assert doc["grid"] == {"hosts": [64, 128]}
        assert [r["params"]["hosts"] for r in doc["runs"]] == [64, 128]
        assert all(r["ok"] for r in doc["runs"])
        assert len(list((tmp_path / "runs").glob("point*.json"))) == 2

    def test_every_point_matches_single_run_same_seed(
            self, tmp_path, run_artifacts):
        """Replay each run artifact as a `cli run`-style single execution
        with its recorded knobs and seed: identical verdicts."""
        assert run_cli_sweep(tmp_path) == 0
        spec = SWEEPS.get("incast")
        artifacts = run_artifacts(tmp_path)
        assert len(artifacts) == 2
        for doc in artifacts:
            result = doc["result"]
            assert result["seed"] == doc["seed"]
            seed_run(doc["seed"])
            single = run_scenario("incast", **result["knobs"])
            problems = [v.problem for v in single.verdicts]
            assert result["problems"] == problems
            assert result["diagnosis_ok"] == (
                spec.expect_problem in problems)
            assert result["suspects"] == [
                v.suspect for v in single.verdicts if v.suspect]
            assert result["measurements"] == single.measurements

    def test_grid_order_does_not_reseed_a_point(self, tmp_path):
        """`--grid hosts=64,128` and `--grid hosts=128,64` run hosts=64
        at the same seed: a point's seed is its (params, rep) key."""
        assert run_cli_sweep(tmp_path / "up") == 0
        assert run_cli_sweep(tmp_path / "down", grid="hosts=128,64") == 0

        def seeds(out_dir):
            return {r["params"]["hosts"]: r["seed"]
                    for r in read_report(out_dir)["runs"]}

        assert seeds(tmp_path / "up")[64] == seeds(tmp_path / "down")[64]
        assert seeds(tmp_path / "up") == seeds(tmp_path / "down")

    def test_rerun_resumes_with_byte_identical_report(
            self, tmp_path, capsys):
        assert run_cli_sweep(tmp_path) == 0
        first = (tmp_path / "report.json").read_bytes()
        capsys.readouterr()
        assert run_cli_sweep(tmp_path) == 0
        printed = capsys.readouterr().out
        assert printed.count("[resumed]") == 2
        assert "[executed]" not in printed
        assert (tmp_path / "report.json").read_bytes() == first

    def test_changed_knob_pin_refuses_to_resume(self, tmp_path, capsys):
        """Run artifacts made at other --knob pins are not reused."""
        assert run_cli_sweep(tmp_path) == 0
        code = run_cli_sweep(tmp_path, "--knob", "min_fan_in=4")
        assert code == 2
        assert "--knob pins changed" in capsys.readouterr().err

    def test_sweep_grades_strictly_experiment_does_not(
            self, tmp_path, capsys):
        """Past the ε bound the skewed run misdiagnoses: a sweep fails on
        it, the experiment over the same point records it."""
        assert main(["sweep", "run", "clock-skew", "--grid", "skew_ms=8",
                     "--out-dir", str(tmp_path / "sweep")]) == 1
        assert main(["experiment", "run", "skew-degradation",
                     "--grid", "skew_ms=8", "--reps", "1",
                     "--out-dir", str(tmp_path / "experiment")]) == 0
        assert "0/1 runs diagnosed correctly" in capsys.readouterr().out

    def test_unknown_sweep_fails_cleanly(self, capsys):
        assert main(["sweep", "run", "no-such-sweep"]) == 2
        assert "unknown sweep 'no-such-sweep'" in capsys.readouterr().err

    def test_unknown_axis_fails_cleanly(self, capsys):
        assert main(
            ["sweep", "run", "incast", "--grid", "bogus=1"]) == 2
        assert "unknown axis" in capsys.readouterr().err

    def test_failing_point_sets_exit_code(self, tmp_path, capsys):
        code = main(
            ["sweep", "run", "incast", "--grid", "hosts=64",
             "--workers", "1", "--out-dir", str(tmp_path),
             "--knob", "duration=-1.0"])
        assert code == 1
        doc = read_report(tmp_path)
        assert validate_experiment_report(doc) == []
        assert doc["runs"][0]["error"] is not None

    def test_knob_axis_collision_fails_cleanly(self, capsys):
        assert main(
            ["sweep", "run", "incast", "--grid", "hosts=64,128",
             "--knob", "hosts=32"]) == 2
        assert "override swept axis" in capsys.readouterr().err

    def test_traffic_scale_sweep_carries_flow_metrics(
            self, tmp_path, run_artifacts):
        """The acceptance shape: a traffic-axis point reports its flow
        count and ingest throughput in a schema-valid document."""
        code = main(
            ["sweep", "run", "incast-scale",
             "--grid", "hosts=64", "--grid", "flows=200",
             "--workers", "1", "--out-dir", str(tmp_path), *FAST])
        assert code == 0
        doc = read_report(tmp_path)
        assert validate_experiment_report(doc) == []
        assert doc["sweep"] == "incast-scale"
        assert doc["scenario"] == "incast"
        (artifact,) = run_artifacts(tmp_path)
        point = artifact["result"]
        assert point["knobs"]["bg_flows"] == 200
        assert point["flow_count"] >= 200
        assert point["ingest_records_per_s"] > 0
        assert doc["runs"][0]["flow_count"] == point["flow_count"]

    def test_every_run_verb_defaults_workers_to_cpu_count(self):
        """One --workers default for all four run verbs: None, which the
        runner resolves to the CPU count capped at the run count."""
        parser = build_parser()
        for argv in (["sweep", "run", "incast"], ["sweep", "nightly"],
                     ["experiment", "run", "skew-degradation"],
                     ["experiment", "nightly"]):
            assert parser.parse_args(argv).workers is None, argv


class TestSweepNightlyCli:
    def test_nightly_writes_one_directory_per_sweep(self, tmp_path, capsys):
        code = main(
            ["sweep", "nightly", "--out-dir", str(tmp_path),
             "--workers", "1",
             "--only", "polarization", "--only", "link-flap"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "2/2 sweeps ok" in printed
        for name in ("polarization", "link-flap"):
            path = tmp_path / name / "report.json"
            assert path.exists(), path
            doc = json.loads(path.read_text(encoding="utf-8"))
            assert validate_experiment_report(doc) == []
            spec = SWEEPS.get(name)
            assert doc["grid"] == {
                axis: list(vals)
                for axis, vals in spec.nightly_grid.items()}
            assert all(r["ok"] for r in doc["runs"])

    def test_only_runs_one_sweep_at_its_nightly_grid(self, tmp_path):
        code = main(
            ["sweep", "nightly", "--out-dir", str(tmp_path),
             "--workers", "1", "--only", "gray-failure"])
        assert code == 0
        (path,) = tmp_path.iterdir()
        assert path.name == "gray-failure"
        doc = read_report(path)
        spec = SWEEPS.get("gray-failure")
        assert doc["grid"] == {
            axis: list(vals) for axis, vals in spec.nightly_grid.items()}

    def test_nightly_unknown_only_fails_cleanly(self, tmp_path, capsys):
        code = main(["sweep", "nightly", "--out-dir", str(tmp_path),
                     "--only", "no-such-sweep"])
        assert code == 2
        assert "unknown sweep 'no-such-sweep'" in capsys.readouterr().err
