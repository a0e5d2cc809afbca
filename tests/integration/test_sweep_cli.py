"""Integration: `cli sweep run` produces a schema-valid SweepReport and
every grid point's diagnosis matches the single-run verdict for the
same seed (the reproducibility contract docs/SWEEPS.md promises)."""

import json

from repro.cli import main
from repro.core.rng import seed_run
from repro.scenarios import run_scenario
from repro.sweep import SWEEPS, validate_report

FAST = ["--knob", "duration=0.02", "--knob", "burst_start=0.008"]


def run_cli_sweep(tmp_path, *extra):
    out = tmp_path / "report.json"
    code = main(
        ["sweep", "run", "incast", "--grid", "hosts=64,128",
         "--workers", "1", "--out", str(out), *FAST, *extra])
    return code, out


class TestSweepCli:
    def test_list(self, capsys):
        assert main(["sweep", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("incast", "incast-scale", "gray-failure",
                     "polarization", "link-flap"):
            assert name in out

    def test_run_writes_schema_valid_report(self, tmp_path, capsys):
        code, out = run_cli_sweep(tmp_path)
        assert code == 0
        printed = capsys.readouterr().out
        assert "2/2 points ok" in printed
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert validate_report(doc) == []
        assert doc["scenario"] == "incast"
        assert doc["grid"] == {"hosts": [64, 128]}
        assert [p["params"]["hosts"] for p in doc["points"]] == [64, 128]
        assert all(p["ok"] for p in doc["points"])

    def test_every_point_matches_single_run_same_seed(self, tmp_path):
        """Replay each point as `cli run`-style single execution with
        the point's recorded knobs and seed: identical verdicts."""
        code, out = run_cli_sweep(tmp_path)
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        spec = SWEEPS.get("incast")
        for point in doc["points"]:
            seed_run(point["seed"])
            single = run_scenario("incast", **point["knobs"])
            problems = [v.problem for v in single.verdicts]
            assert point["problems"] == problems
            assert point["diagnosis_ok"] == (
                spec.expect_problem in problems)
            assert point["suspects"] == [
                v.suspect for v in single.verdicts if v.suspect]
            assert point["measurements"] == single.measurements

    def test_unknown_sweep_fails_cleanly(self, capsys):
        assert main(["sweep", "run", "no-such-sweep"]) == 2
        assert "unknown sweep 'no-such-sweep'" in capsys.readouterr().err

    def test_unknown_axis_fails_cleanly(self, capsys):
        assert main(
            ["sweep", "run", "incast", "--grid", "bogus=1"]) == 2
        assert "unknown axis" in capsys.readouterr().err

    def test_failing_point_sets_exit_code(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["sweep", "run", "incast", "--grid", "hosts=64",
             "--workers", "1", "--out", str(out),
             "--knob", "duration=-1.0"])
        assert code == 1
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert validate_report(doc) == []
        assert doc["points"][0]["error"] is not None

    def test_knob_axis_collision_fails_cleanly(self, capsys):
        assert main(
            ["sweep", "run", "incast", "--grid", "hosts=64,128",
             "--knob", "hosts=32"]) == 2
        assert "override swept axis" in capsys.readouterr().err

    def test_traffic_scale_sweep_carries_flow_metrics(self, tmp_path):
        """The acceptance shape: a traffic-axis point reports its flow
        count and ingest throughput in a schema-valid document."""
        out = tmp_path / "report.json"
        code = main(
            ["sweep", "run", "incast-scale",
             "--grid", "hosts=64", "--grid", "flows=200",
             "--workers", "1", "--out", str(out), *FAST])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert validate_report(doc) == []
        assert doc["sweep"] == "incast-scale"
        assert doc["scenario"] == "incast"
        point = doc["points"][0]
        assert point["knobs"]["bg_flows"] == 200
        assert point["flow_count"] >= 200
        assert point["ingest_records_per_s"] > 0
        assert doc["summary"]["max_flow_count"] == point["flow_count"]


class TestSweepNightlyCli:
    def test_nightly_writes_one_report_per_sweep(self, tmp_path, capsys):
        code = main(
            ["sweep", "nightly", "--out-dir", str(tmp_path),
             "--workers", "1",
             "--only", "polarization", "--only", "link-flap"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "2/2 sweeps ok" in printed
        for name in ("polarization", "link-flap"):
            path = tmp_path / f"sweep_nightly_{name}.json"
            assert path.exists(), path
            doc = json.loads(path.read_text(encoding="utf-8"))
            assert validate_report(doc) == []
            spec = SWEEPS.get(name)
            assert doc["grid"] == {
                axis: list(vals)
                for axis, vals in spec.nightly_grid.items()}
            assert all(p["ok"] for p in doc["points"])

    def test_only_runs_one_sweep_at_its_nightly_grid(self, tmp_path):
        code = main(
            ["sweep", "nightly", "--out-dir", str(tmp_path),
             "--workers", "1", "--only", "gray-failure"])
        assert code == 0
        (path,) = tmp_path.glob("*.json")
        assert path.name == "sweep_nightly_gray-failure.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        spec = SWEEPS.get("gray-failure")
        assert doc["grid"] == {
            axis: list(vals) for axis, vals in spec.nightly_grid.items()}

    def test_nightly_unknown_only_fails_cleanly(self, tmp_path, capsys):
        code = main(["sweep", "nightly", "--out-dir", str(tmp_path),
                     "--only", "no-such-sweep"])
        assert code == 2
        assert "unknown sweep 'no-such-sweep'" in capsys.readouterr().err
