"""Integration: `cli experiment run` produces a schema-valid
ExperimentReport through the resumable artifact directory, the error
paths name their offender, and the committed studies regenerate
bit-identically."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiment import EXPERIMENTS
from repro.experiment.report import validate_experiment_report

REPO = Path(__file__).resolve().parent.parent.parent


def run_cli(tmp_path, *extra):
    out_dir = tmp_path / "study"
    code = main(
        ["experiment", "run", "skew-degradation",
         "--grid", "skew_ms=0.0,8.0", "--reps", "2",
         "--out-dir", str(out_dir), *extra])
    return code, out_dir


class TestExperimentCli:
    def test_list(self, capsys):
        assert main(["experiment", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("skew-degradation", "deploy-degradation"):
            assert name in out

    def test_run_writes_schema_valid_report(self, tmp_path, capsys):
        code, out_dir = run_cli(tmp_path)
        assert code == 0
        printed = capsys.readouterr().out
        assert "2 point(s) x 2 rep(s) = 4 runs" in printed
        doc = json.loads(
            (out_dir / "report.json").read_text(encoding="utf-8"))
        assert validate_experiment_report(doc) == []
        assert doc["experiment"] == "skew-degradation"
        assert doc["scenario"] == "gray-failure"
        assert doc["grid"] == {"skew_ms": [0.0, 8.0]}
        assert doc["summary"]["runs"] == 4
        assert (out_dir / "manifest.json").exists()
        assert len(list((out_dir / "runs").glob("point*.json"))) == 4

    def test_max_runs_interrupts_then_resumes(self, tmp_path, capsys):
        code, out_dir = run_cli(tmp_path, "--max-runs", "3")
        assert code == 0
        assert "incomplete: 3/4 runs" in capsys.readouterr().out
        assert not (out_dir / "report.json").exists()
        code, out_dir = run_cli(tmp_path)
        assert code == 0
        assert "[resumed]" in capsys.readouterr().out
        assert (out_dir / "report.json").exists()

    def test_negative_max_runs_fails_cleanly(self, tmp_path, capsys):
        """--max-runs -1 would slice off the table's last cell and exit
        0 as "incomplete"; it is rejected before anything is written."""
        code, out_dir = run_cli(tmp_path, "--max-runs", "-1")
        assert code == 2
        assert "max_runs must be >= 0, got -1" in capsys.readouterr().err
        assert not list(out_dir.glob("runs/*.json"))

    def test_invalid_report_is_never_written(
            self, tmp_path, capsys, monkeypatch):
        """A report that fails its schema is an error, not a file: the
        CLI exits 2 naming the field and report.json stays absent."""
        import repro.experiment.runner as runner

        aggregate = runner.aggregate_runs

        def corrupted(**kwargs):
            report = aggregate(**kwargs)
            report.runs[0].flow_count = "12"
            return report

        monkeypatch.setattr(runner, "aggregate_runs", corrupted)
        code, out_dir = run_cli(tmp_path, "--reps", "1")
        assert code == 2
        assert "runs[0].flow_count must be int" in capsys.readouterr().err
        assert not (out_dir / "report.json").exists()

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["experiment", "run", "no-such-study"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'no-such-study'" in err

    def test_unknown_grid_knob_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["experiment", "run", "skew-degradation",
             "--grid", "bogus=1", "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "['bogus']" in capsys.readouterr().err

    def test_pinned_grid_knob_runs_the_grid_value(self, tmp_path, capsys):
        """--knob on a grid knob is no clash: every cell runs the grid
        value, so the run reads exactly as it does unpinned."""
        runs = []
        for name, pin in (("plain", []), ("pinned", ["--knob", "skew_ms=8.0"])):
            out_dir = tmp_path / name
            assert main(["experiment", "run", "skew-degradation",
                         "--grid", "skew_ms=0.0", "--reps", "1",
                         "--workers", "1", "--out-dir", str(out_dir),
                         *pin]) == 0
            doc = json.loads(
                (out_dir / "report.json").read_text(encoding="utf-8"))
            runs.append(doc["runs"])
        assert runs[0] == runs[1]
        assert runs[1][0]["params"] == {"skew_ms": 0.0}

    def test_sweep_verb_is_gone(self, capsys):
        """A scale sweep runs as `experiment run`; no alias command."""
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "list"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'sweep'" in capsys.readouterr().err

    def test_zero_reps_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["experiment", "run", "skew-degradation", "--reps", "0",
             "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "reps must be >= 1, got 0" in capsys.readouterr().err


class TestExperimentNightlyCli:
    def test_nightly_writes_one_directory_per_experiment(
            self, tmp_path, capsys):
        code = main(
            ["experiment", "nightly", "--out-dir", str(tmp_path),
             "--only", "skew-degradation"])
        assert code == 0
        assert "1/1 experiments ok" in capsys.readouterr().out
        doc = json.loads(
            (tmp_path / "skew-degradation" / "report.json").read_text(
                encoding="utf-8"))
        assert validate_experiment_report(doc) == []
        spec = EXPERIMENTS.get("skew-degradation")
        assert doc["grid"] == {
            knob: list(vals) for knob, vals in spec.grid.items()}
        assert doc["reps"] == spec.reps

    def test_nightly_unknown_only_fails_cleanly(self, tmp_path, capsys):
        code = main(["experiment", "nightly",
                     "--out-dir", str(tmp_path),
                     "--only", "no-such-study"])
        assert code == 2
        assert "unknown experiment 'no-such-study'" in capsys.readouterr().err


class TestCommittedStudies:
    def test_committed_reports_regenerate_bit_identically(self, tmp_path):
        """The checked-in degradation studies — every experiment with a
        figure — are reproducible: the same registry spec and default
        base seed rebuild results/experiments/<name>/report.json byte
        for byte."""
        studies = [s.name for s in EXPERIMENTS.values() if s.figure]
        assert len(studies) == 4
        for name in studies:
            committed = (
                REPO / "results" / "experiments" / name / "report.json")
            assert committed.exists(), committed
            out_dir = tmp_path / name
            assert main(["experiment", "run", name,
                         "--out-dir", str(out_dir)]) in (0, 1)
            assert (out_dir / "report.json").read_bytes() == \
                committed.read_bytes(), name
