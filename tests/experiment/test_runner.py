"""Resumability: an interrupted study resumes with completed runs
reused untouched and a final report byte-identical to an uninterrupted
one (the contract docs/EXPERIMENTS.md promises)."""

import json

import pytest

from repro.experiment import EXPERIMENTS, ExperimentError
from repro.experiment.report import validate_experiment_report
from repro.experiment.runner import EXECUTED, RESUMED, Experiment
from repro.scenarios import ScenarioError

GRID = {"skew_ms": [0.0, 8.0]}


def make_experiment(reps=2):
    return Experiment(
        EXPERIMENTS.get("skew-degradation"), grid=dict(GRID), reps=reps
    )


class TestResume:
    def test_interrupt_then_resume_is_byte_identical(self, tmp_path):
        """Interrupt after K of N runs, re-invoke: completed run files
        are reused untouched and report.json matches an uninterrupted
        run byte for byte."""
        interrupted = tmp_path / "interrupted"
        straight = tmp_path / "straight"

        exp = make_experiment()
        assert exp.execute(interrupted, max_runs=2) is None
        assert not (interrupted / "report.json").exists()
        done = sorted((interrupted / "runs").glob("point*.json"))
        assert len(done) == 2
        fingerprints = {
            p.name: (p.stat().st_mtime_ns, p.read_bytes()) for p in done
        }

        events = []
        report = make_experiment().execute(
            interrupted, on_run=lambda run, event: events.append(event)
        )
        assert report is not None
        assert events.count(RESUMED) == 2
        assert events.count(EXECUTED) == 2
        for path in done:
            mtime, blob = fingerprints[path.name]
            assert path.stat().st_mtime_ns == mtime, "artifact rewritten"
            assert path.read_bytes() == blob

        make_experiment().execute(straight)
        assert (
            (interrupted / "report.json").read_bytes()
            == (straight / "report.json").read_bytes()
        )

    def test_completed_study_short_circuits(self, tmp_path):
        make_experiment().execute(tmp_path)
        events = []
        report = make_experiment().execute(
            tmp_path, on_run=lambda run, event: events.append(event)
        )
        assert report is not None
        assert set(events) == {RESUMED}
        assert validate_experiment_report(report.to_json()) == []

    def test_corrupt_run_file_is_rerun(self, tmp_path):
        exp = make_experiment()
        exp.execute(tmp_path, max_runs=1)
        (victim,) = (tmp_path / "runs").glob("point*.json")
        victim.write_text("{truncated", encoding="utf-8")
        report = make_experiment().execute(tmp_path)
        assert report is not None
        assert json.loads(victim.read_text(encoding="utf-8"))["result"]

    def test_foreign_artifact_fails_loudly(self, tmp_path):
        exp = make_experiment()
        exp.execute(tmp_path, max_runs=1)
        (victim,) = (tmp_path / "runs").glob("point*.json")
        doc = json.loads(victim.read_text(encoding="utf-8"))
        doc["seed"] += 1
        victim.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ExperimentError, match="does not match"):
            make_experiment().execute(tmp_path)

    @pytest.mark.parametrize("field, corrupt", [
        ("diagnosis_ok", lambda doc: doc["result"].pop("diagnosis_ok")),
        ("result", lambda doc: doc.update(result="not a point")),
        ("flow_count", lambda doc: doc["result"].update(flow_count="12")),
    ], ids=["missing-field", "result-not-object", "wrong-type"])
    def test_malformed_artifact_fails_loudly(self, tmp_path, field, corrupt):
        """A run document with the right identity but a broken result is
        neither a crash nor silently aggregated: the resume names the
        file and the field."""
        make_experiment().execute(tmp_path, max_runs=1)
        (victim,) = (tmp_path / "runs").glob("point*.json")
        doc = json.loads(victim.read_text(encoding="utf-8"))
        corrupt(doc)
        victim.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ExperimentError) as info:
            make_experiment().execute(tmp_path)
        assert victim.name in str(info.value)
        assert field in str(info.value)
        assert not (tmp_path / "report.json").exists()

    def test_changed_table_refuses_directory(self, tmp_path):
        make_experiment(reps=2).execute(tmp_path, max_runs=1)
        with pytest.raises(ExperimentError, match="different run table"):
            make_experiment(reps=3).execute(tmp_path)


class TestConstruction:
    def test_unknown_knob_named(self):
        with pytest.raises(ScenarioError, match=r"unknown knob\(s\) .*'bogus'"):
            Experiment(
                EXPERIMENTS.get("skew-degradation"), grid={"bogus": [1]}
            )

    def test_zero_reps_named(self):
        with pytest.raises(ExperimentError, match="reps must be >= 1"):
            make_experiment(reps=0)

    def test_run_reproduces_as_single_scenario(self, tmp_path):
        """Any (point, rep) cell replays bit-for-bit as a single run
        from its recorded seed and knobs — the cell contract, at
        every repetition."""
        from repro.core.rng import seed_run
        from repro.scenarios import run_scenario

        exp = make_experiment()
        exp.execute(tmp_path)
        for path in sorted((tmp_path / "runs").glob("point*.json")):
            doc = json.loads(path.read_text(encoding="utf-8"))
            result = doc["result"]
            seed_run(doc["seed"])
            single = run_scenario("gray-failure", **result["knobs"])
            assert result["problems"] == [
                v.problem for v in single.verdicts
            ]
            # round-trip through JSON: artifacts store tuples as lists
            assert result["measurements"] == json.loads(
                json.dumps(single.measurements)
            )
