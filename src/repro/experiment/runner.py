"""The experiment runner: a seeded run table, resumable on disk.

:class:`Experiment` expands an :class:`~repro.experiment.registry.
ExperimentSpec` into its run table (``table.py``), executes every
``(point, rep)`` cell through the cell runner
(:func:`repro.experiment.cells.run_cells` — one cell, one replay
contract), and
persists one artifact directory per study:

    <dir>/manifest.json            # table identity (refuses mismatches)
    <dir>/runs/point000_rep00.json # one document per completed run
    <dir>/report.json              # aggregated ExperimentReport

Runs land on disk as they finish (written to a temp name, then
``os.replace``\\ d, so a kill mid-write leaves no half document).  On
re-invocation every intact run document whose seed matches the table is
checked against the :class:`~repro.experiment.report.RunArtifact` table
and reused untouched, and only the missing cells execute — an interrupted
study resumes, and because the report aggregates only seed-determined
fields, the resumed ``report.json`` is byte-identical to an
uninterrupted one.

``max_runs`` bounds how many *new* runs one invocation executes (the
interruption hook the resumability tests drive); a study with cells
still missing gets no report until a later invocation completes it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from .cells import DEFAULT_BASE_SEED, run_cells
from .records import PointResult, write_json, write_report
from .registry import ExperimentError, ExperimentSpec
from .report import (
    MANIFEST_SCHEMA,
    RUN_SCHEMA,
    ExperimentReport,
    RunArtifact,
    aggregate_runs,
)
from .table import Run, expand_run_table

#: ``on_run`` progress events.
RESUMED = "resumed"
EXECUTED = "executed"


class Experiment:
    """One study: a scenario × a run table × derived seeds."""

    def __init__(
        self,
        spec: ExperimentSpec,
        *,
        grid: Optional[dict[str, Sequence[Any]]] = None,
        reps: Optional[int] = None,
        base_seed: int = DEFAULT_BASE_SEED,
        extra_knobs: Optional[dict[str, Any]] = None,
        extra_points: Sequence[dict[str, Any]] = (),
    ):
        from ..scenarios.base import REGISTRY, check_knobs

        self.spec = spec
        table = spec.grid if grid is None else grid
        self.grid = {knob: list(values) for knob, values in table.items()}
        self.reps = spec.reps if reps is None else reps
        self.base_seed = base_seed
        self.runs: list[Run] = expand_run_table(
            self.grid, self.reps, base_seed, extra_points
        )
        # resolve every run's knobs up front: an invalid table fails
        # before any run burns wall time
        self.knobs = [spec.knobs_for(run.params, extra_knobs) for run in self.runs]
        scenario = REGISTRY.get(spec.scenario).spec
        for knobs in self.knobs:
            check_knobs(scenario, knobs)

    # -- artifact layout ----------------------------------------------------

    @staticmethod
    def run_filename(run: Run) -> str:
        return f"point{run.point:03d}_rep{run.rep:02d}.json"

    def manifest(self) -> dict[str, Any]:
        """The table identity a resumed invocation must reproduce."""
        return {
            "schema": MANIFEST_SCHEMA,
            "experiment": self.spec.name,
            "scenario": self.spec.scenario,
            "base_seed": self.base_seed,
            "reps": self.reps,
            "grid": self.grid,
            "runs": len(self.runs),
        }

    def _check_manifest(self, out_dir: Path) -> None:
        path = out_dir / "manifest.json"
        manifest = self.manifest()
        if path.exists():
            existing = json.loads(path.read_text(encoding="utf-8"))
            if existing != manifest:
                raise ExperimentError(
                    f"{path} belongs to a different run table (seed, "
                    f"grid, or reps changed) — point --out-dir at a "
                    f"fresh directory or restore the original "
                    f"parameters"
                )
        else:
            out_dir.mkdir(parents=True, exist_ok=True)
            write_json(path, manifest)

    def _load_completed(self, runs_dir: Path) -> dict[int, dict[str, Any]]:
        """Intact artifacts by run index; foreign or malformed ones fail
        loudly, naming the file."""
        completed: dict[int, dict[str, Any]] = {}
        for run in self.runs:
            path = runs_dir / self.run_filename(run)
            if not path.exists():
                continue
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
            except json.JSONDecodeError:
                # a run killed mid-write before atomic rename existed,
                # or a truncated copy: treat as not-yet-run
                continue
            if (
                not isinstance(doc, dict)
                or doc.get("schema") != RUN_SCHEMA
                or doc.get("seed") != run.seed
                or doc.get("params") != run.params
            ):
                raise ExperimentError(
                    f"{path} does not match this run table (expected "
                    f"seed {run.seed}, params {run.params}) — stale "
                    f"artifact from another study?"
                )
            problems = RunArtifact.check(doc, "")
            if problems:
                raise ExperimentError(
                    f"{path} is a malformed run artifact: {'; '.join(problems)}"
                )
            if doc["result"]["knobs"] != self.knobs[run.index]:
                raise ExperimentError(
                    f"{path} ran at knobs {doc['result']['knobs']}, this "
                    f"table at {self.knobs[run.index]} — --knob pins "
                    f"changed; point --out-dir at a fresh directory"
                )
            completed[run.index] = doc
        return completed

    # -- execution ----------------------------------------------------------

    def execute(
        self,
        out_dir: Path,
        *,
        workers: Optional[int] = None,
        max_runs: Optional[int] = None,
        on_run: Optional[Callable[[Run, str], None]] = None,
    ) -> Optional[ExperimentReport]:
        """Run every missing cell; aggregate once the table is complete.

        Returns the :class:`ExperimentReport` (also written to
        ``report.json``, unless it fails its schema: then nothing is
        written and :class:`ExperimentError` names the problems) when
        all runs exist, or ``None`` when ``max_runs`` stopped the
        invocation with cells still missing.
        ``workers`` defaults to the CPU count (capped at the runs left);
        ``on_run`` observes each cell with :data:`RESUMED` or
        :data:`EXECUTED` as it is accounted for.
        """
        if workers is not None and workers < 1:
            raise ExperimentError("workers must be >= 1")
        if max_runs is not None and max_runs < 0:
            raise ExperimentError(f"max_runs must be >= 0, got {max_runs}")
        out_dir = Path(out_dir)
        self._check_manifest(out_dir)
        runs_dir = out_dir / "runs"
        runs_dir.mkdir(exist_ok=True)
        completed = self._load_completed(runs_dir)
        for run in self.runs:
            if run.index in completed and on_run is not None:
                on_run(run, RESUMED)
        todo = [run for run in self.runs if run.index not in completed]
        if max_runs is not None:
            todo = todo[:max_runs]

        def record(result: PointResult) -> None:
            run = self.runs[result.index]
            doc = RunArtifact(
                experiment=self.spec.name,
                point=run.point,
                rep=run.rep,
                params=run.params,
                seed=run.seed,
                result=result,
            ).to_json()
            write_json(runs_dir / self.run_filename(run), doc)
            completed[run.index] = doc
            if on_run is not None:
                on_run(run, EXECUTED)

        cells = [
            self.spec.cell(run.index, run.params, self.knobs[run.index], run.seed)
            for run in todo
        ]
        run_cells(cells, workers, record)
        if len(completed) < len(self.runs):
            return None
        report = aggregate_runs(
            experiment=self.spec.name,
            scenario=self.spec.scenario,
            expect_problem=self.spec.expect_problem,
            base_seed=self.base_seed,
            reps=self.reps,
            grid=self.grid,
            artifacts=[completed[run.index] for run in self.runs],
        )
        problems = write_report(out_dir / "report.json", report)
        if problems:
            raise ExperimentError("invalid report: " + "; ".join(problems))
        return report
