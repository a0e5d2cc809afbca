"""Sweep-smoke benchmark: the sweep path end to end in CI.

Runs the registered ``incast`` scale sweep at its two smallest
populations — its one-repetition run table with the grid overridden
(inline, one worker, fixed seed) — checks every run document with
:meth:`RunArtifact.check` and persists the run artifacts to
``results/sweep_smoke.json`` as ``{"runs": [...], "wall_time_s":
total}``.  The nightly scheduled run covers the thousand-host end of
the grid.
"""

import json
import time

import pytest

from repro.experiment import EXPERIMENTS
from repro.experiment.report import RunArtifact
from repro.experiment.runner import Experiment

from benchmarks.reporting import emit

GRID = {"hosts": [64, 128]}
BASE_SEED = 1729


def run_sweep(out_dir):
    experiment = Experiment(
        EXPERIMENTS.get("incast"),
        grid=GRID,
        base_seed=BASE_SEED,
        extra_knobs={"duration": 0.02, "burst_start": 0.008},
    )
    start = time.perf_counter()
    experiment.execute(out_dir, workers=1)
    wall_time_s = time.perf_counter() - start
    runs = [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted((out_dir / "runs").glob("point*.json"))
    ]
    return {"runs": runs, "wall_time_s": round(wall_time_s, 6)}


@pytest.mark.benchmark(group="sweep")
def test_sweep_smoke(benchmark, tmp_path):
    doc = benchmark.pedantic(run_sweep, args=(tmp_path,), rounds=1, iterations=1)
    problems = [
        problem
        for i, run in enumerate(doc["runs"])
        for problem in RunArtifact.check(run, f"runs[{i}]")
    ]
    assert problems == [], problems

    grid_str = ",".join(str(h) for h in GRID["hosts"])
    lines = [f"scenario: incast   grid: hosts={grid_str}"]
    for run in doc["runs"]:
        result = run["result"]
        lines.append(
            f"  hosts={run['params']['hosts']:5d}  "
            f"wall={result['wall_time_s'] * 1e3:7.1f} ms  "
            f"peak_records={result['peak_records']}  "
            f"ok={result['ok']}"
        )
    lines.append(f"total wall: {doc['wall_time_s'] * 1e3:.1f} ms")
    emit("sweep_smoke", lines, data=doc)

    hosts = [run["params"]["hosts"] for run in doc["runs"]]
    assert hosts == GRID["hosts"]
    assert all(run["result"]["ok"] for run in doc["runs"]), [
        run["result"]["error"] or run["result"]["problems"] for run in doc["runs"]
    ]
