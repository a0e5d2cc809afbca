"""Sweep-smoke benchmark: the CI regression-gate anchor for sweeps.

Runs the incast scale sweep at its two smallest populations as a
one-repetition run table (inline, one worker, fixed seed) and persists
its run artifacts to ``results/sweep_smoke.json`` as ``{"runs": [...],
"wall_time_s": total}``.  ``tools/check_bench_regression.py`` checks
each run document, then compares the per-run wall times in it against
the committed baseline in ``benchmarks/baselines/sweep_smoke.json`` and
fails CI on a >30% regression — this file is what keeps the runner's
per-point overhead honest, while the nightly scheduled run covers the
thousand-host end of the grid.
"""

import json
import time

import pytest

from repro.experiment import Experiment, ExperimentSpec, RunArtifact
from repro.sweep import SWEEPS

from benchmarks.reporting import emit

GRID = {"hosts": [64, 128]}
BASE_SEED = 1729


def run_sweep(out_dir):
    spec = SWEEPS.get("incast")
    experiment = Experiment(
        ExperimentSpec(sweep=spec.name, summary=spec.summary, axes=GRID, reps=1),
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
