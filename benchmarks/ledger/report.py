"""Print runs and write snapshots."""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Optional

from .runner import run_workload
from .workloads import WORKLOADS, op_count

SCHEMA = "switchpointer.ledger/v1"


def _print_metrics(metrics: dict[str, dict]) -> None:
    for name, m in metrics.items():
        spread = (f"   q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}"
                  if "n" in m else "")
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']:6s}{spread}")


def _print_run(run: dict) -> None:
    kind = "per-layer (traced pass)" if run["trace"] else "end to end"
    print(f"== {run['workload']}  seed {run['seed']}  {kind}  "
          f"ops {run['attempted']}  failed {run['failed']}")
    _print_metrics(run["metrics"])
    print(f"  fingerprints: {' '.join(map(str, run['fingerprints'][:8]))}"
          f"{' ...' if len(run['fingerprints']) > 8 else ''}")
    for failure in run["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)


def one_run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """One contract run; the result object is the last line printed.

    Failed output checks are reported in it (``correct``, ``failed``);
    the exit code is non-zero only when no result could be produced.
    """
    run = run_workload(workload, seed, seconds, trace)
    _print_run(run)
    print(json.dumps({
        "correct": run["correct"], "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in run["metrics"].items()}}))
    return 0


def _machine() -> dict[str, Any]:
    import numpy

    note: dict[str, Any] = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "platform": platform.platform()}
    try:
        # an annotation for the reader, never used to rescale a number
        from tools.check_bench_regression import calibrate
        note["cpu_probe_s"] = calibrate()
    except ImportError:
        note["cpu_probe_s"] = None
    return note


def whole_ledger(seed: int, seconds: float, out: Optional[Path],
                 name: str) -> int:
    """All four workloads, untraced then traced; optionally a snapshot."""
    started = time.perf_counter()
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    snapshot: dict[str, Any] = {
        "schema": SCHEMA, "seed": seed, "seconds": seconds,
        "machine": _machine(), "workloads": {}}
    samples = []
    correct = True
    for workload in WORKLOADS:
        spans = out / f"{name}.{workload}.spans.jsonl" if out else None
        runs = [run_workload(workload, seed, seconds, False),
                run_workload(workload, seed, seconds, True,
                             spans_path=spans)]
        entry: dict[str, Any] = {"ops": op_count(workload, seconds)}
        for run, section in zip(runs, ("end_to_end", "per_layer")):
            _print_run(run)
            correct = correct and run["correct"]
            entry[section] = run["metrics"]
            entry[f"{section}_fingerprints"] = run["fingerprints"]
            for child in run["children"]:
                for sample in child["ops"]:
                    if not child["traced"]:
                        # the traced ops of the same seeds carry them
                        sample = {k: v for k, v in sample.items()
                                  if k != "counters"}
                    samples.append({
                        "workload": workload, "section": section,
                        "traced": child["traced"], **sample})
        traced = runs[1]["children"][1]
        n = max(1, len(traced["ops"]))
        entry["layer_self_s"] = {
            layer: sum(parts.values()) / n
            for layer, parts in sorted(traced["trace"]["self_s"].items())}
        entry["untraced_names"] = traced["trace"]["missing"]
        entry["setup_samples_s"] = [c["setup_s"]
                                    for c in runs[0]["children"]]
        snapshot["workloads"][workload] = entry
    snapshot["wall_s"] = time.perf_counter() - started
    snapshot["correct"] = correct
    print(f"whole ledger: {snapshot['wall_s']:.1f} s wall, "
          f"{'all outputs correct' if correct else 'OUTPUT CHECKS FAILED'}")
    if out is not None:
        (out / f"{name}.json").write_text(
            json.dumps(snapshot, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
        with open(out / f"{name}.samples.jsonl", "w",
                  encoding="utf-8") as fh:
            for sample in samples:
                fh.write(json.dumps(sample, sort_keys=True) + "\n")
        print(f"snapshot: {out / name}.json (+ .samples.jsonl, "
              f".<workload>.spans.jsonl)")
    return 0 if correct else 1
