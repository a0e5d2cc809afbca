#!/usr/bin/env python3
"""Benchmark-regression gate: compare results/ JSON against baselines.

Usage::

    python tools/check_bench_regression.py            # gate (CI, blocking)
    python tools/check_bench_regression.py --update   # refresh baselines

Every file in ``benchmarks/baselines/*.json`` names a results document
and the wall-time metrics gated inside it::

    {
      "source": "query_index.json",            // under results/
      "max_factor": 1.3,                       // >30% slower fails
      "metrics": {"indexed_match_ms": 11.2, "runs.0.result.wall_time_s": 0.31}
    }

Metric keys are dotted paths into the source document (integer segments
index into lists), so a sweep's run artifacts gate per grid point.  Every
element of a source's ``runs`` list is checked as a run artifact before
any number is trusted.  Run the benchmarks that emit the sources first::

    python -m pytest benchmarks/test_query_index.py \
        benchmarks/test_sweep_smoke.py -q

Baselines are committed from whatever machine ran ``--update``, while
the gate usually runs on a different (often slower, noisier) CI runner.
To keep the 30% threshold meaningful across machines, each baseline
stores a ``calibration_s`` — the wall time of a fixed CPU-bound probe
loop on the baseline machine.  The gate re-runs the same probe and
scales each metric's allowance by ``max(1, current/baseline)``: a
slower runner gets proportionally more headroom, a faster one still has
to beat the absolute baseline.  (A baseline without ``calibration_s``
gates on absolute times.)

``--update`` rewrites each baseline's metric values (and calibration)
from the current results — commit the diff deliberately, it is the new
reference.  The allowed factor can also be widened for an exceptionally
noisy runner via the ``BENCH_REGRESSION_FACTOR`` environment variable
without editing the committed baselines.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Any

REPO = Path(__file__).resolve().parent.parent
BASELINES = REPO / "benchmarks" / "baselines"
RESULTS = REPO / "results"
DEFAULT_MAX_FACTOR = 1.3

sys.path.insert(0, str(REPO / "src"))

from repro.experiment.report import RunArtifact  # noqa: E402


def calibrate() -> float:
    """Wall time of a fixed CPU-bound probe (machine-speed yardstick).

    Best of three runs of a pure-Python arithmetic loop — the same kind
    of work the gated benchmarks spend their time on, so the ratio of
    probe times approximates the ratio of benchmark times between the
    baseline machine and the gating machine.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(1_500_000):
            acc += i * i
        best = min(best, time.perf_counter() - start)
    return best


def resolve(doc: Any, path: str) -> Any:
    """Walk a dotted path; integer segments index into lists."""
    node = doc
    for segment in path.split("."):
        if isinstance(node, list):
            node = node[int(segment)]
        elif isinstance(node, dict):
            node = node[segment]
        else:
            raise KeyError(path)
    return node


def load_source(name: str) -> Any:
    path = RESULTS / name
    if not path.exists():
        raise FileNotFoundError(
            f"{path.relative_to(REPO)} missing — run the benchmarks "
            f"that emit it first (see --help)"
        )
    doc = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(doc, dict) and isinstance(doc.get("runs"), list):
        problems = [
            problem
            for i, run in enumerate(doc["runs"])
            for problem in RunArtifact.check(run, f"runs[{i}]")
        ]
        if problems:
            raise ValueError(
                f"{path.relative_to(REPO)} failed schema validation: "
                + "; ".join(problems)
            )
    return doc


def check_baseline(
    baseline_path: Path,
    *,
    factor_override: float | None,
    update: bool,
    calibration_s: float,
) -> list[str]:
    """Gate (or refresh) one baseline file; returns failure messages."""
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    source_name = baseline["source"]
    max_factor = factor_override or baseline.get("max_factor", DEFAULT_MAX_FACTOR)
    base_cal = baseline.get("calibration_s")
    speed_ratio = 1.0
    if base_cal and not update:
        # slower machine than the baseline's → proportionally more
        # headroom; faster → still must meet the absolute baseline
        speed_ratio = max(1.0, calibration_s / base_cal)
    failures: list[str] = []
    try:
        doc = load_source(source_name)
    except (FileNotFoundError, ValueError) as exc:
        return [str(exc)]
    for metric, reference in baseline["metrics"].items():
        try:
            current = resolve(doc, metric)
        except (KeyError, IndexError, ValueError):
            failures.append(f"{source_name}: metric {metric!r} missing from results")
            continue
        if not isinstance(current, (int, float)) or isinstance(current, bool):
            failures.append(f"{source_name}: metric {metric!r} is not a number")
            continue
        if update:
            baseline["metrics"][metric] = current
            continue
        allowed = reference * max_factor * speed_ratio
        verdict = "ok" if current <= allowed else "REGRESSION"
        print(
            f"  {source_name}:{metric}  baseline={reference:.4g}  "
            f"current={current:.4g}  allowed<={allowed:.4g}  {verdict}"
        )
        if current > allowed:
            failures.append(
                f"{source_name}: {metric} regressed "
                f"{current / reference:.2f}x over baseline "
                f"({current:.4g} vs {reference:.4g}, allowed factor "
                f"{max_factor} x speed ratio {speed_ratio:.2f})"
            )
    if update:
        baseline["calibration_s"] = round(calibration_s, 4)
        baseline_path.write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"updated {baseline_path.relative_to(REPO)}")
    return failures


def main(argv: list[str]) -> int:
    update = "--update" in argv
    factor_env = os.environ.get("BENCH_REGRESSION_FACTOR")
    factor_override = float(factor_env) if factor_env else None
    baseline_paths = sorted(BASELINES.glob("*.json"))
    if not baseline_paths:
        print(
            f"no baselines under {BASELINES.relative_to(REPO)}",
            file=sys.stderr,
        )
        return 1
    calibration_s = calibrate()
    print(f"machine calibration probe: {calibration_s * 1e3:.1f} ms")
    failures: list[str] = []
    for path in baseline_paths:
        print(f"{path.relative_to(REPO)}:")
        failures.extend(
            check_baseline(
                path,
                factor_override=factor_override,
                update=update,
                calibration_s=calibration_s,
            )
        )
    if failures:
        print()
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    if not update:
        print("benchmark gate: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
