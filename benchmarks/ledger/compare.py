"""``compare A B [A2 B2 ...]``: is B no worse than A, metric by metric?

A and B are snapshots written by ``run --out`` (A the parent commit, B
the change; more pairs = more runs of each).  One row is printed per
(workload, end-to-end metric) with both medians, both quartile ranges
and the bound from ``BENCHMARK.json``, judged by the rule of the
``choosing-metrics`` guide (sections 6.5 and 8):

``better``      at least ten pairs were run, B wins at least nine tenths
                of them (ties count for neither side) and the medians
                differ by more than the quartile range of A's own runs
``unresolved``  A's run-to-run spread is wider than the bound, and not
                every run of B reads better than every run of A
``worse``       B's median is worse than A's by more than the bound
``same``        otherwise

With several pairs a "run" is one snapshot.  With a single pair there
are no repeated runs to take a spread from: the spread of a run's median
is *estimated* from its per-op samples as 1.25 x IQR / sqrt(n), and no
gain is claimed — two runs minutes apart on a shared machine differ by a
few percent in one direction on every op.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Any

from .runner import ROOT, quartiles

MIN_PAIRS_FOR_A_GAIN = 10

#: end-to-end metric -> its value for one op, from the op's sample row
PER_OP = {"op_wall_ms": lambda row: row["wall_ms"],
          "op_cpu_ms": lambda row: row["cpu_ms"],
          "debug_time_model_ms": lambda row: row["model_ms"],
          "hosts_spared_share": lambda row: 1.0 - row["hosts_share"]}


def load(path: Path) -> dict[str, Any]:
    snapshot = json.loads(path.read_text(encoding="utf-8"))
    samples_path = path.with_name(path.stem + ".samples.jsonl")
    rows = []
    if samples_path.exists():
        with open(samples_path, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
    snapshot["samples"] = [r for r in rows if r["section"] == "end_to_end"
                           and "wall_ms" in r]
    return snapshot


def _values(snapshots: list[dict], workload: str, metric: str
            ) -> tuple[list[float], bool]:
    """The runs of one side, and whether they are real repeated runs."""
    if len(snapshots) > 1:
        return [s["workloads"][workload]["end_to_end"][metric]["value"]
                for s in snapshots], True
    entry = snapshots[0]["workloads"][workload]
    if metric == "setup_s":
        return list(entry["setup_samples_s"]), False
    per_op = PER_OP.get(metric)
    samples = [per_op(r) for r in snapshots[0]["samples"]
               if per_op and r["workload"] == workload]
    return samples or [entry["end_to_end"][metric]["value"]], False


def judge(a: list[float], b: list[float], *, better: str, bound: float,
          repeated: bool) -> tuple[str, float, float]:
    """(verdict, A's spread as a share of its median, B worse by)."""
    sign = 1 if better == "lower" else -1
    a_med, b_med = statistics.median(a), statistics.median(b)
    q1, q3 = quartiles(a)
    spread = q3 - q1
    if not repeated:
        spread *= 1.2533 / math.sqrt(len(a))
    scale = abs(a_med) or 1.0
    worse_by = sign * (b_med - a_med) / scale
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    separated = repeated and (max(b) < min(a) if sign > 0
                              else min(b) > max(a))
    if (repeated and len(pairs) >= MIN_PAIRS_FOR_A_GAIN and worse_by < 0
            and wins >= 0.9 * len(pairs) and abs(b_med - a_med) > spread):
        verdict = "better"
    elif spread / scale > bound and not separated:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    else:
        verdict = "same"
    return verdict, spread / scale, worse_by


def _fmt(values: list[float]) -> str:
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.5g} [{q1:.5g}..{q3:.5g}]"


def compare(paths: list[Path]) -> int:
    if len(paths) < 2 or len(paths) % 2:
        print("compare needs pairs of snapshots: A B [A2 B2 ...]")
        return 2
    side_a = [load(p) for p in paths[0::2]]
    side_b = [load(p) for p in paths[1::2]]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    worst = 0
    print(f"{'workload':19s} {'metric':22s} {'A median [q1..q3]':>30s} "
          f"{'B median [q1..q3]':>30s} {'bound':>6s} {'B worse by':>10s}  "
          f"verdict")
    for workload in side_a[0]["workloads"]:
        for spec in declared["end_to_end"]:
            metric = spec["name"]
            a, repeated = _values(side_a, workload, metric)
            b, _ = _values(side_b, workload, metric)
            verdict, _spread, worse_by = judge(
                a, b, better=spec["better"], bound=spec["bound"],
                repeated=repeated)
            worst = max(worst, verdict == "worse")
            print(f"{workload:19s} {metric:22s} {_fmt(a):>30s} "
                  f"{_fmt(b):>30s} {spec['bound']:6.3f} "
                  f"{worse_by:+10.2%}  {verdict}")
        worst = max(worst, _exact(workload, side_a[0], side_b[0]))
    return int(worst)


def _exact(workload: str, a: dict, b: dict) -> bool:
    """With one seed on both sides, everything simulated must repeat
    exactly: fingerprints and every count-type per-layer metric."""
    if a["seed"] != b["seed"] or a["seconds"] != b["seconds"]:
        print(f"{workload:19s} seeds or rep counts differ: "
              f"fingerprints and counts not compared")
        return False
    wa, wb = a["workloads"][workload], b["workloads"][workload]
    changed = [
        f"{name} {m['value']:g} -> {wb['per_layer'][name]['value']:g}"
        for name, m in wa["per_layer"].items()
        if m["unit"] in ("count", "bit", "B")
        and wb["per_layer"].get(name, m)["value"] != m["value"]]
    same_prints = all(wa[key] == wb[key] for key in (
        "end_to_end_fingerprints", "per_layer_fingerprints"))
    print(f"{workload:19s} fingerprints "
          f"{'identical' if same_prints else 'DIFFER'}; counts "
          f"{'identical' if not changed else 'DIFFER: ' + '; '.join(changed)}")
    return bool(changed) or not same_prints
