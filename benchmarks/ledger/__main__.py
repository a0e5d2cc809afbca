"""``python -m benchmarks.ledger run | compare`` (run from the repo root).

``run --workload W --seed N --seconds S --trace 0|1`` is one run of one
workload; its last line of output is the result object the benchmark
contract defines.  ``run`` without ``--workload`` is the whole ledger:
all four workloads, untraced then traced, every metric by name with its
unit, and with ``--out DIR`` a snapshot (aggregate JSON, raw samples
JSONL, one span file per workload).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .runner import ROOT

SEED = 1729
#: default ``--seconds``: 6 / 9 / 270 / 8 ops, the rep counts behind the
#: committed snapshot
LEDGER_SECONDS = 30


def _need_program() -> None:
    """The program under test is ``src/repro`` of this checkout."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"benchmarks.ledger: no program to measure at {src}/repro")
    sys.path.insert(0, str(src))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure one workload or all four")
    run.add_argument("--workload")
    run.add_argument("--seed", type=int, default=SEED)
    run.add_argument("--seconds", type=float)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", type=Path,
                     help="write the snapshot of a whole-ledger run here")
    run.add_argument("--name", default="BENCH",
                     help="file stem of the snapshot")

    cmp_ = sub.add_parser("compare", help="A B [A2 B2 ...] snapshots")
    cmp_.add_argument("snapshots", nargs="+", type=Path)

    kid = sub.add_parser("child")           # what `run` spawns
    kid.add_argument("--workload", required=True)
    kid.add_argument("--seed", type=int, required=True)
    kid.add_argument("--ops", type=int, required=True)
    kid.add_argument("--traced", type=int, default=0)
    kid.add_argument("--toy", type=int, default=0)
    kid.add_argument("--spawned-at", type=float, required=True)
    kid.add_argument("--spans")

    args = parser.parse_args(argv)
    if args.command == "compare":
        from .compare import compare
        return compare(args.snapshots)

    _need_program()
    if args.command == "child":
        from .runner import child
        print(json.dumps(child(args.workload, args.seed, args.ops,
                               bool(args.traced), bool(args.toy),
                               args.spawned_at, args.spans)))
        return 0

    from . import report
    from .workloads import WORKLOADS
    if args.workload is None:
        return report.whole_ledger(
            args.seed, args.seconds or LEDGER_SECONDS, args.out, args.name)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    return report.one_run(args.workload, args.seed,
                          args.seconds or LEDGER_SECONDS, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
