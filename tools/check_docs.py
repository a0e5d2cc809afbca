#!/usr/bin/env python3
"""Run every documentation check in one pass (CI's docs job).

One registry of checks replaces the copy-pasted per-generator CI steps:
a registry-driven page joins ``tools/gen_docs.py``'s table, any other
check is one entry here, and the docs job, the tier-1 sync test, and a
local ``python tools/check_docs.py`` all pick it up.

Exit code 0 when everything is in sync, 1 otherwise (every failing
check is reported, not just the first).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: (label, argv) — every check the docs job runs, in order.
CHECKS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("intra-repo markdown links", ("tools/check_links.py",)),
    ("generated docs pages vs their sources", ("tools/gen_docs.py", "--check")),
    (
        "results/figures vs committed experiment reports",
        ("tools/plot_experiments.py", "--check"),
    ),
)


def main(argv: list[str]) -> int:
    failed = []
    for label, args in CHECKS:
        proc = subprocess.run(
            [sys.executable, str(REPO / args[0]), *args[1:]],
            capture_output=True,
            text=True,
        )
        status = "ok" if proc.returncode == 0 else "FAIL"
        print(f"[{status}] {label}")
        if proc.returncode != 0:
            failed.append(label)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
    if failed:
        print(
            f"check_docs: {len(failed)}/{len(CHECKS)} check(s) failed: "
            + "; ".join(failed),
            file=sys.stderr,
        )
        return 1
    print(f"check_docs: all {len(CHECKS)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
