#!/usr/bin/env python3
"""Generate docs/BENCHMARKS.md from benchmarks/baselines/*.json.

Usage::

    python tools/gen_bench_docs.py            # (re)write the page
    python tools/gen_bench_docs.py --check    # exit 1 if out of date

The committed baseline documents are the single source of truth for
the CI benchmark-regression gate (``tools/check_bench_regression.py``);
this page renders the same files, so the documented numbers cannot
drift from the gated ones.  A tier-1 test (and the CI docs job)
asserts the checked-in page matches this renderer's output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BASELINES = REPO / "benchmarks" / "baselines"
TARGET = REPO / "docs" / "BENCHMARKS.md"

_PREAMBLE = """\
# Benchmark baselines

<!-- GENERATED FILE — do not edit by hand.
     Regenerate with: python tools/gen_bench_docs.py -->

Every file under `benchmarks/baselines/` pins the wall-time reference
for one gated benchmark.  CI's blocking `bench-gate` job re-runs the
benchmarks, then `tools/check_bench_regression.py` compares each
metric below against its committed reference and **fails the build**
when a metric exceeds `baseline x max_factor` (scaled by a CPU
calibration probe, so a slower runner gets proportional headroom — a
baseline's `calibration_s` records the probe time on the machine that
committed it).

## Refreshing the numbers

Run the gated benchmarks, then rewrite the baselines from the fresh
results and commit the diff deliberately — it is the new reference:

```sh
python -m pytest benchmarks/test_query_index.py \\
    benchmarks/test_sweep_smoke.py \\
    benchmarks/test_engine_eventloop.py -q
python tools/check_bench_regression.py --update
```

One-off noisy runners can widen the allowance without touching the
committed files via the `BENCH_REGRESSION_FACTOR` environment
variable.
"""


def _baseline_markdown(path: Path) -> str:
    doc = json.loads(path.read_text(encoding="utf-8"))
    lines = [f"## `{path.stem}`", ""]
    description = doc.get("description")
    if description:
        lines.extend([description, ""])
    lines.append(f"- **Baseline file:** `benchmarks/baselines/{path.name}`")
    lines.append(f"- **Gated results document:** `results/{doc['source']}`")
    lines.append(f"- **Allowed factor:** {doc.get('max_factor', '(default)')}")
    calibration = doc.get("calibration_s")
    if calibration is not None:
        lines.append(f"- **Baseline machine calibration:** {calibration} s")
    lines.append("")
    lines.append("| metric | baseline |")
    lines.append("|---|---|")
    for metric, value in sorted(doc.get("metrics", {}).items()):
        lines.append(f"| `{metric}` | {value} |")
    return "\n".join(lines) + "\n"


def benchmarks_markdown() -> str:
    """The full ``docs/BENCHMARKS.md`` body."""
    sections = [_PREAMBLE]
    for path in sorted(BASELINES.glob("*.json")):
        sections.append(_baseline_markdown(path))
    return "\n".join(sections)


def main(argv: list[str]) -> int:
    text = benchmarks_markdown()
    if "--check" in argv:
        current = TARGET.read_text(encoding="utf-8") if TARGET.exists() else ""
        if current != text:
            print(
                f"{TARGET.relative_to(REPO)} is out of date; "
                f"run: python tools/gen_bench_docs.py",
                file=sys.stderr,
            )
            return 1
        print(f"{TARGET.relative_to(REPO)} is up to date")
        return 0
    TARGET.parent.mkdir(exist_ok=True)
    TARGET.write_text(text, encoding="utf-8")
    print(f"wrote {TARGET.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
