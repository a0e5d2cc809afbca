#!/usr/bin/env python3
"""Generate the registry-driven catalogue pages under docs/ and the
benchmark-baseline table (docs/BENCHMARKS.md).

Usage::

    python tools/gen_docs.py                         # (re)write every page
    python tools/gen_docs.py scenarios faults        # only these catalogues
    python tools/gen_docs.py --check [catalogue ...] # exit 1 if any is stale

Each page and its CLI listing render the same registry metadata, so a
catalogue cannot drift from the code; the benchmarks page renders the
committed baselines the CI regression gate reads.  ``--check`` writes
nothing and names every stale page, not only the first.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable

REPO = Path(__file__).resolve().parent.parent

sys.path[:0] = [str(REPO / "src"), str(REPO)]

from repro.directory import directory_markdown  # noqa: E402
from repro.experiment import experiments_markdown  # noqa: E402
from repro.faults import faults_markdown  # noqa: E402
from repro.scenarios import catalog_markdown  # noqa: E402
from repro.sweep import sweeps_markdown  # noqa: E402
from tools.reprolint.catalog import rules_markdown  # noqa: E402

_BENCHMARKS_PREAMBLE = """\
# Benchmark baselines

<!-- GENERATED FILE — do not edit by hand.
     Regenerate with: python tools/gen_docs.py benchmarks -->

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
    """The baselines ``tools/check_bench_regression.py`` gates on."""
    baselines = sorted((REPO / "benchmarks" / "baselines").glob("*.json"))
    return "\n".join([_BENCHMARKS_PREAMBLE, *map(_baseline_markdown, baselines)])


#: catalogue name → (page, renderer)
CATALOGUES: dict[str, tuple[str, Callable[[], str]]] = {
    "scenarios": ("docs/SCENARIOS.md", catalog_markdown),
    "faults": ("docs/FAULTS.md", faults_markdown),
    "directories": ("docs/DIRECTORIES.md", directory_markdown),
    "sweeps": ("docs/SWEEPS.md", sweeps_markdown),
    "experiments": ("docs/EXPERIMENTS.md", experiments_markdown),
    "lint": ("docs/LINTING.md", rules_markdown),
    "benchmarks": ("docs/BENCHMARKS.md", benchmarks_markdown),
}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="gen_docs.py", description="Generate the catalogue pages."
    )
    parser.add_argument(
        "--check", action="store_true", help="exit 1 if a page is out of date"
    )
    parser.add_argument(
        "catalogues",
        nargs="*",
        metavar="catalogue",
        help=f"any of {', '.join(CATALOGUES)} (default: all)",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.catalogues if name not in CATALOGUES]
    if unknown:
        parser.error(
            f"unknown catalogue {unknown[0]!r}; known: {', '.join(CATALOGUES)}"
        )
    stale = []
    for name in args.catalogues or CATALOGUES:
        page, render = CATALOGUES[name]
        path = REPO / page
        text = render()
        if not args.check:
            path.write_text(text, encoding="utf-8")
            print(f"wrote {page}")
        elif not path.exists() or path.read_text(encoding="utf-8") != text:
            stale.append(page)
        else:
            print(f"{page} is up to date")
    if stale:
        print(
            f"out of date: {', '.join(stale)}; run: python tools/gen_docs.py",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
