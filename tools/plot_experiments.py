#!/usr/bin/env python3
"""Render committed experiment reports into degradation figures.

Usage::

    python tools/plot_experiments.py            # (re)write the figures
    python tools/plot_experiments.py --check    # exit 1 if out of date

Every ``results/experiments/<name>/report.json`` whose registered
``ExperimentSpec`` declares a figure becomes
``results/figures/<name>.svg`` via the deterministic pure-Python SVG
renderer (:func:`repro.experiment.figures.figure_svg`) — same bytes from the
same report, so ``--check`` can hold the committed figures to the
committed reports exactly like the generated-docs checks.  Reports are
schema-validated before anything renders; an invalid report fails the
run rather than producing a figure from garbage.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
REPORTS = REPO / "results" / "experiments"
FIGURES = REPO / "results" / "figures"

sys.path.insert(0, str(REPO / "src"))

from repro.experiment import EXPERIMENTS, ExperimentError  # noqa: E402
from repro.experiment.figures import figure_svg  # noqa: E402
from repro.experiment.report import validate_experiment_report  # noqa: E402


def render_all() -> dict[Path, str]:
    """``figure path -> svg text`` for every plottable committed report."""
    figures: dict[Path, str] = {}
    for report_path in sorted(REPORTS.glob("*/report.json")):
        doc = json.loads(report_path.read_text(encoding="utf-8"))
        problems = validate_experiment_report(doc)
        if problems:
            raise ExperimentError(
                f"{report_path.relative_to(REPO)}: invalid report: "
                + "; ".join(problems)
            )
        name = doc["experiment"]
        spec = EXPERIMENTS.get(name)
        if spec.figure is None:
            continue
        figures[FIGURES / f"{name}.svg"] = figure_svg(doc, spec.figure)
    return figures


def main(argv: list[str]) -> int:
    try:
        figures = render_all()
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not figures:
        print(
            f"no committed reports under {REPORTS.relative_to(REPO)} "
            f"declare figures",
            file=sys.stderr,
        )
        return 2
    if "--check" in argv:
        stale = []
        for path, text in figures.items():
            current = path.read_text(encoding="utf-8") if path.exists() else ""
            if current != text:
                stale.append(path.relative_to(REPO))
        if stale:
            print(
                "out of date: "
                + ", ".join(str(p) for p in stale)
                + "; run: python tools/plot_experiments.py",
                file=sys.stderr,
            )
            return 1
        print(f"{len(figures)} figure(s) up to date")
        return 0
    FIGURES.mkdir(parents=True, exist_ok=True)
    for path, text in figures.items():
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
