#!/usr/bin/env python3
"""Generate the registry-driven catalogue pages under docs/.

Usage::

    python tools/gen_docs.py                         # (re)write every page
    python tools/gen_docs.py scenarios faults        # only these catalogues
    python tools/gen_docs.py --check [catalogue ...] # exit 1 if any is stale

Each page and its CLI listing render the same registry metadata, so a
catalogue cannot drift from the code.  ``--check`` writes nothing and
names every stale page, not only the first.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable

REPO = Path(__file__).resolve().parent.parent

sys.path[:0] = [str(REPO / "src"), str(REPO)]

from repro.directory import directory_markdown  # noqa: E402
from repro.experiment.catalog import experiments_markdown  # noqa: E402
from repro.faults import faults_markdown  # noqa: E402
from repro.scenarios import catalog_markdown  # noqa: E402
from tools.reprolint.catalog import rules_markdown  # noqa: E402

#: catalogue name → (page, renderer)
CATALOGUES: dict[str, tuple[str, Callable[[], str]]] = {
    "scenarios": ("docs/SCENARIOS.md", catalog_markdown),
    "faults": ("docs/FAULTS.md", faults_markdown),
    "directories": ("docs/DIRECTORIES.md", directory_markdown),
    "experiments": ("docs/EXPERIMENTS.md", experiments_markdown),
    "lint": ("docs/LINTING.md", rules_markdown),
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
