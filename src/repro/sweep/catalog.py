"""Render ``docs/SWEEPS.md`` from the sweep registry metadata.

Same one-source-of-truth idiom as the scenario catalogue: the page and
``python -m repro.cli sweep list`` render identical
:class:`~repro.sweep.registry.SweepSpec` objects.  Refresh with::

    python tools/gen_docs.py sweeps

A tier-1 test (and the CI docs job) asserts the checked-in page matches
this renderer's output.
"""

from __future__ import annotations

from typing import Sequence

from .registry import SWEEPS, SweepSpec
from .report import SCHEMA

_PREAMBLE = """\
# Scale sweeps

<!-- GENERATED FILE — do not edit by hand.
     Regenerate with: python tools/gen_docs.py sweeps -->

A *sweep* executes one registered scenario across a parameter grid —
the thousand-host **fabric** axis and the thousand-flow **traffic**
axis that the single-run scenario catalogue
([SCENARIOS.md](SCENARIOS.md)) does not cover.  Run one with

```sh
python -m repro.cli sweep run <sweep> [--grid axis=v1,v2,...] ...
```

and list the registered sweeps with `python -m repro.cli sweep list`.
Sweeps are registered under their own names: several sweeps may
exercise the same scenario along different axes (`incast` scales the
fabric population, `incast-scale` the concurrent-flow population).

## Grid syntax

Each `--grid` flag takes one or more `axis=v1,v2,...` expressions and
may repeat — `--grid hosts=256 flows=2000` and
`--grid hosts=256 --grid flows=2000` are the same grid; values are
coerced to bool/int/float/str.  The sweep runs the cartesian product of
all axes in row-major order (last axis fastest).  Axes are declared per
sweep (tables below) and bind to scenario knobs; anything not on an
axis can still be pinned for every point with `--knob key=value`.

The shared `flows` axis drives the synthetic background flow
population ([WORKLOADS.md](WORKLOADS.md)): hundreds to thousands of
concurrent flows planned in batches and emitted by one heap-driven
source, so the diagnosis layers are stressed by traffic scale, not the
generator.

## Worker model and seeds

Grid points are independent experiments: they execute in
`multiprocessing` workers (`--workers N`, default = CPU count capped at
the point count; `1` = inline, no pool).  Every point derives a stable
seed from `(base seed, point index)` via CRC32, applied before the
scenario builds — so any point reproduces bit-for-bit, regardless of
worker count or completion order, by replaying its recorded `knobs`
and `seed` from the report:
`python -m repro.cli run <scenario> --seed <seed> --knob key=value ...`

## The nightly driver

```sh
python -m repro.cli sweep nightly [--out-dir DIR] [--workers N]
                                  [--seed N] [--only NAME ...]
```

expands **every registered sweep** at its reduced nightly grid and
writes one `sweep_nightly_<name>.json` report per sweep — the
registry-driven replacement for hard-coding one CI step per sweep.
Registration requires a nightly grid, so a new sweep joins the
scheduled CI run (and its artifact upload) automatically.  `--only
NAME` (repeatable) runs just the named sweeps — the way to run one
sweep at its nightly grid.  Exit status is non-zero if any sweep had an
errored or misdiagnosed point.

## Report schema (`{schema}`)

`sweep run` writes one JSON document (default `results/sweep_<name>.json`):

| field | meaning |
|---|---|
| `schema` | schema id, currently `{schema}` |
| `sweep` | registry name of the sweep that produced the report |
| `scenario`, `expect_problem` | what ran and the verdict that counts as correct |
| `base_seed`, `workers`, `grid` | reproduction identity |
| `points[]` | one entry per grid point (below) |
| `summary` | point/ok/error counts, max peak records, max flow count, total wall time |

Each point carries `index`, `params` (axis values), `knobs` (resolved
scenario knobs), `seed`, `ok` / `diagnosis_ok`, `problems` / `suspects`
(analyzer verdicts), `wall_time_s` + per-phase `phase_s`, `sim_time_s`,
`flow_count` (concurrent flows the point drove, scenario + background),
`peak_records` / `total_records` / `evicted_records` (host record-table
footprint), `ingest_records_per_s` (decoded packets folded into host
record tables per wall-clock second of the run phase), scenario
`measurements`, and `error` (null unless the point raised).

Each field is declared once, in the report table experiments share
(`repro.sweep.report`): `repro.sweep.validate_report` requires every
declared field and rejects undeclared ones at every level, naming the
allowed fields.  An invalid report is never written; a new field needs
a new schema string.  The CI benchmark-regression gate
(`tools/check_bench_regression.py`) validates before trusting a number.
"""


def _grid_cell(values: Sequence[object]) -> str:
    return ",".join(str(v) for v in values) if values else "(not swept)"


def _spec_markdown(spec: SweepSpec) -> str:
    lines = [f"## `{spec.name}`", "", spec.summary, ""]
    lines.append(f"- **Scenario:** `{spec.scenario}` (see SCENARIOS.md)")
    correct = f"`{spec.expect_problem}`"
    if spec.expect_suspect_knob:
        correct += f" naming the `{spec.expect_suspect_knob}` knob's value"
    lines.append(f"- **Correct diagnosis:** {correct}")
    if spec.base_knobs:
        pinned = ", ".join(f"`{k}={v!r}`" for k, v in sorted(spec.base_knobs.items()))
        lines.append(f"- **Pinned knobs:** {pinned}")
    lines.append(f"- **Run:** `{spec.cli_example}`")
    lines.append("")
    lines.append("| axis | binds knob | default grid | nightly grid |")
    lines.append("|---|---|---|---|")
    for axis, knob in spec.axes.items():
        default = _grid_cell(spec.default_grid.get(axis))
        nightly = _grid_cell(spec.nightly_grid.get(axis))
        lines.append(f"| `{axis}` | `{knob}` | `{default}` | `{nightly}` |")
    if spec.nightly_points:
        points = "; ".join(
            "`" + " ".join(f"{a}={v}" for a, v in point.items()) + "`"
            for point in spec.nightly_points
        )
        lines.append("")
        lines.append(f"Extra nightly point(s) beyond the cartesian grid: {points}.")
    if spec.budget_note:
        lines.append("")
        lines.append(f"**Wall-time budget:** {spec.budget_note}")
    return "\n".join(lines) + "\n"


def sweeps_markdown() -> str:
    """The full ``docs/SWEEPS.md`` body."""
    sections = [_PREAMBLE.replace("{schema}", SCHEMA)]
    sections.extend(_spec_markdown(spec) for spec in SWEEPS.values())
    return "\n".join(sections)
