"""Render ``docs/EXPERIMENTS.md`` from the experiment registry.

Same one-source-of-truth idiom as the scenario/fault/directory
catalogues: the page and ``python -m repro.cli experiment list`` render
identical :class:`~repro.experiment.registry.ExperimentSpec` objects.
Refresh with::

    python tools/gen_docs.py experiments

A tier-1 test (and the CI docs job) asserts the checked-in page matches
this renderer's output.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from .registry import EXPERIMENTS, ExperimentSpec
from .report import SCHEMA

_PREAMBLE = """\
# Experiments

<!-- GENERATED FILE — do not edit by hand.
     Regenerate with: python tools/gen_docs.py experiments -->

An *experiment* is a **run table**: one registered scenario
([SCENARIOS.md](SCENARIOS.md)) expanded across a grid of its own knobs
× N independent repetitions, every `(point, rep)` cell executed with
its own derived seed, and the repetitions aggregated into per-point
mean/min/max curves.  A *scale sweep* is the table with one repetition
per point: it answers "does the diagnosis hold at these settings, for
this one seed?" — the thousand-host **fabric** axis and the
thousand-flow **traffic** axis the single-run catalogue does not
cover.  A *degradation study* repeats every point: it answers "*how
often* does it hold, and where does it stop?" — the paper's claims are
curves (accuracy falling as clock skew crosses the ε bound, as partial
deployment thins coverage), and a curve needs statistical weight
behind every point.  Run one with

```sh
python -m repro.cli experiment run <name> [--grid knob=v1,v2,...]
                                          [--reps N] [--seed N]
                                          [--knob key=value ...]
```

and list the registered experiments with
`python -m repro.cli experiment list`.

## Grid syntax

Each `--grid` flag takes one or more `knob=v1,v2,...` expressions and
may repeat — `--grid hosts=256 bg_flows=2000` and
`--grid hosts=256 --grid bg_flows=2000` are the same grid; values are
coerced to bool/int/float/str.  Grid keys are the scenario's own knobs
(the same names `run --knob` takes), checked against the knob contract
before any run starts.  The table runs the cartesian product of all
knobs in row-major order (last knob fastest).  `--knob key=value` pins
a knob for every point; a grid value for the same knob wins.

The `bg_flows` knob drives the synthetic background flow population
([WORKLOADS.md](WORKLOADS.md)): hundreds to thousands of concurrent
flows planned in batches and emitted by one heap-driven source, so the
diagnosis layers are stressed by traffic scale, not the generator.

## Seeds: collision-free by construction, stable under reordering

Every `(point, rep)` cell derives its seed by CRC32 over the cell's
*canonical form* — base seed, the grid values sorted by knob name, and
the repetition index — so reordering the grid cannot silently re-seed
a committed study, and `--grid hosts=64,128` and `--grid hosts=128,64`
run `hosts=64` at the same seed.  Seeds are checked pairwise distinct
across the whole table at expansion time (a deterministic salt bump
separates the vanishingly-rare CRC collision), so no repetition ever
reuses another cell's randomness.  Any cell reproduces bit-for-bit as
a single run:
`python -m repro.cli run <scenario> --seed <seed> --knob key=value ...`
with the `seed` and `knobs` recorded in its run artifact.

## Resumable artifact directories

`experiment run` owns one directory per experiment (default
`results/experiments/<name>/`, `--out-dir DIR` elsewhere):

```
manifest.json            # table identity: seed, grid, reps
runs/point000_rep00.json # one document per completed (point, rep)
report.json              # the aggregated ExperimentReport
```

Each run document lands atomically as it finishes.  Re-invoking the
same experiment skips every intact run document (verified against the
table's seed, params and knobs — a foreign artifact, a changed grid or
changed `--knob` pins fail loudly) and executes only the missing
cells; because the report aggregates only seed-determined fields
(wall-clock timings stay in the per-run artifacts), a table
interrupted after K of N runs resumes to a `report.json`
**byte-identical** to an uninterrupted one.

Cells are independent: they execute in `multiprocessing` workers
(`--workers N`, default = CPU count capped at the run count; `1` =
inline, no pool).  Each run artifact's `result` carries, beside the
verdicts, `wall_time_s` + per-phase `phase_s`, `flow_count` (concurrent
flows the run drove, scenario + background), `peak_records` /
`total_records` / `evicted_records` (host record-table footprint) and
`ingest_records_per_s` (decoded packets folded into host record tables
per wall-clock second of the run phase).

## Report schema (`{schema}`)

| field | meaning |
|---|---|
| `schema` | schema id, currently `{schema}` |
| `experiment`, `scenario` | what ran |
| `expect_problem` | the analyzer verdict that counts as correct |
| `base_seed`, `reps`, `grid` | reproduction identity |
| `runs[]` | one entry per `(point, rep)` cell: seed, ok, verdicts, sim time, pending faults |
| `points[]` | per-point aggregates: `accuracy`/`sim_time_s` mean-min-max across reps, error and pending-fault counts |
| `summary` | run/ok/error/pending counts and mean accuracy across the table |

Each field of the report and of every run document is declared once,
in the record table (`repro.experiment.records`), which writes and
checks it.  `repro.experiment.report.validate_experiment_report`
requires every declared field, rejects undeclared ones at every level,
and enforces the stat triples and summary counts before any report is
written (an invalid one never is) or plotted; a resumed table names
the file and field of a malformed run document.  A new field needs a
new schema string.  Faults scheduled past a run's window surface as
`pending` in the run's fault plan and are **counted** by aggregation,
never silently dropped.

## Grading

An experiment with a figure charts where diagnosis stops holding: its
stressed points are expected to misdiagnose, so it fails only when a
run *errored*.  Every other experiment fails unless
**every** run diagnosed correctly.

## Figures

`python tools/plot_experiments.py` renders each committed
`report.json` into a deterministic SVG degradation curve under
`results/figures/` (mean accuracy per point, min–max envelope across
repetitions, analytic boundary annotated).  `--check` verifies the
committed figures match the committed reports byte-for-byte — the same
regenerate-and-compare contract as the generated docs.

## The nightly driver

```sh
python -m repro.cli experiment nightly [--out-dir DIR] [--workers N]
                                       [--seed N] [--only NAME ...]
```

runs **every registered experiment** at its nightly grid (the grid,
unless the spec declares a reduced one) plus its extra nightly points
(appended after the grid and seeded like any other point), and writes
one artifact directory per experiment, `DIR/<name>/` (default
`results/experiments/<name>/`).  A new experiment joins the scheduled
CI run (and its report upload) with no workflow edit.  `--only NAME`
(repeatable) runs just the named experiments.
"""


def _values(values: Sequence[Any]) -> str:
    return ",".join(str(v) for v in values) if values else "-"


def _spec_markdown(spec: ExperimentSpec) -> str:
    points = math.prod(len(values) for values in spec.grid.values())
    lines = [f"## `{spec.name}`", "", spec.summary, ""]
    lines.append(f"- **Scenario:** `{spec.scenario}` (see SCENARIOS.md)")
    correct = f"`{spec.expect_problem}`"
    if spec.expect_suspect_knob:
        correct += f" naming the `{spec.expect_suspect_knob}` knob's value"
    lines.append(f"- **Correct diagnosis:** {correct}")
    lines.append(
        "- **Grading:** "
        + (
            "fails unless every run diagnosed correctly"
            if spec.strict
            else "fails only on errored runs"
        )
    )
    lines.append(
        f"- **Run table:** {points} point(s) × {spec.reps} repetition(s) "
        f"= {points * spec.reps} seeded runs"
    )
    if spec.base_knobs:
        pinned = ", ".join(f"`{k}={v!r}`" for k, v in sorted(spec.base_knobs.items()))
        lines.append(f"- **Pinned knobs:** {pinned}")
    if spec.figure is not None:
        fig = spec.figure
        note = f"`results/figures/{spec.name}.svg` — {fig.title}"
        if fig.vline is not None:
            note += f" (boundary at {fig.x_axis}={fig.vline:g})"
        lines.append(f"- **Figure:** {note}")
    lines.append(f"- **Run:** `{spec.cli_example}`")
    lines.append("")
    lines.append("| knob | grid | nightly grid |")
    lines.append("|---|---|---|")
    for knob in dict.fromkeys([*spec.grid, *spec.nightly_grid]):
        grid = _values(spec.grid.get(knob, ()))
        nightly = _values(spec.nightly_grid.get(knob, ()))
        lines.append(f"| `{knob}` | `{grid}` | `{nightly}` |")
    if spec.nightly_points:
        extra = "; ".join(
            "`" + " ".join(f"{k}={v}" for k, v in point.items()) + "`"
            for point in spec.nightly_points
        )
        lines.append("")
        lines.append(f"Extra nightly point(s) beyond the cartesian grid: {extra}.")
    if spec.budget_note:
        lines.append("")
        lines.append(f"**Wall-time budget:** {spec.budget_note}")
    return "\n".join(lines) + "\n"


def experiments_markdown() -> str:
    """The full ``docs/EXPERIMENTS.md`` body."""
    sections = [_PREAMBLE.replace("{schema}", SCHEMA)]
    sections.extend(_spec_markdown(spec) for spec in EXPERIMENTS.values())
    return "\n".join(sections)
