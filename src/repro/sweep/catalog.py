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

## One run table, one repetition

A sweep run is a run table ([EXPERIMENTS.md](EXPERIMENTS.md)) over the
sweep's own grid with one repetition per point: the same runner, the
same seeds, the same artifact directory and the same
`ExperimentReport`.  `sweep run` owns one directory per sweep (default
`results/sweeps/<name>/`, `--out-dir DIR` elsewhere); re-invoking it on
the same directory resumes, executing only the missing runs.  A point's
seed derives from its axis values (see EXPERIMENTS.md), never from its
position in the grid, so `--grid hosts=64,128` and `--grid
hosts=128,64` run `hosts=64` at the same seed, and any run reproduces
bit-for-bit by replaying the `seed` and `knobs` recorded in its run
artifact: `python -m repro.cli run <scenario> --seed <seed> --knob
key=value ...`

Points are independent: they execute in `multiprocessing` workers
(`--workers N`, default = CPU count capped at the run count; `1` =
inline, no pool).  Each run artifact's `result` carries, beside the
verdicts, `wall_time_s` + per-phase `phase_s`, `flow_count` (concurrent
flows the run drove, scenario + background), `peak_records` /
`total_records` / `evicted_records` (host record-table footprint) and
`ingest_records_per_s` (decoded packets folded into host record tables
per wall-clock second of the run phase).

A sweep is graded strictly: `sweep run` and `sweep nightly` exit
non-zero unless **every** run diagnosed correctly (an experiment fails
only on errored runs; its stressed points are expected to misdiagnose).

## The nightly driver

```sh
python -m repro.cli sweep nightly [--out-dir DIR] [--workers N]
                                  [--seed N] [--only NAME ...]
```

expands **every registered sweep** at its reduced nightly grid, plus
its extra nightly points (appended after the grid and seeded like any
other point), and writes one artifact directory per sweep,
`DIR/<name>/` (default `results/sweeps/<name>/`) — the registry-driven
replacement for hard-coding one CI step per sweep.  Registration
requires a nightly grid, so a new sweep joins the scheduled CI run (and
its artifact upload) automatically.  `--only NAME` (repeatable) runs
just the named sweeps — the way to run one sweep at its nightly grid.
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
    sections = [_PREAMBLE]
    sections.extend(_spec_markdown(spec) for spec in SWEEPS.values())
    return "\n".join(sections)
