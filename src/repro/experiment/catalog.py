"""Render ``docs/EXPERIMENTS.md`` from the experiment registry.

Same one-source-of-truth idiom as the scenario/sweep/fault catalogues:
the page and ``python -m repro.cli experiment list`` render identical
:class:`~repro.experiment.registry.ExperimentSpec` objects.  Refresh
with::

    python tools/gen_docs.py experiments

A tier-1 test (and the CI docs job) asserts the checked-in page matches
this renderer's output.
"""

from __future__ import annotations

from .registry import EXPERIMENTS, ExperimentSpec
from .report import SCHEMA

_PREAMBLE = """\
# Experiments

<!-- GENERATED FILE — do not edit by hand.
     Regenerate with: python tools/gen_docs.py experiments -->

An *experiment* is a **run table**: one registered sweep
([SWEEPS.md](SWEEPS.md)) expanded across declared axes × N independent
repetitions, every `(point, rep)` cell executed with its own derived
seed, and the repetitions aggregated into per-point mean/min/max
**degradation curves**.  A sweep run is the same table with one
repetition per point; where it answers "does the diagnosis hold at
these settings, for this one seed?", an experiment answers "*how
often* does it hold, and where does it stop?" — the paper's
claims are curves (accuracy falling as clock skew crosses the ε bound,
as partial deployment thins coverage), and a curve needs statistical
weight behind every point.  Run one with

```sh
python -m repro.cli experiment run <name> [--grid axis=v1,v2,...]
                                          [--reps N] [--seed N]
```

and list the registered experiments with
`python -m repro.cli experiment list`.

## Seeds: collision-free by construction, stable under reordering

Every `(point, rep)` cell derives its seed by CRC32 over the cell's
*canonical form* — base seed, the axis values sorted by axis name, and
the repetition index — so reordering the axes in a spec cannot
silently re-seed a committed study.  Seeds are checked pairwise
distinct across the whole table at expansion time (a deterministic
salt bump separates the vanishingly-rare CRC collision), so no
repetition ever reuses another cell's randomness.  Any cell reproduces
bit-for-bit as a single run:
`python -m repro.cli run <scenario> --seed <seed> --knob key=value ...`
with the `seed` and `knobs` recorded in its run artifact.

## Resumable artifact directories

`experiment run` owns one directory per study (default
`results/experiments/<name>/`):

```
manifest.json            # table identity: seed, grid, reps
runs/point000_rep00.json # one document per completed (point, rep)
report.json              # the aggregated ExperimentReport
```

Each run document lands atomically as it finishes.  Re-invoking the
same study skips every intact run document (verified against the
table's seed and params — a foreign artifact fails loudly) and
executes only the missing cells; because the report aggregates only
seed-determined fields (wall-clock timings stay in the per-run
artifacts), a study interrupted after K of N runs resumes to a
`report.json` **byte-identical** to an uninterrupted one.

## Report schema (`{schema}`)

| field | meaning |
|---|---|
| `schema` | schema id, currently `{schema}` |
| `experiment`, `sweep`, `scenario` | what ran |
| `expect_problem` | the analyzer verdict that counts as correct |
| `base_seed`, `reps`, `grid` | reproduction identity |
| `runs[]` | one entry per `(point, rep)` cell: seed, ok, verdicts, sim time, pending faults |
| `points[]` | per-point aggregates: `accuracy`/`sim_time_s` mean-min-max across reps, error and pending-fault counts |
| `summary` | run/ok/error/pending counts and mean accuracy across the table |

Each field of the report and of every run document is declared once,
in the report table (`repro.sweep.report`), which writes and checks
it.  `repro.experiment.validate_experiment_report` requires
every declared field, rejects undeclared ones at every level, and
enforces the stat triples and summary counts before any report is
written (an invalid one never is) or plotted; a resumed study names
the file and field of a malformed run document.  A new field needs a
new schema string.  Faults scheduled past a run's window surface as
`pending` in the run's fault plan and are **counted** by aggregation,
never silently dropped.

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

runs **every registered experiment** at its declared table and writes
one artifact directory per experiment — the registry-driven pattern
`sweep nightly` uses, so a new experiment joins the scheduled CI run
(and its report upload) automatically.  Exit status is non-zero only
if runs *errored*; a stressed point misdiagnosing is the measurement,
not a failure.
"""


def _spec_markdown(spec: ExperimentSpec) -> str:
    points = 1
    for values in spec.axes.values():
        points *= len(values)
    lines = [f"## `{spec.name}`", "", spec.summary, ""]
    lines.append(f"- **Sweep:** `{spec.sweep}` (see SWEEPS.md)")
    lines.append(
        f"- **Run table:** {points} point(s) × {spec.reps} repetitions "
        f"= {points * spec.reps} seeded runs"
    )
    if spec.base_knobs:
        pinned = ", ".join(
            f"`{k}={v!r}`" for k, v in sorted(spec.base_knobs.items())
        )
        lines.append(f"- **Knob overrides:** {pinned}")
    if spec.figure is not None:
        fig = spec.figure
        note = f"`results/figures/{spec.name}.svg` — {fig.title}"
        if fig.vline is not None:
            note += f" (boundary at {fig.x_axis}={fig.vline:g})"
        lines.append(f"- **Figure:** {note}")
    lines.append(f"- **Run:** `{spec.cli_example}`")
    lines.append("")
    lines.append("| axis | values |")
    lines.append("|---|---|")
    for axis, values in spec.axes.items():
        lines.append(f"| `{axis}` | {','.join(str(v) for v in values)} |")
    return "\n".join(lines) + "\n"


def experiments_markdown() -> str:
    """The full ``docs/EXPERIMENTS.md`` body."""
    sections = [_PREAMBLE.replace("{schema}", SCHEMA)]
    sections.extend(_spec_markdown(spec) for spec in EXPERIMENTS.values())
    return "\n".join(sections)
