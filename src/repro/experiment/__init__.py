"""Experiment subsystem: seeded run tables over registered scenarios.

This package exports the spec and its registry — what a scenario
module needs to declare its studies:

* :class:`ExperimentSpec` / :class:`FigureSpec` /
  :func:`register_experiment` / :data:`EXPERIMENTS` — declare (next to
  a scenario) a run table: the scenario's knobs as its grid, how many
  repetitions, the verdict a correct run reaches, how the degradation
  figure renders.  A scale sweep is the spec with one repetition.

Every scenario module imports this package, so it imports nothing
else.  The machinery behind a run lives in its own modules, imported
by the CLI and tools that run tables:

* :mod:`.runner` — :class:`~.runner.Experiment`, the one runner:
  expand the run table, execute every ``(point, rep)`` cell with its
  own collision-free seed, persist a resumable artifact directory,
  aggregate the report;
* :mod:`.cells` — the cell executor (inline or a process pool);
* :mod:`.report` / :mod:`.records` — the report documents and the
  record table they are declared in;
* :mod:`.table` / :mod:`.grid` — run-table expansion, seeds and the
  ``--grid`` syntax;
* :mod:`.catalog` / :mod:`.figures` — ``docs/EXPERIMENTS.md`` and the
  SVG degradation curves.
"""

from .registry import (
    EXPERIMENTS,
    ExperimentError,
    ExperimentSpec,
    FigureSpec,
    register_experiment,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentError",
    "ExperimentSpec",
    "FigureSpec",
    "register_experiment",
]
