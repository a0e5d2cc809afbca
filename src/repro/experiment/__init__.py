"""Experiment subsystem: seeded run tables over registered sweeps.

Public surface:

* :class:`ExperimentSpec` / :class:`FigureSpec` /
  :func:`register_experiment` / :data:`EXPERIMENTS` — declare a study:
  which sweep, which axes, how many repetitions, how the degradation
  figure renders.
* :class:`Experiment` — the one runner: expand the run table, execute
  every ``(point, rep)`` cell with its own collision-free seed, persist
  a resumable artifact directory, aggregate the report.  A sweep run
  is an unregistered spec over the sweep's grid with ``reps=1``.
* :class:`ExperimentReport` / :func:`validate_experiment_report` — the
  machine-readable result document CI archives and figures render from,
  declared in the report table (:mod:`repro.sweep.report`).
* ``table`` helpers — run-table expansion and canonical seed
  derivation.
* :func:`figure_svg` — deterministic SVG degradation curves.

See ``docs/EXPERIMENTS.md`` (generated from this registry) for the
run-table methodology, the artifact layout, and the JSON schema.
"""

from .catalog import experiments_markdown
from .figures import figure_svg
from .registry import (
    EXPERIMENTS,
    ExperimentError,
    ExperimentSpec,
    FigureSpec,
    register_experiment,
)
from .report import (
    MANIFEST_SCHEMA,
    RUN_SCHEMA,
    SCHEMA,
    ExperimentReport,
    PointAggregate,
    RunArtifact,
    RunRecord,
    aggregate_runs,
    validate_experiment_report,
)
from .runner import EXECUTED, RESUMED, Experiment
from .table import Run, canonical_key, derive_seeds, expand_run_table

# registration is an import side effect: the studies join the registry
# when the package loads, the way scenario modules do
from . import studies  # noqa: E402,F401  isort:skip

__all__ = [
    "EXECUTED",
    "EXPERIMENTS",
    "MANIFEST_SCHEMA",
    "RESUMED",
    "RUN_SCHEMA",
    "SCHEMA",
    "Experiment",
    "ExperimentError",
    "ExperimentReport",
    "ExperimentSpec",
    "FigureSpec",
    "PointAggregate",
    "Run",
    "RunArtifact",
    "RunRecord",
    "aggregate_runs",
    "canonical_key",
    "derive_seeds",
    "expand_run_table",
    "experiments_markdown",
    "figure_svg",
    "register_experiment",
    "validate_experiment_report",
]
