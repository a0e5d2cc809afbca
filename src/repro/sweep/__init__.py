"""Scale-sweep subsystem: run scenarios across parameter grids.

Public surface:

* :class:`SweepSpec` / :func:`register_sweep` / :data:`SWEEPS` — declare
  (next to a scenario) how that scenario sweeps: grid axes bound to
  knobs, default and nightly grids, the expected diagnosis.
* :func:`run_cells` — the one cell executor (inline or a process pool)
  behind sweeps and experiment run tables; :class:`Sweep` — expand a
  grid, run its points as cells, aggregate a report.
* :class:`SweepReport` / :func:`validate_report` / :func:`write_report`
  — the machine-readable result document CI archives and gates on,
  declared in the report table (``report.py``) that experiments share.
* ``grid`` helpers — ``--grid hosts=64,256,1024`` parsing and expansion.

See ``docs/SWEEPS.md`` (generated from this registry) for the grid
syntax, the worker model, and the JSON schema.
"""

from .catalog import sweeps_markdown
from .grid import (
    GridError,
    coerce_value,
    expand_grid,
    parse_axis,
    parse_grid,
    point_seed,
)
from .registry import SWEEPS, SweepError, SweepSpec, register_sweep
from .report import SCHEMA, PointResult, SweepReport, validate_report, write_report
from .runner import DEFAULT_BASE_SEED, Sweep, execute_point, run_cells

__all__ = [
    "DEFAULT_BASE_SEED",
    "SCHEMA",
    "SWEEPS",
    "GridError",
    "PointResult",
    "Sweep",
    "SweepError",
    "SweepReport",
    "SweepSpec",
    "coerce_value",
    "execute_point",
    "expand_grid",
    "parse_axis",
    "parse_grid",
    "point_seed",
    "register_sweep",
    "run_cells",
    "sweeps_markdown",
    "validate_report",
    "write_report",
]
