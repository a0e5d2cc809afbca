"""Scale-sweep subsystem: which scenarios sweep, and the cell runner.

Public surface:

* :class:`SweepSpec` / :func:`register_sweep` / :data:`SWEEPS` — declare
  (next to a scenario) how that scenario sweeps: grid axes bound to
  knobs, default and nightly grids, the expected diagnosis.
* :func:`run_cells` — the one cell executor (inline or a process pool)
  behind every run table; :func:`execute_point` runs one cell into a
  :class:`PointResult`.  A sweep run is a one-repetition
  :class:`repro.experiment.Experiment` over the sweep's own grid.
* ``report`` — the report table every run-table document is declared
  in.
* ``grid`` helpers — ``--grid hosts=64,256,1024`` parsing and expansion.

See ``docs/SWEEPS.md`` (generated from this registry) for the grid
syntax and the nightly driver.
"""

from .catalog import sweeps_markdown
from .grid import GridError, coerce_value, expand_grid, parse_axis, parse_grid
from .registry import SWEEPS, SweepError, SweepSpec, register_sweep
from .report import PointResult
from .runner import DEFAULT_BASE_SEED, execute_point, run_cells

__all__ = [
    "DEFAULT_BASE_SEED",
    "SWEEPS",
    "GridError",
    "PointResult",
    "SweepError",
    "SweepSpec",
    "coerce_value",
    "execute_point",
    "expand_grid",
    "parse_axis",
    "parse_grid",
    "register_sweep",
    "run_cells",
    "sweeps_markdown",
]
