"""Parameter-grid parsing and expansion for sweeps and run tables.

Grid syntax (the ``--grid`` CLI flag, repeatable)::

    --grid hosts=64,256,1024 --grid alpha_ms=5,10

Each flag names one *axis* and its comma-separated values; values are
coerced best-effort (bool, int, float, then string).  A run table takes
the cartesian product of all axes, expanded in row-major order with the
last-listed axis varying fastest; a point's seed derives from its axis
values, not its position (:mod:`repro.experiment.table`).
"""

from __future__ import annotations

from itertools import product
from typing import Any


class GridError(Exception):
    """Raised for malformed grid expressions or unknown axes."""


def coerce_value(text: str) -> Any:
    """Best-effort value parsing: bool, int, float, then str."""
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def parse_axis(text: str) -> tuple[str, list[Any]]:
    """One ``axis=v1,v2,...`` expression → (axis, values)."""
    axis, sep, values = text.partition("=")
    if not sep or not axis:
        raise GridError(f"--grid expects axis=v1,v2,..., got {text!r}")
    out = [coerce_value(v) for v in values.split(",") if v != ""]
    if not out:
        raise GridError(f"axis {axis!r} has no values in {text!r}")
    return axis, out


def parse_grid(exprs: list[str]) -> dict[str, list[Any]]:
    """Parse repeated ``--grid`` expressions into an ordered axis map."""
    grid: dict[str, list[Any]] = {}
    for expr in exprs:
        axis, values = parse_axis(expr)
        if axis in grid:
            raise GridError(f"axis {axis!r} given twice")
        grid[axis] = values
    return grid


def expand_grid(grid: dict[str, list[Any]]) -> list[dict[str, Any]]:
    """Cartesian product of the axes, row-major, last axis fastest."""
    if not grid:
        return []
    axes = list(grid)
    return [dict(zip(axes, combo)) for combo in product(*(grid[a] for a in axes))]
