"""Run-table expansion and collision-free ``(point, rep)`` seeds.

The run table is the cartesian product of the experiment's axes (plus
any explicit extra points) × ``reps`` repetitions; a sweep is the table
with ``reps=1``.  Every cell gets its own seed, derived by CRC32
from the *canonical form* of the cell — base seed, the axis values
sorted by axis name, and the repetition index:

    crc32(b"<base>|<salt>|alpha_ms=10,skew_ms=2.0|rep=3")

Two properties matter and are both property-tested:

* **Stable under axis reordering.**  The key sorts axes by name, so
  ``axes={"skew_ms": ..., "victims": ...}`` and the reverse declaration
  produce the same ``(params, rep) → seed`` mapping — a reordered spec
  cannot silently re-seed a committed study.
* **Pairwise distinct across the whole table.**  CRC32 of distinct
  keys can in principle collide; :func:`derive_seeds` detects any
  collision inside one table and bumps a deterministic salt until the
  table is collision-free, so no repetition ever silently reuses
  another cell's randomness.  The salt depends only on the *set* of
  cells, never on enumeration order.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Sequence

from .grid import expand_grid
from .registry import ExperimentError

#: Safety bound on the collision salt search (the probability of even
#: one bump is ~n²/2³² for an n-run table; reaching this means the
#: table itself is degenerate).
_MAX_SALT = 64


@dataclass(frozen=True)
class Run:
    """One cell of the run table: a grid point at one repetition."""

    index: int  # position in the table (points row-major, reps fastest)
    point: int  # grid-point index
    rep: int
    params: dict[str, Any]
    seed: int


def canonical_key(params: dict[str, Any], rep: int) -> str:
    """The order-independent identity of one ``(point, rep)`` cell."""
    axes = ",".join(f"{a}={params[a]!r}" for a in sorted(params))
    return f"{axes}|rep={rep}"


def derive_seeds(base_seed: int, keys: list[str]) -> dict[str, int]:
    """Collision-free CRC32 seeds for every canonical key.

    Raises :class:`ExperimentError` on duplicate keys (a malformed
    table) and when no salt within the search bound separates the
    seeds (practically unreachable for sane tables).
    """
    if len(set(keys)) != len(keys):
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        raise ExperimentError(
            f"run table repeats cell(s) {dupes[:3]} — every "
            f"(point, rep) must be unique"
        )
    for salt in range(_MAX_SALT):
        seeds = {
            key: zlib.crc32(f"{base_seed}|{salt}|{key}".encode("utf-8"))
            for key in keys
        }
        if len(set(seeds.values())) == len(keys):
            return seeds
    raise ExperimentError(
        f"could not derive {len(keys)} collision-free seeds within "
        f"{_MAX_SALT} salts (base_seed={base_seed})"
    )


def expand_run_table(
    grid: dict[str, list[Any]],
    reps: int,
    base_seed: int,
    extra_points: Sequence[dict[str, Any]] = (),
) -> list[Run]:
    """Expand axes × reps into the seeded run table.

    Points enumerate in row-major grid order (last axis fastest), then
    ``extra_points`` in the order given — combined top-end points that
    join a table without dragging the whole cross product with them —
    and repetitions within a point.  The seed of a cell depends only on
    its canonical ``(params, rep)`` identity, never on its table
    position.
    """
    if reps < 1:
        raise ExperimentError(f"reps must be >= 1, got {reps}")
    points = expand_grid(grid) + [dict(point) for point in extra_points]
    if not points:
        raise ExperimentError("run table needs at least one axis")
    cells = [
        (point_index, rep, params)
        for point_index, params in enumerate(points)
        for rep in range(reps)
    ]
    seeds = derive_seeds(
        base_seed, [canonical_key(params, rep) for _, rep, params in cells]
    )
    return [
        Run(
            index=index,
            point=point_index,
            rep=rep,
            params=dict(params),
            seed=seeds[canonical_key(params, rep)],
        )
        for index, (point_index, rep, params) in enumerate(cells)
    ]
