"""Sweep registry: which scenarios sweep, along which axes.

A :class:`SweepSpec` is declared *next to the scenario it exercises*
(same module, same registration idiom as the scenario registry of PR 2):

    from ..sweep import SweepSpec, register_sweep

    register_sweep(SweepSpec(
        scenario="incast",
        summary="fan-in collapse from 64 to 4096 fabric hosts",
        expect_problem="incast",
        axes={"hosts": "hosts", "records": "records_per_host"},
        default_grid={"hosts": (64, 256, 1024)},
        ...
    ))

Axes are *names on the grid command line* bound to scenario knobs; the
indirection keeps sweep vocabulary uniform (``hosts``, ``records``,
``alpha_ms``) even where scenarios name their knobs differently.  The
CLI ``sweep`` command and the generated ``docs/SWEEPS.md`` catalogue
both render these specs — one source of truth, like scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..registry import Registry


class SweepError(Exception):
    """Raised for registry misuse or invalid sweep parameters."""


#: One runnable cell of a sweep or run table, picklable for pool
#: workers: (scenario, knobs, seed, expect_problem, expect_suspect,
#: index, params).
Cell = tuple[str, dict, int, str, Optional[str], int, dict]


@dataclass(frozen=True)
class SweepSpec:
    """Sweep metadata for one registered sweep.

    Attributes
    ----------
    scenario:
        Scenario-registry name this sweep executes.
    name:
        The sweep's own registry key.  Defaults to ``scenario``; give
        it explicitly when several sweeps exercise the same scenario
        along different axes (``incast`` sweeps the fabric population,
        ``incast-scale`` the concurrent-flow population).
    summary:
        One-line description (CLI ``sweep list``, docs catalogue).
    expect_problem:
        The ``Verdict.problem`` a correct point must report; per-point
        ``diagnosis_ok`` in the report is exactly "some verdict matched".
    expect_suspect_knob:
        Optional name of a scenario knob whose (resolved) value must
        also appear among the verdict suspects — e.g. gray-failure's
        ``fault_switch``.  Without it, a diagnosis that names the right
        problem but localizes nothing would still count as correct.
    axes:
        Grid-axis name → scenario knob it binds.
    default_grid:
        Axis → value tuple used when ``--grid`` is not given.
    nightly_grid:
        Reduced grid for the scheduled CI run (``sweep nightly``
        expands every registered spec at this grid) and the smoke
        benchmark.  Mandatory at registration: a sweep the nightly
        driver cannot run would silently shrink CI's coverage.
    nightly_points:
        Explicit extra points appended to the nightly run table after
        the grid's cartesian expansion (and seeded like any other
        point) — for combined top-end points (``hosts=4096
        flows=2000``) whose full cross product would blow the nightly
        wall-time budget.  Each entry maps axis names to one value.
    budget_note:
        Free-form wall-time note rendered in ``docs/SWEEPS.md`` —
        record the measured cost of the expensive points so grid
        growth stays a deliberate, budgeted decision.
    base_knobs:
        Fixed knob overrides applied to every point (e.g. a shortened
        run duration so thousand-host points stay tractable).
    """

    scenario: str
    summary: str
    expect_problem: str
    axes: dict[str, str]
    default_grid: dict[str, tuple[Any, ...]]
    nightly_grid: dict[str, tuple[Any, ...]] = field(default_factory=dict)
    nightly_points: tuple[dict[str, Any], ...] = ()
    budget_note: Optional[str] = None
    base_knobs: dict[str, Any] = field(default_factory=dict)
    expect_suspect_knob: Optional[str] = None
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.name is None:
            # frozen dataclass: assign through object.__setattr__
            object.__setattr__(self, "name", self.scenario)

    def knobs_for(self, params: dict[str, Any]) -> dict[str, Any]:
        """Resolve one grid point's axis values into scenario knobs
        (every axis declared: the run table checks before resolving)."""
        knobs = dict(self.base_knobs)
        knobs.update((self.axes[axis], value) for axis, value in params.items())
        return knobs

    def cell(
        self, index: int, params: dict[str, Any], knobs: dict[str, Any], seed: int
    ) -> Cell:
        """One runnable cell: the scenario at ``knobs`` and ``seed``,
        with the verdict a correct run must reach."""
        return (
            self.scenario,
            knobs,
            seed,
            self.expect_problem,
            self._expect_suspect(knobs),
            index,
            params,
        )

    def _expect_suspect(self, knobs: dict[str, Any]) -> Optional[str]:
        """The suspect a correct run must name, if the spec demands one.

        Resolved from the run's knobs, falling back to the scenario's
        declared default — a run never overrides the fault site
        without the expectation following it.
        """
        knob = self.expect_suspect_knob
        if knob is None:
            return None
        if knob in knobs:
            return knobs[knob]
        from ..scenarios import REGISTRY

        return REGISTRY.get(self.scenario).spec.knobs[knob].default

    @property
    def cli_example(self) -> str:
        grid = " ".join(
            f"--grid {axis}={','.join(str(v) for v in values)}"
            for axis, values in self.default_grid.items()
        )
        return f"python -m repro.cli sweep run {self.name} {grid}"


def _load_declarations() -> None:
    """Import the scenario package, which registers every sweep.

    Sweeps are declared next to their scenarios, so a consumer that
    imported only :mod:`repro.sweep` (benchmarks, tools) would otherwise
    see an empty registry.  Deferred to first lookup — never module
    scope — because scenario modules import this package to register.
    """
    from .. import scenarios  # noqa: F401


def _check_sweep(spec: SweepSpec) -> None:
    """Registration checks: grids present and on declared axes, and
    every knob binding declared by the spec's scenario."""
    if not spec.default_grid:
        raise SweepError(f"sweep {spec.name!r} needs a default grid")
    if not spec.nightly_grid:
        # every registered sweep is part of the nightly CI coverage
        raise SweepError(
            f"sweep {spec.name!r} needs a nightly grid "
            f"(`sweep nightly` runs every registered spec)"
        )
    for grid_name in ("default_grid", "nightly_grid"):
        for axis in getattr(spec, grid_name):
            if axis not in spec.axes:
                raise SweepError(
                    f"sweep {spec.name!r}: {grid_name} axis "
                    f"{axis!r} is not declared in axes"
                )
    for i, point in enumerate(spec.nightly_points):
        bad = [axis for axis in point if axis not in spec.axes]
        if bad:
            raise SweepError(
                f"sweep {spec.name!r}: nightly_points[{i}] axis "
                f"{bad[0]!r} is not declared in axes"
            )
    _check_knob_bindings(spec)


def _check_knob_bindings(spec: SweepSpec) -> None:
    """Every axis and the suspect knob must be declared by the spec's
    scenario, and every grid value, point and base knob must pass its
    knob contract (:func:`repro.scenarios.base.check_knobs`).

    Sweeps are declared right after their scenario class in the
    same module, so the scenario is normally resolvable here; when
    it is not (a sweep declared ahead of its scenario), the static
    ``knob-declaration`` pass of ``tools/reprolint`` still covers
    the binding.  Either way a typo'd knob name fails before any
    point runs, with the offender named.
    """
    # call-time import: scenario modules import this package to
    # register their sweeps, so module scope would be a cycle
    from ..scenarios.base import REGISTRY as scenarios
    from ..scenarios.base import ScenarioError, check_knobs

    if spec.scenario not in scenarios:
        return
    scenario = scenarios.get(spec.scenario).spec
    declared = scenario.knobs
    for axis, knob in spec.axes.items():
        if knob not in declared:
            raise SweepError(
                f"sweep {spec.name!r}: axis {axis!r} binds knob "
                f"{knob!r}, which scenario {spec.scenario!r} does "
                f"not declare; declared: {', '.join(sorted(declared))}"
            )
    knob = spec.expect_suspect_knob
    if knob is not None and knob not in declared:
        raise SweepError(
            f"sweep {spec.name!r}: expect_suspect_knob names knob {knob!r}, "
            f"which scenario {spec.scenario!r} does not declare; declared: "
            f"{', '.join(sorted(declared))}"
        )
    points = [
        {axis: value}
        for grid in (spec.default_grid, spec.nightly_grid)
        for axis, values in grid.items()
        for value in values
    ]
    try:
        # {}: the base knobs on their own
        for point in [{}, *points, *spec.nightly_points]:
            check_knobs(scenario, spec.knobs_for(point))
    except ScenarioError as exc:
        raise SweepError(f"sweep {spec.name!r}: {exc}") from None


#: The process-wide registry scenario modules register sweeps into.
SWEEPS: Registry[SweepSpec] = Registry(
    "sweep",
    SweepError,
    lambda spec: (spec.name or spec.scenario,),
    check=_check_sweep,
    load=_load_declarations,
)
register_sweep = SWEEPS.register
