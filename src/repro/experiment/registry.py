"""Experiment registry: which scenarios run as seeded run tables.

An *experiment* is a run table — scenario × grid × N repetitions with
a distinct seed per ``(point, rep)`` cell — aggregated across repeats
into per-point curves (the run-table methodology of simulation
evaluation practice: factors × levels × independent replications).  A
scale sweep is the table with one repetition.  An
:class:`ExperimentSpec` is declared *next to the scenario it runs*,
with the registration idiom shared with scenarios, faults and
directory backends:

    register_experiment(ExperimentSpec(
        scenario="gray-failure",
        name="skew-degradation",
        summary="accuracy falling off as skew crosses the ε bound",
        expect_problem="gray-failure",
        grid={"skew_ms": (0.0, 2.0, 5.0, 8.0, 10.0)},
        reps=5,
        figure=FigureSpec(x_axis="skew_ms", ...),
    ))

Grid keys *are* scenario knobs: there is no second name for a factor,
and :func:`repro.scenarios.base.check_knobs` validates every grid
value, point and pinned knob at registration.  Every cell of the run
table reproduces as a single run (``cli run <scenario> --seed <run
seed> --knob ...``).  The CLI ``experiment`` command, the nightly
driver, and the generated ``docs/EXPERIMENTS.md`` catalogue all render
these specs — one source of truth, like the sibling registries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..registry import Registry


class ExperimentError(Exception):
    """Raised for registry misuse or invalid experiment parameters."""


#: One runnable cell of a run table, picklable for pool workers:
#: (scenario, knobs, seed, expect_problem, expect_suspect, index,
#: params).
Cell = tuple[str, dict, int, str, Optional[str], int, dict]


@dataclass(frozen=True)
class FigureSpec:
    """How one experiment's degradation curve is rendered.

    ``tools/plot_experiments.py`` turns a committed
    ``ExperimentReport`` into a deterministic SVG figure from this
    metadata; ``x_axis`` must be one of the experiment's grid knobs.
    ``vline`` marks an analytic boundary on the x axis (the
    ε-asynchrony bound, a coverage threshold) so the rendered curve
    shows *where* the paper's assumption stops holding.
    ``freshness_series`` overlays the per-point mean verdict freshness
    (records ingested network-wide during diagnosis) as a dashed
    secondary curve scaled to its own maximum — the online-diagnosis
    studies chart accuracy *and* staleness cost on one figure.
    ``fpr_series`` overlays the per-point mean sketch-directory
    false-positive rate as a dashed secondary curve on the same [0, 1]
    scale as accuracy — the ``directory-bits`` study charts memory
    against *both* what diagnosis still gets right and how much the
    pointer answers over-approximate.
    """

    x_axis: str
    x_label: str
    title: str
    vline: Optional[float] = None
    vline_label: str = ""
    freshness_series: bool = False
    fpr_series: bool = False


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry metadata for one experiment (a seeded run table).

    Attributes
    ----------
    scenario:
        Scenario-registry name every run executes.
    summary:
        One-line description (CLI ``experiment list``, docs catalogue).
    expect_problem:
        The ``Verdict.problem`` a correct run must report; per-run
        ``diagnosis_ok`` in the report is exactly "some verdict matched".
    grid:
        Scenario knob → value tuple: the run table ``experiment run``
        expands (the cartesian product, last knob fastest).
    nightly_grid:
        The grid ``experiment nightly`` expands instead — a reduced one
        for the scale sweeps.  Defaults to ``grid``.
    nightly_points:
        Explicit extra points appended to the nightly run table after
        the grid's cartesian expansion (and seeded like any other
        point) — for combined top-end points (``hosts=4096
        bg_flows=2000``) whose full cross product would blow the
        nightly wall-time budget.  Each entry maps knobs to one value.
    reps:
        Independent repetitions per grid point, each with its own
        derived seed (>= 1; a degradation study wants >= 3 so a point
        carries statistical weight, not one coin flip).
    base_knobs:
        Fixed knob overrides applied to every run (e.g. a crash site,
        or a spare switch unpinned so coverage genuinely thins); a
        grid value for the same knob wins.
    expect_suspect_knob:
        Optional name of a scenario knob whose (resolved) value must
        also appear among the verdict suspects — e.g. gray-failure's
        ``fault_switch``.  Without it, a diagnosis that names the right
        problem but localizes nothing would still count as correct.
    figure:
        Degradation-figure metadata (:class:`FigureSpec`), or ``None``.
        It also decides the grade: a spec with a figure charts where
        diagnosis stops holding, so it fails only on errored runs;
        every other spec fails unless every run diagnosed correctly.
    budget_note:
        Free-form wall-time note rendered in ``docs/EXPERIMENTS.md`` —
        record the measured cost of the expensive points so grid
        growth stays a deliberate, budgeted decision.
    name:
        The experiment's own registry key.  Defaults to ``scenario``;
        give it explicitly when several experiments run the same
        scenario (``incast`` scales the fabric population,
        ``incast-scale`` the concurrent-flow population).
    """

    scenario: str
    summary: str
    expect_problem: str
    grid: dict[str, tuple[Any, ...]]
    nightly_grid: dict[str, tuple[Any, ...]] = field(default_factory=dict)
    nightly_points: tuple[dict[str, Any], ...] = ()
    reps: int = 1
    base_knobs: dict[str, Any] = field(default_factory=dict)
    expect_suspect_knob: Optional[str] = None
    figure: Optional[FigureSpec] = None
    budget_note: Optional[str] = None
    name: Optional[str] = None

    def __post_init__(self) -> None:
        # frozen dataclass: assign through object.__setattr__
        if self.name is None:
            object.__setattr__(self, "name", self.scenario)
        if not self.nightly_grid:
            object.__setattr__(self, "nightly_grid", self.grid)

    @property
    def strict(self) -> bool:
        """Whether a run that misdiagnoses fails the table (see
        ``figure``)."""
        return self.figure is None

    def knobs_for(
        self, params: dict[str, Any], pins: Optional[dict[str, Any]] = None
    ) -> dict[str, Any]:
        """One point's scenario knobs: the base knobs, then ``pins``
        (``--knob``), then the point's own grid values."""
        return {**self.base_knobs, **(pins or {}), **params}

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
        return f"python -m repro.cli experiment run {self.name}"


def _load_declarations() -> None:
    """Import the scenario package, which registers every experiment.

    Experiments are declared next to their scenarios, so a consumer
    that imported only :mod:`repro.experiment` (tools, benchmarks)
    would otherwise see an empty registry.  Deferred to first lookup —
    never module scope — because scenario modules import this package
    to register.
    """
    from .. import scenarios  # noqa: F401


def _check_experiment(spec: ExperimentSpec) -> None:
    """Registration checks: a non-empty run table on a registered
    scenario, every grid value, point and pinned knob within its knob
    contract, and a figure on a grid knob — a spec that cannot run
    fails when it is declared, not in the middle of a nightly run."""
    # call-time import: scenario modules import this package to
    # register, so module scope would be a cycle
    from ..scenarios.base import REGISTRY as scenarios
    from ..scenarios.base import ScenarioError, check_knobs

    where = f"experiment {spec.name!r}"
    if not spec.grid:
        raise ExperimentError(f"{where}: needs at least one grid knob")
    for grid in (spec.grid, spec.nightly_grid):
        for knob, values in grid.items():
            if not values:
                raise ExperimentError(f"{where}: grid knob {knob!r} has no values")
    if spec.reps < 1:
        raise ExperimentError(f"{where}: reps must be >= 1, got {spec.reps}")
    try:
        scenario = scenarios.get(spec.scenario).spec
        knob = spec.expect_suspect_knob
        if knob is not None and knob not in scenario.knobs:
            raise ScenarioError(
                f"expect_suspect_knob names knob {knob!r}, which scenario "
                f"{spec.scenario!r} does not declare; declared: "
                f"{', '.join(sorted(scenario.knobs))}"
            )
        points = [
            {knob: value}
            for grid in (spec.grid, spec.nightly_grid)
            for knob, values in grid.items()
            for value in values
        ]
        # {}: the base knobs on their own
        for point in [{}, *points, *spec.nightly_points]:
            check_knobs(scenario, spec.knobs_for(point))
    except ScenarioError as exc:
        raise ExperimentError(f"{where}: {exc}") from None
    if spec.figure is not None and spec.figure.x_axis not in spec.grid:
        raise ExperimentError(
            f"{where}: figure x_axis {spec.figure.x_axis!r} is not a grid knob"
        )


#: The process-wide registry scenario modules register experiments into.
EXPERIMENTS: Registry[ExperimentSpec] = Registry(
    "experiment",
    ExperimentError,
    lambda spec: (spec.name or spec.scenario,),
    check=_check_experiment,
    load=_load_declarations,
)
register_experiment = EXPERIMENTS.register
