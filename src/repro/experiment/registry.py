"""Experiment registry: which sweeps become *studies*, at what table.

An *experiment* is a run table — scenario × axes × N repetitions with
a distinct seed per ``(point, rep)`` cell — aggregated across repeats
into degradation curves; a sweep run is the unregistered table with
one repetition (the run-table methodology of simulation evaluation practice:
independent replications per configuration).  An
:class:`ExperimentSpec` is declared in :mod:`repro.experiment.studies`
with the same registration idiom as scenarios/sweeps/faults:

    register_experiment(ExperimentSpec(
        name="skew-degradation",
        sweep="clock-skew",
        summary="accuracy falling off as skew crosses the ε bound",
        axes={"skew_ms": (0.0, 2.0, 5.0, 8.0, 12.0)},
        reps=5,
        figure=FigureSpec(x_axis="skew_ms", ...),
    ))

Axes name *sweep* axes (which in turn bind scenario knobs), so the
experiment layer adds no new vocabulary: every cell of the run table
executes through the sweep's cell runner and reproduces as a single
run (``cli run <scenario> --seed <run seed> --knob ...``).
The CLI ``experiment`` command, the nightly driver, and the generated
``docs/EXPERIMENTS.md`` catalogue all render these specs — one source
of truth, like the sibling registries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..registry import Registry


class ExperimentError(Exception):
    """Raised for registry misuse or invalid experiment parameters."""


@dataclass(frozen=True)
class FigureSpec:
    """How one experiment's degradation curve is rendered.

    ``tools/plot_experiments.py`` turns a committed
    ``ExperimentReport`` into a deterministic SVG figure from this
    metadata; ``x_axis`` must be one of the experiment's run-table
    axes.  ``vline`` marks an analytic boundary on the x axis (the
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
    name:
        The experiment's own registry key.  Defaults to ``sweep``.
    sweep:
        Sweep-registry name whose scenario/axes/expectation every run
        executes through.
    summary:
        One-line description (CLI ``experiment list``, docs catalogue).
    axes:
        Axis → value tuple: the run-table grid.  Axis names must be
        declared by the underlying sweep; the cartesian product of the
        values is the experiment's point set.
    reps:
        Independent repetitions per grid point, each with its own
        derived seed (>= 1; degradation studies want >= 3 so a point
        carries statistical weight, not one coin flip).
    base_knobs:
        Fixed knob overrides applied to every run *after* the sweep's
        own ``base_knobs`` — e.g. unpinning ``deploy_spare`` so the
        fault switch is strippable and accuracy genuinely degrades.
    figure:
        Degradation-figure metadata (:class:`FigureSpec`), or ``None``
        for experiments that only produce tables.
    """

    sweep: str
    summary: str
    axes: dict[str, tuple[Any, ...]]
    reps: int = 5
    base_knobs: dict[str, Any] = field(default_factory=dict)
    figure: Optional[FigureSpec] = None
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.name is None:
            # frozen dataclass: assign through object.__setattr__
            object.__setattr__(self, "name", self.sweep)

    @property
    def cli_example(self) -> str:
        return f"python -m repro.cli experiment run {self.name}"


def _load_declarations() -> None:
    """Import the studies module, which registers every experiment.

    Deferred to first lookup — never module scope — so importing this
    module alone (tools, tests) does not force the scenario packages
    the sweep registry pulls in behind every registration.
    """
    from . import studies  # noqa: F401


def _check_experiment(spec: ExperimentSpec) -> None:
    """Registration checks: a non-empty run table whose axes, knob
    overrides and figure all fit the underlying sweep — the same
    fail-before-any-run-burns-time posture as the sweep registry."""
    if not spec.axes:
        raise ExperimentError(
            f"experiment {spec.name!r} needs at least one run-table axis"
        )
    for axis, values in spec.axes.items():
        if not values:
            raise ExperimentError(
                f"experiment {spec.name!r}: axis {axis!r} has no values"
            )
    if spec.reps < 1:
        raise ExperimentError(
            f"experiment {spec.name!r}: reps must be >= 1, got {spec.reps}"
        )
    # call-time import: pulling the sweep registry loads the
    # scenario packages, which this module must not force at import
    from ..scenarios.base import REGISTRY as scenarios
    from ..scenarios.base import ScenarioError, check_knobs
    from ..sweep import SWEEPS, SweepError

    try:
        sweep = SWEEPS.get(spec.sweep)
    except SweepError as exc:
        raise ExperimentError(f"experiment {spec.name!r}: {exc}") from None
    for axis in spec.axes:
        if axis not in sweep.axes:
            raise ExperimentError(
                f"experiment {spec.name!r}: axis {axis!r} is not an "
                f"axis of sweep {spec.sweep!r}; valid: "
                f"{', '.join(sorted(sweep.axes))}"
            )
    swept = {sweep.axes[axis] for axis in spec.axes}
    clash = swept & set(spec.base_knobs)
    if clash:
        raise ExperimentError(
            f"experiment {spec.name!r}: base_knobs would override "
            f"swept axis knob(s) {sorted(clash)}"
        )
    scenario = scenarios.get(sweep.scenario).spec
    try:
        for axis, values in spec.axes.items():
            for value in values:
                check_knobs(
                    scenario,
                    {**sweep.knobs_for({axis: value}), **spec.base_knobs},
                )
    except ScenarioError as exc:
        raise ExperimentError(f"experiment {spec.name!r}: {exc}") from None
    if spec.figure is not None and spec.figure.x_axis not in spec.axes:
        raise ExperimentError(
            f"experiment {spec.name!r}: figure x_axis "
            f"{spec.figure.x_axis!r} is not a run-table axis"
        )


#: The process-wide registry ``studies.py`` registers experiments into.
EXPERIMENTS: Registry[ExperimentSpec] = Registry(
    "experiment",
    ExperimentError,
    lambda spec: (spec.name or spec.sweep,),
    check=_check_experiment,
    load=_load_declarations,
)
register_experiment = EXPERIMENTS.register
