"""Scenario subsystem: protocol, result base, and registry.

A *scenario* is one reproducible failure experiment: it **builds** a
topology and deploys SwitchPointer on it, **runs** a workload with a
fault injected, **collects** measurements, and **diagnoses** the fault
through the analyzer.  Every scenario — paper figure or extended fault —
implements that four-phase protocol by subclassing :class:`Scenario`
and registering itself with the :data:`REGISTRY` decorator:

    @register
    class IncastScenario(Scenario):
        spec = ScenarioSpec(name="incast", ...)
        def build(self): ...
        def run(self): ...
        def collect(self): ...
        def diagnose(self): ...

Registration is all it takes for the scenario to appear in
``python -m repro.cli list``, be runnable via ``repro.cli run <name>``,
and show up in the generated ``docs/SCENARIOS.md`` catalogue — the CLI
and the docs render the same :class:`ScenarioSpec` metadata.

:meth:`Scenario.execute` is the shared driver: it walks the phases,
wall-clock-times each one, snapshots per-switch dataplane counters, and
returns a :class:`ScenarioResult` carrying the measurements and the
analyzer verdicts.  It is also the one place that sets collector
policy: cyclic GC sits out the walk (see :meth:`Scenario.execute`).
"""

from __future__ import annotations

import abc
import gc
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Optional

from ..analyzer.apps import Verdict
from ..deployment import SwitchPointerDeployment
from ..faults import FAULTS, Fault, FaultContext, FaultPlan
from ..registry import Registry
from ..simnet.topology import Network


class ScenarioError(Exception):
    """Raised for registry misuse or invalid scenario parameters."""


@dataclass(frozen=True)
class Knob:
    """One tunable parameter of a scenario (``minimum``: the smallest
    number it accepts, when it has one).

    A knob's type is its default's type: an int knob takes an int, a
    float knob an int or a float, a bool knob only a bool and a str
    knob only a str (:func:`check_knobs`).
    """

    default: Any
    help: str
    minimum: Optional[float] = None


@dataclass(frozen=True)
class ScenarioSpec:
    """Registry metadata for one scenario.

    This is the single source of truth the CLI ``list`` output and the
    ``docs/SCENARIOS.md`` catalogue are both rendered from.

    Attributes
    ----------
    name:
        Registry key, kebab-case, unique.
    summary:
        One-line description (CLI ``list``).
    paper_ref:
        The paper figure/section reproduced, or the fault modelled.
    expected_diagnosis:
        The ``Verdict.problem`` (and suspect, where applicable) a
        correct run must reach.
    knobs:
        Tunable parameters with defaults and help strings.
    aliases:
        Alternate registry keys (the historical ``fig*`` ids).
    smoke_knobs:
        Knob overrides for a fast round-trip (tests, CI smoke).
    faults:
        Names of the registered faults (``repro.faults``) this scenario
        injects — declared, not open-coded, so the docs catalogue and
        the fault layer stay in sync.  Validated at registration.
    """

    name: str
    summary: str
    paper_ref: str
    expected_diagnosis: str
    knobs: dict[str, Knob] = field(default_factory=dict)
    aliases: tuple[str, ...] = ()
    smoke_knobs: dict[str, Any] = field(default_factory=dict)
    faults: tuple[str, ...] = ()
    #: verdict states this scenario's diagnosis can emit
    #: (:data:`repro.analyzer.session.VERDICT_STATES` subset); scenarios
    #: with an online diagnosis path declare all three, post-mortem
    #: scenarios keep the default
    verdict_states: tuple[str, ...] = ("complete",)

    @property
    def cli_example(self) -> str:
        return f"python -m repro.cli run {self.name}"


@dataclass
class SwitchStats:
    """Per-switch dataplane counters snapshotted after a run."""

    rx_packets: int = 0
    forwarded: int = 0
    no_route_drops: int = 0
    gray_drops: int = 0
    link_down_drops: int = 0


@dataclass
class ScenarioResult:
    """What :meth:`Scenario.execute` returns, for every scenario.

    ``measurements`` holds the scenario-specific numbers from the
    collect phase; ``scenario`` is the executed instance itself, whose
    probes, victim flows and other run state the examples, tests and
    figure benchmarks read.
    """

    name: str
    knobs: dict[str, Any]
    timings: dict[str, float] = field(default_factory=dict)  # phase -> s
    sim_time: float = 0.0                # simulated seconds consumed
    switch_stats: dict[str, SwitchStats] = field(default_factory=dict)
    verdicts: list[Verdict] = field(default_factory=list)
    measurements: dict[str, Any] = field(default_factory=dict)
    scenario: Optional[Scenario] = None
    network: Optional[Network] = None
    deployment: Optional[SwitchPointerDeployment] = None
    #: simulated seconds the diagnosis phase consumed (0.0 when the
    #: analyzer runs post-mortem outside simulated time)
    diagnosis_latency_sim: float = 0.0
    #: decoded records ingested network-wide between the diagnosis
    #: trigger and the verdict — how far the network moved on while
    #: the analyzer was looking at it
    freshness: int = 0

    def verdict(self, problem: str) -> Optional[Verdict]:
        """The first verdict whose ``problem`` matches, if any."""
        for v in self.verdicts:
            if v.problem == problem:
                return v
        return None

    def summary_lines(self) -> list[str]:
        """Human-readable report (the CLI ``run`` output body)."""
        out = [f"scenario: {self.name}"]
        if self.knobs:
            knobs = ", ".join(f"{k}={v}" for k, v in sorted(self.knobs.items()))
            out.append(f"knobs: {knobs}")
        phases = "  ".join(f"{p}={s * 1e3:.0f}ms"
                           for p, s in self.timings.items())
        out.append(f"wall clock: {phases}")
        out.append(f"simulated time: {self.sim_time * 1e3:.1f} ms")
        if self.diagnosis_latency_sim or self.freshness:
            out.append("diagnosis latency (sim): "
                       f"{self.diagnosis_latency_sim * 1e3:.1f} ms")
            out.append(f"freshness: {self.freshness} records ingested "
                       f"during diagnosis")
        for key, value in sorted(self.measurements.items()):
            out.append(f"{key}: {value}")
        drops = {sw: st for sw, st in self.switch_stats.items()
                 if st.gray_drops or st.no_route_drops or st.link_down_drops}
        for sw, st in sorted(drops.items()):
            out.append(f"drops at {sw}: gray={st.gray_drops} "
                       f"no_route={st.no_route_drops} "
                       f"link_down={st.link_down_drops}")
        for v in self.verdicts:
            suspect = f" [suspect: {v.suspect}]" if v.suspect else ""
            status = ""
            if v.status != "complete":
                gaps = (f" missing_hosts={','.join(v.missing_hosts)}"
                        if v.missing_hosts else "")
                status = f" [{v.status}{gaps}]"
            out.append(f"diagnosis ({v.problem}){status}{suspect}: "
                       f"{v.narrative}")
            # the Fig 7 / Fig 8 y-axes: modelled loop time, hosts asked
            out.append(f"  debugging time (model): "
                       f"{v.total_time_s * 1e3:.1f} ms; hosts consulted: "
                       f"{len(v.hosts_consulted)}")
        if not self.verdicts:
            out.append("diagnosis: (none — no verdict produced)")
        return out


def check_knobs(spec: ScenarioSpec, knobs: dict[str, Any]) -> None:
    """The one knob contract, held by scenarios, run tables and sweep and
    experiment registration before any run: an undeclared name, a value
    under its knob's ``minimum`` (or not finite) or of another type than
    the default's raises a :class:`ScenarioError` naming knob and scenario.
    """
    unknown = set(knobs) - set(spec.knobs)
    if unknown:
        raise ScenarioError(
            f"unknown knob(s) for {spec.name!r}: "
            f"{sorted(unknown)}; valid: {sorted(spec.knobs)}")
    for name, value in knobs.items():
        knob = spec.knobs[name]
        # NaN compares False either way: require finite, then >=
        if (knob.minimum is not None and isinstance(value, (int, float))
                and not (math.isfinite(value) and value >= knob.minimum)):
            what = "" if math.isfinite(value) else "a finite number "
            raise ScenarioError(
                f"knob {name!r} of {spec.name!r} must be {what}>= "
                f"{knob.minimum:g}, got {value!r}")
        kind = type(knob.default)
        if isinstance(value, bool) or kind is bool:
            fits = isinstance(value, bool) and kind is bool
        else:
            fits = isinstance(value, kind) or (kind is float
                                               and isinstance(value, int))
        if not fits:
            raise ScenarioError(
                f"knob {name!r} of {spec.name!r} takes "
                f"{'an' if kind is int else 'a'} {kind.__name__}, got "
                f"{value!r} ({type(value).__name__})")


class Scenario(abc.ABC):
    """Base class all scenarios implement (build → run → collect → diagnose).

    Subclasses set ``spec`` (a :class:`ScenarioSpec`) and the four phase
    methods.  ``build`` must assign ``self.network`` and
    ``self.deployment``; the other phases may stash whatever state they
    need on ``self``.  Knob values arrive as constructor kwargs and are
    validated against ``spec.knobs``; resolved values live in ``self.p``.
    """

    spec: ClassVar[ScenarioSpec]

    def __init__(self, **knobs: Any):
        check_knobs(self.spec, knobs)
        self.p: dict[str, Any] = {
            name: knobs.get(name, knob.default)
            for name, knob in self.spec.knobs.items()}
        self.network: Optional[Network] = None
        self.deployment: Optional[SwitchPointerDeployment] = None
        #: the fault composition this run injects; build() populates it
        #: (via add_fault) and execute() schedules it after build
        self.faults = FaultPlan()

    def add_fault(self, name: str, **params: Any) -> Fault:
        """Instantiate a registered fault and add it to this run's plan.

        The scenario declares *which* faults it uses in
        ``spec.faults``; build() calls this to bind them to the
        concrete topology (switch names, victim flows, times).
        """
        return self.faults.add_named(name, **params)

    # -- the four phases -----------------------------------------------------

    @abc.abstractmethod
    def build(self) -> None:
        """Construct topology + deployment + workload (no sim time passes)."""

    @abc.abstractmethod
    def run(self) -> None:
        """Advance the simulator through the experiment."""

    @abc.abstractmethod
    def collect(self) -> dict[str, Any]:
        """Gather scenario-specific measurements from the finished run."""

    @abc.abstractmethod
    def diagnose(self) -> list[Verdict]:
        """Run the analyzer app(s) and return their verdicts."""

    # -- driver --------------------------------------------------------------

    def execute(self, *, with_diagnosis: bool = True) -> ScenarioResult:
        """Walk the phases, timing each, and assemble the result.

        The cyclic collector sits out the walk.  A run makes no garbage
        cycles: reference counting frees every packet, event and evicted
        record, and the only cycles — the fabric, the deployment, the
        agents — stay live until the caller drops the result.  So every
        collection during a run would re-walk the long-lived fabric for
        nothing.  If the caller left GC enabled, a generation-1 pass on
        entry frees the networks of results dropped since the last run
        (a full pass would re-walk everything the caller still holds),
        GC is disabled for build → run → collect → diagnose and enabled
        again on the way out, also when a phase raises.  A caller that
        disabled GC itself keeps its own policy untouched.
        """
        if not gc.isenabled():
            return self._walk(with_diagnosis)
        gc.collect(1)
        gc.disable()
        try:
            return self._walk(with_diagnosis)
        finally:
            gc.enable()

    def _walk(self, with_diagnosis: bool) -> ScenarioResult:
        timings: dict[str, float] = {}

        def timed(phase: str, fn: Callable[[], Any]) -> Any:
            # phase wall-clock cost is a *measurement* here, never an
            # input to simulated behaviour
            t0 = time.perf_counter()  # reprolint: allow[wall-clock]
            out = fn()
            timings[phase] = time.perf_counter() - t0  # reprolint: allow[wall-clock]
            return out

        timed("build", self.build)
        if self.network is None or self.deployment is None:
            raise ScenarioError(
                f"{type(self).__name__}.build() must set "
                f"self.network and self.deployment")
        fault_ctx = FaultContext(self.network, self.deployment)
        if self.faults:
            self.faults.schedule(fault_ctx)
        timed("run", self.run)
        if self.faults:
            # stop fault-internal event processes (flappers etc.)
            # without healing — diagnosis sees the faults as-is
            self.faults.finalize(fault_ctx)
        measurements = timed("collect", self.collect) or {}
        plan_status_owned = False
        if self.faults:
            # the composed plan's lifecycle, for reports and sweeps: a
            # fault that never fired (start beyond the run window)
            # shows up as pending instead of silently vanishing
            plan_status_owned = "fault_plan" not in measurements
            measurements.setdefault("fault_plan", self.faults.status())
        verdicts: list[Verdict] = []
        diag_started_sim = self.network.sim.now
        seq_at_trigger = self.deployment.analyzer.ingest_seq()
        if with_diagnosis:
            if self.faults:
                self.faults.mark_diagnosis_start(diag_started_sim)
            verdicts = timed("diagnose", self.diagnose) or []
            if self.faults and plan_status_owned:
                # online diagnosis consumes simulated time: a fault that
                # fired *during* the query window must be re-reported as
                # active-during-diagnosis, not left as the pre-diagnosis
                # pending snapshot
                measurements["fault_plan"] = self.faults.status()
            # sketch-directory accuracy over the pointer queries the
            # diagnosis just issued: 0.0 for the exact backend and for
            # saturating budgets (the directory-bits sweep's y2 axis)
            measurements.setdefault(
                "directory_fpr",
                self.deployment.analyzer.directory_stats()["fpr"])
        return ScenarioResult(
            name=self.spec.name, knobs=dict(self.p), timings=timings,
            sim_time=self.network.sim.now,
            switch_stats=self._switch_stats(),
            verdicts=verdicts, measurements=measurements,
            scenario=self,
            network=self.network, deployment=self.deployment,
            diagnosis_latency_sim=self.network.sim.now - diag_started_sim,
            freshness=(self.deployment.analyzer.ingest_seq()
                       - seq_at_trigger))

    def _switch_stats(self) -> dict[str, SwitchStats]:
        stats = {}
        for name, sw in self.network.switches.items():
            link_down = sum(iface.dropped_link_down
                            for iface in sw.interfaces)
            stats[name] = SwitchStats(
                rx_packets=sw.rx_packets, forwarded=sw.forwarded,
                no_route_drops=sw.no_route_drops,
                gray_drops=sw.gray_drops, link_down_drops=link_down)
        return stats


def _check_scenario(cls: type[Scenario]) -> None:
    """Registration checks: a spec, registered faults, and defaults and
    smoke knobs that pass the knob contract."""
    spec = getattr(cls, "spec", None)
    if not isinstance(spec, ScenarioSpec):
        raise ScenarioError(
            f"{cls.__name__} must define a ScenarioSpec 'spec'")
    unknown_faults = [f for f in spec.faults if f not in FAULTS]
    if unknown_faults:
        raise ScenarioError(
            f"{cls.__name__} declares unregistered fault(s) "
            f"{unknown_faults}; known: {', '.join(FAULTS.names())}")
    check_knobs(spec, {name: knob.default
                       for name, knob in spec.knobs.items()})
    check_knobs(spec, spec.smoke_knobs)


#: The process-wide registry every scenario module registers into.
REGISTRY: Registry[type[Scenario]] = Registry(
    "scenario", ScenarioError,
    lambda cls: (cls.spec.name, *cls.spec.aliases),
    check=_check_scenario)
register = REGISTRY.register


def run_scenario(name: str, *, with_diagnosis: bool = True,
                 **knobs: Any) -> ScenarioResult:
    """Look up ``name`` (or alias) in the registry and execute it."""
    cls = REGISTRY.get(name)
    return cls(**knobs).execute(with_diagnosis=with_diagnosis)
