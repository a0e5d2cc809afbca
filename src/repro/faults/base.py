"""Fault subsystem: protocol, parameter specs, and registry.

A *fault* is one injectable disturbance — a link going down, a switch
silently dropping a flow slice, a skewed clock, a crashed host agent —
packaged behind a four-verb protocol (**schedule → inject → heal →
describe**) so scenarios compose faults instead of open-coding
``sim.schedule_at`` callbacks:

    @register_fault
    class SilentDropFault(Fault):
        spec = FaultSpec(name="silent-drop", ...)
        def inject(self, ctx): ...
        def heal(self, ctx): ...

Registration uses the same :class:`~repro.registry.Registry` as the
scenarios: the decorator is all it takes for the fault to appear in
``python -m repro.cli faults list`` and in the generated
``docs/FAULTS.md`` catalogue — the CLI and the docs render the same
:class:`FaultSpec` metadata.

Every fault carries two shared scheduling parameters on top of its own:
``start`` (simulated seconds at which :meth:`Fault.inject` fires) and
``stop`` (when :meth:`Fault.heal` fires; ``None`` = the fault persists
to the end of the run).  The :class:`~repro.faults.plan.FaultPlan`
composer turns those into simulator events and tracks each fault
through its ``pending → active → healed`` lifecycle.

This layer sits *below* the scenario package: faults import simnet,
core, and the deployment — never scenarios — so scenario modules are
free to import the registry.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, ClassVar, Optional, TYPE_CHECKING

from ..registry import Registry

if TYPE_CHECKING:  # import cycle guard: deployment is typing-only here
    from ..deployment import SwitchPointerDeployment
    from ..simnet.topology import Network

#: Lifecycle states a fault moves through under a FaultPlan.
PENDING = "pending"
ACTIVE = "active"
HEALED = "healed"

#: Reporting label (not a lifecycle state): an ACTIVE fault whose
#: injection fired after diagnosis began — it raced the analyzer's
#: query window, and the verdict is expected to degrade, not error.
ACTIVE_DURING_DIAGNOSIS = "active-during-diagnosis"


class FaultError(Exception):
    """Raised for registry misuse or invalid fault parameters."""


@dataclass(frozen=True)
class FaultParam:
    """One tunable parameter of a fault (default + help string)."""

    default: Any
    help: str


@dataclass(frozen=True)
class FaultSpec:
    """Registry metadata for one fault.

    The single source of truth both ``cli faults list`` and the
    generated ``docs/FAULTS.md`` catalogue render.

    Attributes
    ----------
    name:
        Registry key, kebab-case, unique.
    summary:
        One-line description (CLI ``faults list``).
    degrades:
        What evidence the fault removes or corrupts — which layer of
        the diagnosis pipeline it stresses.
    diagnosed_by:
        The analyzer app(s) that attribute the fault, or "(none)" for
        pure stressors like clock skew.
    params:
        Fault-specific parameters; ``start``/``stop`` are implicit on
        every fault and need not be declared.
    """

    name: str
    summary: str
    degrades: str
    diagnosed_by: str
    params: dict[str, FaultParam] = field(default_factory=dict)


@dataclass
class FaultContext:
    """What a fault gets to act on when it fires."""

    network: "Network"
    deployment: Optional["SwitchPointerDeployment"] = None

    def require_deployment(self, fault: "Fault") -> "SwitchPointerDeployment":
        if self.deployment is None:
            raise FaultError(
                f"fault {fault.spec.name!r} needs an instrumented "
                f"deployment in its context"
            )
        return self.deployment


#: The scheduling parameters every fault shares.
_COMMON_PARAMS: dict[str, FaultParam] = {
    "start": FaultParam(0.0, "simulated time (s) at which inject() fires"),
    "stop": FaultParam(None, "when heal() fires (s; None = never)"),
}


class Fault(abc.ABC):
    """Base class all faults implement (schedule → inject → heal → describe).

    Subclasses set ``spec`` (a :class:`FaultSpec`) and the two state
    transitions.  Parameter values arrive as constructor kwargs and are
    validated against ``spec.params`` plus the shared ``start``/``stop``;
    resolved values live in ``self.p``.  Lifecycle state is owned by the
    :class:`~repro.faults.plan.FaultPlan` driving the fault.
    """

    spec: ClassVar[FaultSpec]

    def __init__(self, **params: Any):
        valid = {**_COMMON_PARAMS, **self.spec.params}
        unknown = set(params) - set(valid)
        if unknown:
            raise FaultError(
                f"unknown param(s) for fault {self.spec.name!r}: "
                f"{sorted(unknown)}; valid: {sorted(valid)}"
            )
        self.p: dict[str, Any] = {
            name: params.get(name, spec.default) for name, spec in valid.items()
        }
        start, stop = self.p["start"], self.p["stop"]
        if start < 0:
            raise FaultError(
                f"fault {self.spec.name!r}: start must be >= 0, got {start!r}"
            )
        if stop is not None and stop <= start:
            # heal-before-inject (or at the same instant) is a plan bug,
            # not a runtime surprise — reject it at construction
            raise FaultError(
                f"fault {self.spec.name!r}: stop ({stop}) must be after "
                f"start ({start}) — cannot heal before injecting"
            )
        self.state = PENDING
        #: simulated time at which inject() actually fired (None while
        #: pending) — lets the plan tell a fault that raced the
        #: diagnosis window apart from one that fired during the run
        self.injected_at: Optional[float] = None

    # -- the two state transitions -----------------------------------------

    @abc.abstractmethod
    def inject(self, ctx: FaultContext) -> None:
        """Apply the disturbance to the running system."""

    @abc.abstractmethod
    def heal(self, ctx: FaultContext) -> None:
        """Undo the disturbance (restore what inject() saved)."""

    def finalize(self, ctx: FaultContext) -> None:
        """End-of-run cleanup hook (default: nothing).

        Called by the plan once the scenario's run phase is over —
        *without* healing: the fault's effects on the network stay as
        they are for the diagnosis phase, but any internal event
        process it drives (a link flap's down/up chain) must stop scheduling
        past the run window.
        """

    # -- scheduling ---------------------------------------------------------

    def schedule(self, ctx: FaultContext) -> None:
        """Register this fault's inject/heal events with the simulator.

        The default schedule fires :meth:`inject` at ``start`` and
        :meth:`heal` at ``stop`` (when set).  Faults with their own
        internal event process (e.g. a flapper) still use this entry
        point — their ``inject`` starts the process, ``heal`` stops it.
        """
        sim = ctx.network.sim
        sim.schedule_at(self.p["start"], self._fire_inject, ctx)
        if self.p["stop"] is not None:
            sim.schedule_at(self.p["stop"], self._fire_heal, ctx)

    def _fire_inject(self, ctx: FaultContext) -> None:
        if self.state != PENDING:
            raise FaultError(
                f"fault {self.spec.name!r} injected twice (state {self.state})"
            )
        self.inject(ctx)
        self.state = ACTIVE
        self.injected_at = ctx.network.sim.now

    def _fire_heal(self, ctx: FaultContext) -> None:
        if self.state != ACTIVE:
            raise FaultError(
                f"fault {self.spec.name!r} healed in state {self.state!r} "
                f"(must be active)"
            )
        self.heal(ctx)
        self.state = HEALED

    # -- description --------------------------------------------------------

    def describe(self, *, state: Optional[str] = None) -> str:
        """One line: what this instance does, when, to what.

        ``state`` overrides the lifecycle state label — the plan uses
        it to report :data:`ACTIVE_DURING_DIAGNOSIS` for faults whose
        injection raced the analyzer's query window.
        """
        own = {
            k: v
            for k, v in sorted(self.p.items())
            if k not in ("start", "stop") and v not in (None, "", ())
        }
        args = ", ".join(f"{k}={v}" for k, v in own.items())
        when = f"@{self.p['start'] * 1e3:.1f}ms"
        if self.p["stop"] is not None:
            when += f"-{self.p['stop'] * 1e3:.1f}ms"
        label = state if state is not None else self.state
        return f"{self.spec.name}({args}) {when} [{label}]"


def _check_fault(cls: type[Fault]) -> None:
    """Registration checks: a spec that leaves the shared params alone."""
    spec = getattr(cls, "spec", None)
    if not isinstance(spec, FaultSpec):
        raise FaultError(f"{cls.__name__} must define a FaultSpec 'spec'")
    overlap = set(spec.params) & set(_COMMON_PARAMS)
    if overlap:
        raise FaultError(
            f"fault {spec.name!r} redeclares shared param(s) {sorted(overlap)}"
        )


#: The process-wide registry every fault module registers into.
FAULTS: Registry[type[Fault]] = Registry(
    "fault", FaultError, lambda cls: (cls.spec.name,), check=_check_fault
)
register_fault = FAULTS.register
