"""The :class:`FaultPlan` composer: N faults, independent schedules,
one simulation.

A plan is an ordered bag of :class:`~repro.faults.base.Fault`
instances.  ``schedule()`` registers every fault's inject/heal events
with the simulator in one pass, after validating the composition;
afterwards the plan is the scenario's window into fault state —
which faults became active, which healed, which never fired because
their start time lay beyond the run window (the
"fault scheduled after diagnosis starts" case: it stays ``pending``
and is reported as such rather than silently vanishing).

Composition rules:

* Any number of faults may coexist, including several on the same
  switch or link — each fault saves and restores exactly the hooks it
  touched (e.g. :class:`~repro.faults.drop.SilentDropFault` chains an
  existing ``drop_filter`` rather than clobbering it), and heals
  compose in any order, not just LIFO: a drop closure healed from the
  middle of a chain deactivates in place, clock skew unwinds by the
  delta it applied, and a hash heal never clobbers a hook some other
  fault stacked on top.
* ``stop <= start`` on any fault (heal-before-inject) is rejected at
  construction, and :meth:`schedule` re-checks so a mutated plan
  cannot sneak one in.
* A plan schedules once; re-scheduling is an error (the underlying
  simulator events cannot be deduplicated).
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from .base import (
    ACTIVE,
    ACTIVE_DURING_DIAGNOSIS,
    FAULTS,
    Fault,
    FaultContext,
    FaultError,
)


class FaultPlan:
    """A composition of faults injected into one simulation."""

    def __init__(self, faults: Optional[list[Fault]] = None):
        self.faults: list[Fault] = list(faults or [])
        self._scheduled = False
        self._diagnosis_start: Optional[float] = None

    # -- composition --------------------------------------------------------

    def add(self, fault: Fault) -> Fault:
        """Append an already-constructed fault instance."""
        if self._scheduled:
            raise FaultError("cannot add faults to an already-scheduled plan")
        self.faults.append(fault)
        return fault

    def add_named(self, name: str, **params: Any) -> Fault:
        """Instantiate ``name`` from the registry and append it."""
        return self.add(FAULTS.get(name)(**params))

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    # -- scheduling ---------------------------------------------------------

    def schedule(self, ctx: FaultContext) -> None:
        """Register every fault's events with ``ctx.network.sim``."""
        if self._scheduled:
            raise FaultError("fault plan already scheduled")
        for fault in self.faults:
            stop = fault.p["stop"]
            if stop is not None and stop <= fault.p["start"]:
                raise FaultError(
                    f"fault {fault.spec.name!r}: heal scheduled before inject"
                )
        for fault in self.faults:
            fault.schedule(ctx)
        self._scheduled = True

    def finalize(self, ctx: FaultContext) -> None:
        """Stop every fault's internal event process (end of run).

        Idempotent and heal-free: faults stay in whatever state the run
        left them for the diagnosis phase; only their self-scheduling
        machinery (flappers and the like) is shut down, so no fault
        keeps queueing simulator events past the run window.
        """
        for fault in self.faults:
            fault.finalize(ctx)

    # -- state reporting ----------------------------------------------------

    def mark_diagnosis_start(self, now: float) -> None:
        """Record when the diagnosis phase began (simulated seconds).

        From here on, a still-scheduled fault whose injection fires —
        because the online analyzer's RPCs advance simulated time — is
        reported :data:`~repro.faults.base.ACTIVE_DURING_DIAGNOSIS`
        instead of being misfiled as ``pending`` or plain ``active``:
        it raced the query window, and the scenario asserts the verdict
        degraded rather than errored.
        """
        self._diagnosis_start = now

    def raced_diagnosis(self, fault: Fault) -> bool:
        """Did ``fault`` inject after the diagnosis phase began?"""
        return (
            self._diagnosis_start is not None
            and fault.state == ACTIVE
            and fault.injected_at is not None
            and fault.injected_at >= self._diagnosis_start
        )

    def status(self) -> list[str]:
        """One describe() line per fault (scenario measurements)."""
        return [
            fault.describe(
                state=ACTIVE_DURING_DIAGNOSIS
                if self.raced_diagnosis(fault)
                else None
            )
            for fault in self.faults
        ]
