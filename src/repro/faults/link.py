"""Link faults: one-shot outage and periodic flap.

Extracted from the link-flap scenario's inline wiring: both faults
model the gap between a physical transition and control-plane
reconvergence (``reconverge_delay``) — packets already committed to a
dead link during that window are lost, which is what drives the
retransmit cascades the flap scenario studies.
"""

from __future__ import annotations

from typing import Any, Optional

from ..simnet.topology import Network
from .base import Fault, FaultContext, FaultError, FaultParam, FaultSpec, register_fault


def _require_link(ctx: FaultContext, fault: Fault, a: str, b: str) -> None:
    if not a or not b:
        raise FaultError(f"fault {fault.spec.name!r} needs both link endpoints a=, b=")
    ctx.network.link_between(a, b)  # raises TopologyError if absent


@register_fault
class LinkDownFault(Fault):
    """Take one link down at ``start``; bring it back at ``stop`` (if set).

    The transition is physical-first: forwarding state keeps pointing at
    the dead link for ``reconverge_delay`` seconds (the blackhole
    window), then routes recompute around it.  Telemetry signature:
    every flow hashed to the dead egress detours — its host records
    accumulate epoch ranges at *both* egress switches, which is what
    :func:`repro.analyzer.apps.diagnose_link_flap` keys on.
    """

    spec = FaultSpec(
        name="link-down",
        summary="one-shot link outage with delayed routing reconvergence",
        degrades="connectivity: strands in-flight packets until routes "
        "reconverge, then forces a reroute (and a reroute back on repair)",
        diagnosed_by="diagnose_link_flap (the dead egress is the churned one)",
        params={
            "a": FaultParam("", "one link endpoint (node name)"),
            "b": FaultParam("", "the other link endpoint"),
            "reconverge_delay": FaultParam(
                0.002, "control-plane convergence lag after each transition (s)"
            ),
        },
    )

    def schedule(self, ctx: FaultContext) -> None:
        _require_link(ctx, self, self.p["a"], self.p["b"])
        super().schedule(ctx)

    def inject(self, ctx: FaultContext) -> None:
        ctx.network.set_link_state(self.p["a"], self.p["b"], False,
                                   reconverge_delay=self.p["reconverge_delay"])

    def heal(self, ctx: FaultContext) -> None:
        ctx.network.set_link_state(self.p["a"], self.p["b"], True,
                                   reconverge_delay=self.p["reconverge_delay"])


@register_fault
class LinkFlapFault(Fault):
    """Oscillate one link down/up from ``start`` until ``stop``.

    The first down transition is its own event at ``start``; each
    transition flips the link and schedules its reconvergence, then
    arms the next one a ``down_for``/``up_for`` dwell later.  Healing
    cancels the pending transition and restores the link if it died
    mid-outage.
    """

    spec = FaultSpec(
        name="link-flap",
        summary="periodic down/up churn on one link (transceiver flap)",
        degrades="connectivity, repeatedly: every cycle strands packets "
        "for the reconvergence window and reroutes the link's flows",
        diagnosed_by="diagnose_link_flap",
        params={
            "a": FaultParam("", "one link endpoint (node name)"),
            "b": FaultParam("", "the other link endpoint"),
            "down_for": FaultParam(0.006, "down dwell per flap (s)"),
            "up_for": FaultParam(0.010, "up dwell per flap (s)"),
            "reconverge_delay": FaultParam(
                0.002, "control-plane convergence lag after each transition (s)"
            ),
        },
    )

    def __init__(self, **params: Any):
        super().__init__(**params)
        for name in ("down_for", "up_for"):
            if not self.p[name] > 0:
                raise FaultError(
                    f"fault {self.spec.name!r}: {name} must be > 0, "
                    f"got {self.p[name]!r}"
                )
        #: completed down/up cycles so far
        self.flaps = 0
        self._next: Optional[int] = None  # the pending transition's event

    def schedule(self, ctx: FaultContext) -> None:
        _require_link(ctx, self, self.p["a"], self.p["b"])
        super().schedule(ctx)

    def inject(self, ctx: FaultContext) -> None:
        # the plan already delayed us to start: go down at this instant
        self._next = ctx.network.sim.schedule(0.0, self._transition, ctx.network, False)

    def _transition(self, net: Network, up: bool) -> None:
        p = self.p
        net.set_link_state(p["a"], p["b"], up, reconverge_delay=p["reconverge_delay"])
        if up:
            self.flaps += 1
        dwell = p["up_for"] if up else p["down_for"]
        self._next = net.sim.schedule(dwell, self._transition, net, not up)

    def heal(self, ctx: FaultContext) -> None:
        self.finalize(ctx)
        if not ctx.network.link_between(self.p["a"], self.p["b"]).up:
            ctx.network.set_link_state(self.p["a"], self.p["b"], True)

    def finalize(self, ctx: FaultContext) -> None:
        # stop the periodic process; the link stays in whatever state
        # the last transition left it (diagnosis sees the fault as-is)
        if self._next is not None:
            ctx.network.sim.cancel(self._next)
            self._next = None
