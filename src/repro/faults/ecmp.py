"""ECMP polarization fault: install a port-blind hash on one switch.

Extracted from the polarization scenario's inline injector.  The buggy
hash ignores the L4 ports, so every connection of a host pair lands on
the same next hop — multipath utilization collapses to 1/n while the
other egresses idle.
"""

from __future__ import annotations

from typing import Any

from ..simnet.device import Switch, _flow_hash
from ..simnet.packet import FlowKey
from .base import Fault, FaultContext, FaultError, FaultParam, FaultSpec, register_fault


def port_blind_hash(flow: FlowKey) -> int:
    """The classic polarization bug: hash blind to sport/dport."""
    return _flow_hash(FlowKey(flow.src, flow.dst, 0, 0, flow.proto))


class _InstalledPortBlindHash(dict[FlowKey, int]):
    """:func:`port_blind_hash` as one injection installs it: called per
    packet, memoized per flow in itself for as long as it is installed."""

    def __call__(self, flow: FlowKey) -> int:
        h = self.get(flow)
        if h is None:
            h = self[flow] = port_blind_hash(flow)
        return h


@register_fault
class EcmpPolarizationFault(Fault):
    """Replace one switch's ECMP hash with the port-blind variant.

    Saves whatever hash was installed (another fault's, or the healthy
    default of ``None``) and restores it on heal — but only while its
    own hash is still the installed one, so healing does not clobber a
    hash some other fault stacked on top in the meantime.  (Two
    *overlapping* polarization faults on one switch install the same
    hash and are not told apart; the first heal restores the
    healthy hash — they are the same bug twice, not two bugs.)
    """

    spec = FaultSpec(
        name="ecmp-polarization",
        summary="a port-blind ECMP hash collapses a switch's multipath "
        "split onto one egress",
        degrades="load balance: per-pair connections stop spreading, one "
        "egress carries ~all flows while siblings idle",
        diagnosed_by="diagnose_polarization (per-egress flow census)",
        params={
            "switch": FaultParam("", "the switch whose hash goes port-blind"),
        },
    )

    def __init__(self, **params: Any):
        super().__init__(**params)
        self._saved: Any = None

    def _switch(self, ctx: FaultContext) -> Switch:
        name = self.p["switch"]
        try:
            return ctx.network.switches[name]
        except KeyError:
            raise FaultError(
                f"ecmp-polarization: unknown switch {name!r}; known: "
                f"{', '.join(sorted(ctx.network.switches))}"
            ) from None

    def schedule(self, ctx: FaultContext) -> None:
        self._switch(ctx)
        super().schedule(ctx)

    def inject(self, ctx: FaultContext) -> None:
        sw = self._switch(ctx)
        self._saved = sw.ecmp_hash
        sw.ecmp_hash = _InstalledPortBlindHash()

    def heal(self, ctx: FaultContext) -> None:
        sw = self._switch(ctx)
        if isinstance(sw.ecmp_hash, _InstalledPortBlindHash):
            sw.ecmp_hash = self._saved

    def expected_egress(self, ctx: FaultContext, flow: FlowKey) -> str:
        """Which next-hop switch the polarized hash sends ``flow`` to.

        Ground truth for tests and the multi-fault scenario: resolves
        the buggy hash against the switch's current candidate order.
        """
        sw = self._switch(ctx)
        candidates = sw.routes_for(flow.dst)
        if not candidates:
            raise FaultError(
                f"ecmp-polarization: switch {sw.name!r} has no route to "
                f"{flow.dst!r} (unknown host, or its access link is down)")
        iface = candidates[port_blind_hash(flow) % len(candidates)]
        return iface.link.peer_of(sw).name
