"""Silent-drop (gray failure) fault: a switch blackholes chosen flows.

Extracted from the gray-failure scenario's inline injector.  The drop
happens *before* any pipeline hook runs (see
:class:`repro.simnet.device.Switch`), so the switch's own pointer never
names the victims during the outage — exactly the spatial-cut signature
:func:`repro.analyzer.netdebug.localize_packet_drops` keys on.
"""

from __future__ import annotations

from typing import Any

from ..simnet.device import Switch
from ..simnet.packet import FlowKey, Packet
from .base import Fault, FaultContext, FaultError, FaultParam, FaultSpec, register_fault


@register_fault
class SilentDropFault(Fault):
    """Silently discard a deterministic slice of flows at one switch.

    ``flows`` names the victim :class:`FlowKey` set (programmatic
    callers pass it directly); an empty set means *every* flow through
    the switch vanishes — a full blackhole.  Composition-safe: an
    existing ``drop_filter`` on the switch (another fault, or scenario
    wiring) is chained, not clobbered, and restored intact on heal.
    """

    spec = FaultSpec(
        name="silent-drop",
        summary="a switch silently discards a chosen slice of flows "
        "(gray failure / blackhole)",
        degrades="data plane *and* evidence: dropped packets record no "
        "hop, so the faulty switch's pointer goes silent for the victims",
        diagnosed_by="diagnose_gray_failure / localize_packet_drops",
        params={
            "switch": FaultParam("", "the gray-failing switch"),
            "flows": FaultParam(
                (), "FlowKeys to drop (empty = every flow through the switch)"
            ),
        },
    )

    def __init__(self, **params: Any):
        super().__init__(**params)
        self._saved: Any = None
        self._installed: Any = None
        #: consulted by the installed closure: heal flips it off, so an
        #: overlapping fault stacked *on top* of this one keeps its own
        #: filter working while this fault's slice stops dropping —
        #: heals compose in any order, not just LIFO
        self._active = False

    def _switch(self, ctx: FaultContext) -> Switch:
        name = self.p["switch"]
        try:
            return ctx.network.switches[name]
        except KeyError:
            raise FaultError(
                f"silent-drop: unknown switch {name!r}; known: "
                f"{', '.join(sorted(ctx.network.switches))}"
            ) from None

    def schedule(self, ctx: FaultContext) -> None:
        self._switch(ctx)  # validate eagerly, not at fire time
        super().schedule(ctx)

    def inject(self, ctx: FaultContext) -> None:
        sw = self._switch(ctx)
        dropped = frozenset(
            FlowKey(*f) if isinstance(f, tuple) else f for f in self.p["flows"]
        )
        previous = sw.drop_filter
        self._saved = previous
        self._active = True

        def drop(
            pkt: Packet,
            _prev: Any = previous,
            _victims: Any = dropped,
            _fault: Any = self,
        ) -> bool:
            if _fault._active and (not _victims or pkt.flow in _victims):
                return True
            return bool(_prev is not None and _prev(pkt))

        self._installed = drop
        sw.drop_filter = drop

    def heal(self, ctx: FaultContext) -> None:
        sw = self._switch(ctx)
        self._active = False
        # pop our closure only when it is still the top of the stack;
        # if another fault chained on top of us, the deactivated
        # closure stays in the chain as a transparent pass-through
        if sw.drop_filter is self._installed:
            sw.drop_filter = self._saved