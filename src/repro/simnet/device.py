"""Switch dataplane device.

A :class:`Switch` owns a set of interfaces (one per attached link), a
two-level destination-based forwarding table (host routes over routes to
the destination's rack — every host is a leaf behind one switch, so the
rack decides the route), and a pipeline of hooks that run on every
forwarded packet.  The SwitchPointer switch component
(:mod:`repro.switchd.datapath`) attaches itself as such a hook — the
simulator core stays monitoring-agnostic.

ECMP is supported by storing several candidate egress interfaces per
destination and picking one by the flow's hash, which keeps a flow on
one path (per-flow consistent hashing, as datacenter switches do).  The
hash rides in the packet (``Packet.ecmp``, computed once by the flow's
owner), so a switch keeps no per-flow state; an installed ``ecmp_hash``
hook hashes the key itself instead.

The ``forwarding_override`` hook reproduces the §5.4 load-imbalance
scenario: the paper configures a switch to "malfunction" and split flows
across egress interfaces by flow size.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence

from .engine import Simulator
from .link import Interface
from .packet import FlowKey, Packet

#: Pipeline hook signature: (switch, packet, in_iface, out_iface).
PipelineHook = Callable[["Switch", Packet, Optional[Interface], Interface],
                        None]
#: Override signature: (packet, candidate egress interfaces) -> chosen one
#: (or None to fall through to the default ECMP choice).
ForwardingOverride = Callable[[Packet, list[Interface]],
                              Optional[Interface]]
#: ECMP hash hook: flow key -> hash value used to pick among candidates.
#: Installing a degenerate hash (one blind to some header fields)
#: reproduces hash-polarization faults.
EcmpHash = Callable[[FlowKey], int]
#: Gray-failure hook: packet -> True to silently discard it *before* any
#: telemetry or forwarding happens (the switch never admits the packet
#: existed — the defining property of a silent/gray drop).
DropFilter = Callable[[Packet], bool]


class Switch:
    """Output-queued switch with a static, two-level destination FIB.

    A destination is looked up in the *host routes* first (``dst ->
    candidates``: the switch's own attached hosts and every
    :meth:`set_routes` entry); a miss falls
    through to the *rack routes* (``attach switch -> candidates``, one
    shared tuple per remote rack) by way of a ``host -> attach switch``
    map.  :meth:`Network.compute_routes` owns that map: it rebuilds it
    from the live access links at every convergence and hands the same
    dict to every switch, which only ever reads it — a host whose access
    link is down is absent and so has no route on any switch.
    """

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.interfaces: list[Interface] = []
        self._host_routes: dict[str, Sequence[Interface]] = {}
        self._rack_routes: Mapping[str, Sequence[Interface]] = {}
        self._rack_of: Mapping[str, str] = {}
        self.pipeline: list[PipelineHook] = []
        self.forwarding_override: Optional[ForwardingOverride] = None
        self.ecmp_hash: Optional[EcmpHash] = None
        self.drop_filter: Optional[DropFilter] = None
        self.rx_packets = 0
        self.forwarded = 0
        self.no_route_drops = 0
        self.gray_drops = 0

    # -- wiring ------------------------------------------------------------

    def attach(self, iface: Interface) -> None:
        """Register an interface created by a Link for this switch."""
        if iface.owner is not self:
            raise ValueError("interface is not owned by this switch")
        self.interfaces.append(iface)

    def set_routes(self, dst: str, ifaces: Sequence[Interface]) -> None:
        """Replace the whole candidate set for ``dst`` with a host route
        (stored as-is, never copied)."""
        self._host_routes[dst] = ifaces

    def set_rack_routes(self, attach: Mapping[str, str],
                        racks: Mapping[str, Sequence[Interface]]) -> None:
        """Replace the lower level: ``attach`` (host -> attach switch,
        shared by every switch, never written here) and this switch's
        ``racks`` (attach switch -> candidates)."""
        self._rack_of, self._rack_routes = attach, racks

    def clear_routes(self) -> None:
        self._host_routes.clear()
        self._rack_routes = {}

    def routes_for(self, dst: str) -> list[Interface]:
        """The FIB lookup (:meth:`forward` inlines it): a host route
        wins, else the route to the rack ``dst`` hangs off, else ``[]``."""
        found = self._host_routes.get(dst)
        if found is None:
            found = self._rack_routes.get(self._rack_of.get(dst), ())
        return list(found)

    # -- dataplane -----------------------------------------------------------

    def receive(self, pkt: Packet, iface: Interface) -> None:
        self.rx_packets += 1
        self.forward(pkt, iface)

    def forward(self, pkt: Packet, in_iface: Optional[Interface]) -> None:
        if self.drop_filter is not None and self.drop_filter(pkt):
            # Silent drop: no pipeline hooks, no forwarding — upstream
            # telemetry still names this switch's predecessors, which is
            # what drop localization exploits.
            self.gray_drops += 1
            return
        dst = pkt.flow.dst
        candidates = self._host_routes.get(dst)
        if candidates is None:
            candidates = self._rack_routes.get(self._rack_of.get(dst))
        if not candidates:
            self.no_route_drops += 1
            return
        out = None
        if self.forwarding_override is not None:
            out = self.forwarding_override(pkt, list(candidates))
        if out is None:
            h = (pkt.ecmp if self.ecmp_hash is None
                 else self.ecmp_hash(pkt.flow))
            out = candidates[h % len(candidates)]
        for hook in self.pipeline:
            hook(self, pkt, in_iface, out)
        self.forwarded += 1
        out.send(pkt)

    def __repr__(self) -> str:
        return f"Switch({self.name}, ports={len(self.interfaces)})"
