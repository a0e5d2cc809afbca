"""End-host model.

A :class:`Host` terminates one link (its NIC) and demultiplexes arriving
packets to bound handlers by ``(protocol, destination port)`` — the role
sockets play on a real server.  Two extension points matter to
SwitchPointer:

* ``sniffers`` run on *every* received packet before socket delivery;
  the end-host telemetry collector (:mod:`repro.hostd`) attaches here,
  mirroring PathDump's position on the host datapath.  Many hosts can
  share one read-only tuple of hooks (``add_sniffers``) until a host's
  own list is first read.
* ``send`` stamps ``created_at`` so latency and inter-arrival metrics
  have a consistent origin.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

from .engine import Simulator
from .link import Interface
from .packet import Packet

#: Socket handler: called with (packet, arrival_time).
SocketHandler = Callable[[Packet, float], None]
#: Sniffer: called with (host, packet, arrival_time).
Sniffer = Callable[["Host", Packet, float], None]

#: the socket table of every host that bound no port: shared, so it is
#: read-only (``bind`` gives a host its own first)
_NO_SOCKETS: Mapping[tuple[int, int], SocketHandler] = MappingProxyType({})


class Host:
    """A server attached to the network by a single NIC."""

    __slots__ = ("sim", "name", "nic", "_sockets", "_sniffers", "rx_packets",
                 "rx_bytes", "tx_packets", "tx_bytes", "undeliverable")

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.nic: Optional[Interface] = None
        self._sockets = _NO_SOCKETS  # a table of its own at the first bind
        #: a tuple is shared with other hosts, a list is this host's own
        self._sniffers: Sequence[Sniffer] = ()
        self.rx_packets = 0
        self.rx_bytes = 0
        self.tx_packets = 0
        self.tx_bytes = 0
        self.undeliverable = 0

    # -- wiring ------------------------------------------------------------

    def attach(self, iface: Interface) -> None:
        if iface.owner is not self:
            raise ValueError("interface is not owned by this host")
        if self.nic is not None:
            raise ValueError(f"host {self.name} already has a NIC")
        self.nic = iface

    @property
    def sniffers(self) -> list[Sniffer]:
        """The hooks run on every received packet, in order; the first
        read gives the host a list of its own, so a change to it never
        reaches another host."""
        hooks = self._sniffers
        if not isinstance(hooks, list):
            hooks = self._sniffers = list(hooks)
        return hooks

    def add_sniffers(self, hooks: tuple[Sniffer, ...]) -> None:
        """Run ``hooks`` after the sniffers already attached.  A host
        with none shares the tuple itself: a hook given to every host
        costs no list per host until one is read."""
        if self._sniffers:
            self.sniffers.extend(hooks)
        else:
            self._sniffers = hooks

    def bind(self, proto: int, port: int, handler: SocketHandler) -> None:
        """Register ``handler`` for packets to (proto, port)."""
        key = (proto, port)
        if key in self._sockets:
            raise ValueError(f"port {key} already bound on {self.name}")
        if self._sockets is _NO_SOCKETS:
            self._sockets = {}
        self._sockets[key] = handler

    # -- datapath ------------------------------------------------------------

    def send(self, pkt: Packet) -> bool:
        """Transmit ``pkt`` out the NIC; False if the NIC queue dropped it."""
        if self.nic is None:
            raise RuntimeError(f"host {self.name} has no NIC")
        pkt.created_at = self.sim.now
        self.tx_packets += 1
        self.tx_bytes += pkt.size
        return self.nic.send(pkt)

    def receive(self, pkt: Packet, iface: Interface) -> None:
        now = self.sim.now
        self.rx_packets += 1
        self.rx_bytes += pkt.size
        for sniffer in self._sniffers:
            sniffer(self, pkt, now)
        handler = self._sockets.get((pkt.flow.proto, pkt.flow.dport))
        if handler is None:
            self.undeliverable += 1
            return
        handler(pkt, now)

    def __repr__(self) -> str:
        return f"Host({self.name})"
