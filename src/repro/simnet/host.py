"""End-host model.

A :class:`Host` terminates one link (its NIC) and demultiplexes arriving
packets to bound handlers by ``(protocol, destination port)`` — the role
sockets play on a real server.  Two extension points matter to
SwitchPointer:

* ``sniffers`` run on *every* received packet before socket delivery;
  the end-host telemetry collector (:mod:`repro.hostd`) attaches here,
  mirroring PathDump's position on the host datapath.
* ``send`` stamps ``created_at`` so latency and inter-arrival metrics
  have a consistent origin.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Mapping, Optional

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

    __slots__ = ("sim", "name", "nic", "_sockets", "sniffers", "rx_packets",
                 "rx_bytes", "tx_packets", "tx_bytes", "undeliverable")

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.nic: Optional[Interface] = None
        self._sockets = _NO_SOCKETS  # a table of its own at the first bind
        self.sniffers: list[Sniffer] = []
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

    def bind(self, proto: int, port: int, handler: SocketHandler) -> None:
        """Register ``handler`` for packets to (proto, port)."""
        key = (proto, port)
        if key in self._sockets:
            raise ValueError(f"port {key} already bound on {self.name}")
        if self._sockets is _NO_SOCKETS:
            self._sockets = {}
        self._sockets[key] = handler

    def unbind(self, proto: int, port: int) -> None:
        if self._sockets:
            self._sockets.pop((proto, port), None)

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
        for sniffer in self.sniffers:
            sniffer(self, pkt, now)
        handler = self._sockets.get((pkt.flow.proto, pkt.flow.dport))
        if handler is None:
            self.undeliverable += 1
            return
        handler(pkt, now)

    def __repr__(self) -> str:
        return f"Host({self.name})"
