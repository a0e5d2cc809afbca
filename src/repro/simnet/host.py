"""End-host model.

A :class:`Host` terminates one link (its NIC) and demultiplexes arriving
packets to bound handlers by ``(protocol, destination port)`` — the role
sockets play on a real server.  A handler is bound to one port
(``bind``) or to a block of ports (``bind_blocks``: a whole background
population's receiving ports, one entry however many flows a host
receives, and one tuple shared by every receiving host); the exact port
is looked up first, then the blocks, and the two never overlap.  Two
extension points matter to SwitchPointer:

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

#: A block binding: ``(proto, lo, hi, handler)`` serves ports ``lo <=
#: port < hi``.
PortBlock = tuple[int, int, int, SocketHandler]

#: the socket table of every host that bound no port: shared, so it is
#: read-only (``bind`` gives a host its own first)
_NO_SOCKETS: Mapping[tuple[int, int], SocketHandler] = MappingProxyType({})


class Host:
    """A server attached to the network by a single NIC."""

    __slots__ = ("sim", "name", "nic", "_sockets", "_blocks", "_sniffers",
                 "rx_packets", "rx_bytes", "tx_packets", "tx_bytes",
                 "undeliverable")

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.nic: Optional[Interface] = None
        self._sockets = _NO_SOCKETS  # a table of its own at the first bind
        #: port blocks: a tuple shared with every host bound alike
        self._blocks: tuple[PortBlock, ...] = ()
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
        if key in self._sockets or self._block_at(proto, port) is not None:
            raise ValueError(f"port {key} already bound on {self.name}")
        if self._sockets is _NO_SOCKETS:
            self._sockets = {}
        self._sockets[key] = handler

    def bind_blocks(self, blocks: tuple[PortBlock, ...]) -> None:
        """Register each ``(proto, lo, hi, handler)`` of ``blocks`` for
        packets to (proto, port), ``lo <= port < hi``: one entry however
        many ports.  A host with no block shares the tuple itself, as
        :meth:`add_sniffers` does, so one block given to every receiver
        costs no tuple per host.  A block that overlaps a bound port or
        another block is refused, and nothing is bound."""
        bound = self._blocks
        for block in blocks:
            proto, lo, hi, _ = block
            for p, port in self._sockets:
                if p == proto and lo <= port < hi:
                    raise ValueError(
                        f"port {(proto, port)} already bound on {self.name}")
            for p, b_lo, b_hi, _ in bound:
                if p == proto and lo < b_hi and b_lo < hi:
                    raise ValueError(f"port {(proto, max(lo, b_lo))} "
                                     f"already bound on {self.name}")
            bound += (block,)
        self._blocks = bound if self._blocks else blocks

    def _block_at(self, proto: int, port: int) -> Optional[SocketHandler]:
        """The handler of the block serving (proto, port), if any."""
        for p, lo, hi, handler in self._blocks:
            if p == proto and lo <= port < hi:
                return handler
        return None

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
        flow = pkt.flow
        handler = self._sockets.get((flow.proto, flow.dport))
        if handler is None:
            handler = self._block_at(flow.proto, flow.dport)
            if handler is None:
                self.undeliverable += 1
                return
        handler(pkt, now)

    def __repr__(self) -> str:
        return f"Host({self.name})"
