"""Links, interfaces, and the transmission model.

A :class:`Link` joins two nodes with a full-duplex channel: each direction
has its own :class:`Interface` (output queue + serializer).  The
transmission model is store-and-forward:

* a packet occupies the transmitter for ``size * 8 / rate`` seconds
  (serialization delay), then
* arrives at the peer after ``propagation_delay`` more seconds.

Only one packet serializes at a time per direction; everything else waits
in the interface's output queue.  That queue is where all of the paper's
§2 contention effects materialize.

Event budget: the transmitter is a ``busy_until`` timestamp.  A packet
offered to a free port with nothing waiting is admitted and released
by the queue without entering its buffer, and only its delivery is
scheduled, at ``(now + size * 8 / rate) + propagation_delay``; a packet
that has to wait is buffered and arms the port's one ``_depart`` timer
at ``busy_until``, re-armed only while the queue is non-empty.  An idle
hop is one event, and a port that never carried a packet scheduled
nothing.

Ordering (contract in :mod:`.engine`; ``now >= busy_until`` needs its
monotone clock): one same-instant tie is a rule, not an accident of
scheduling order — *a departure due at time t is served before an arrival
at t is judged for admission*.  ``send`` serves it; the ``_depart`` event
then firing at t finds the port busy and only re-arms.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Protocol, runtime_checkable

from .engine import Simulator
from .packet import Packet
from .queues import DropTailFIFO, PacketQueue

_NEVER = float("-inf")  # ``busy_until`` before the first packet, shared


@runtime_checkable
class Node(Protocol):
    """Anything that can terminate a link."""

    name: str

    def receive(self, pkt: Packet, iface: "Interface") -> None:
        """Handle a packet arriving on ``iface``."""


class Interface:
    """One direction of a link: output queue + transmitter at a node.

    Event budget: one event (the delivery) per packet that finds the
    port free (``now >= busy_until``), plus at most **one** pending
    ``_depart`` timer per port, armed only while a packet waits.

    Attributes
    ----------
    owner:
        The node this interface belongs to (packets leave ``owner``).
    peer_node:
        The node at the far end (packets arrive there).
    link:
        The parent :class:`Link`.
    queue:
        The output queue; replaceable before traffic starts to select a
        discipline (FIFO vs strict priority).
    """

    __slots__ = ("sim", "owner", "link", "peer_node", "peer_iface", "queue",
                 "busy_until", "_armed", "tx_packets", "tx_bytes",
                 "dropped_link_down", "tx_taps")

    def __init__(self, sim: Simulator, owner: Node, link: "Link",
                 queue: Optional[PacketQueue] = None):
        self.sim = sim
        self.owner = owner
        self.link = link
        self.peer_node: Optional[Node] = None  # set by Link
        self.peer_iface: Optional["Interface"] = None  # set by Link
        self.queue: PacketQueue = queue if queue is not None else DropTailFIFO()
        self.busy_until = _NEVER
        self._armed = False  # a ``_depart`` event is pending
        self.tx_packets = 0
        self.tx_bytes = 0
        #: Packets dropped because the parent link was administratively or
        #: physically down at enqueue time (the link-flap blackhole window).
        self.dropped_link_down = 0
        #: Optional taps called with each packet as it begins serialization;
        #: used by per-switch throughput probes (Fig 3 measures the same
        #: flow's throughput *at S1* and *at S2*).  An immutable tuple —
        #: attaching a tap rebinds it — so an untapped port allocates none.
        self.tx_taps: tuple[Callable[[Packet, float], None], ...] = ()

    def send(self, pkt: Packet) -> bool:
        """Queue ``pkt`` for transmission; returns False if tail-dropped
        or if the link is down (the packet vanishes, as on a dead wire)."""
        if not self.link.up:
            self.dropped_link_down += 1
            return False
        queue = self.queue
        # sizes are positive: depth_bytes is non-zero exactly while a packet
        # waits.  The same-instant rule: a departure due now goes first.
        if self.sim.now >= self.busy_until:
            if not queue.depth_bytes:  # nothing waits: no buffer
                admitted = queue._admit(pkt)
                if admitted:
                    self._transmit(queue._release(pkt))
                return admitted
            self._serve()
        if not queue.enqueue(pkt):
            return False
        self._serve()
        return True

    def _serve(self) -> None:
        """Start the next packet if the port is free, and keep the port's
        one timer armed exactly while a packet waits."""
        queue = self.queue
        if queue.depth_bytes and self.sim.now >= self.busy_until:
            self._transmit(queue.dequeue())
        if queue.depth_bytes and not self._armed:
            self._armed = True
            self.sim.call_at(self.busy_until, self._depart)

    def _transmit(self, pkt: Packet) -> None:
        """Start serializing ``pkt`` now and schedule its delivery."""
        now = self.sim.now
        for tap in self.tx_taps:
            tap(pkt, now)
        self.tx_packets += 1
        self.tx_bytes += pkt.size
        link = self.link
        self.busy_until = done = now + pkt.size * 8 / link.rate_bps
        # never cancelled → fire-and-forget fast-path events
        self.sim.call_at(done + link.propagation_delay, self._deliver, pkt)

    def _depart(self, _arg: None = None) -> None:
        self._armed = False
        self._serve()

    def _deliver(self, pkt: Packet) -> None:
        assert self.peer_node is not None and self.peer_iface is not None
        self.peer_node.receive(pkt, self.peer_iface)


class Link:
    """Full-duplex point-to-point link between two nodes.

    Parameters
    ----------
    rate_bps:
        Line rate in bits per second (paper testbeds: 1 and 10 Gbps).
    propagation_delay:
        One-way propagation in seconds (datacenter scale: a few µs).
    queue_factory:
        Zero-argument callable producing the output queue for each
        direction; defaults to :class:`DropTailFIFO`.
    """

    __slots__ = ("sim", "rate_bps", "propagation_delay", "vlan_id", "up",
                 "iface_a", "iface_b", "a", "b")

    def __init__(self, sim: Simulator, a: Node, b: Node, *,
                 rate_bps: float = 1e9, propagation_delay: float = 2e-6,
                 queue_factory: Optional[Callable[[], PacketQueue]] = None):
        # chained so that NaN fails too
        if not 0 < rate_bps < math.inf:
            raise ValueError(
                f"rate_bps must be positive and finite, got {rate_bps!r}")
        if not 0 <= propagation_delay < math.inf:
            raise ValueError(f"propagation_delay must be non-negative and "
                             f"finite, got {propagation_delay!r}")
        self.sim = sim
        self.rate_bps = rate_bps
        self.propagation_delay = propagation_delay
        #: Per-network wire identifier assigned by Network.connect —
        #: what the 12-bit VLAN tag carries.
        self.vlan_id: Optional[int] = None
        #: Liveness: a down link silently drops every packet offered to
        #: either direction.  Packets already serializing or propagating
        #: still arrive — a flap loses what is sent *during* the outage.
        self.up = True
        qf = queue_factory if queue_factory is not None else DropTailFIFO
        self.iface_a = Interface(sim, a, self, qf())
        self.iface_b = Interface(sim, b, self, qf())
        self.iface_a.peer_node = b
        self.iface_a.peer_iface = self.iface_b
        self.iface_b.peer_node = a
        self.iface_b.peer_iface = self.iface_a
        self.a = a
        self.b = b

    def set_down(self) -> None:
        """Take the link down.  Idempotent."""
        self.up = False

    def set_up(self) -> None:
        """Bring the link back up.  Idempotent."""
        self.up = True

    @property
    def down_drops(self) -> int:
        """Packets lost to outages, both directions combined."""
        return self.iface_a.dropped_link_down + self.iface_b.dropped_link_down

    def iface_of(self, node: Node) -> Interface:
        """The outgoing interface at ``node``."""
        if node is self.a:
            return self.iface_a
        if node is self.b:
            return self.iface_b
        raise ValueError(f"{node.name} is not an endpoint of this link")

    def peer_of(self, node: Node) -> Node:
        if node is self.a:
            return self.b
        if node is self.b:
            return self.a
        raise ValueError(f"{node.name} is not an endpoint of this link")

    @property
    def endpoints(self) -> tuple[str, str]:
        return (self.a.name, self.b.name)

    def __repr__(self) -> str:
        gbps = self.rate_bps / 1e9
        return f"Link({self.a.name}<->{self.b.name}, {gbps:g}Gbps)"
