"""Output-port queueing disciplines.

The paper's §2 phenomena are created by exactly two disciplines:

* :class:`DropTailFIFO` — the microburst scenario (Fig 2b): all packets
  treated equally, loss when the buffer overflows.
* :class:`StrictPriorityQueue` — the priority-contention scenarios
  (Figs 1, 2a, 3, 4): a higher-priority packet is always served before
  any lower-priority packet; low-priority traffic can be starved for as
  long as high-priority traffic keeps arriving (the Pica8 behaviour the
  paper exploits).

Both share the :class:`PacketQueue` interface consumed by
:class:`repro.simnet.link.Link` transmitters, and both keep drop/enqueue
statistics that the experiment harnesses read.  A port no packet has
reached holds neither: it holds :data:`IDLE_QUEUE`, one shared queue
that reads zero counters and refuses every write, until its first
packet builds the link's discipline.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterator, NoReturn, Optional

from .packet import Packet

#: Default buffer: ~170 full-size frames, in the range of shallow
#: datacenter ToR per-port buffers (256 KB).
DEFAULT_CAPACITY_BYTES = 256 * 1024


class PacketQueue:
    """Interface: bounded packet queue with byte accounting.

    The queue carries its own counters; ``queue.stats`` is the queue
    itself, read as its counter block.  The buffer ``_q`` holds waiting
    packets only, and is ``None`` until the first packet has to wait: a
    packet the transmitter sends at once passes through ``_admit`` and
    ``_release`` without touching it, so a port that never queued holds
    no ``deque``.
    """

    COUNTERS = ("enqueued", "dequeued", "dropped", "bytes_enqueued",
                "bytes_dropped", "max_depth_bytes")

    __slots__ = ("capacity_bytes", "depth_bytes", "_q", *COUNTERS)

    def __init__(self, capacity_bytes: int = DEFAULT_CAPACITY_BYTES):
        # chained so that NaN fails too
        if not 0 < capacity_bytes < math.inf:
            raise ValueError(f"capacity_bytes must be positive and finite, "
                             f"got {capacity_bytes!r}")
        self.capacity_bytes = capacity_bytes
        self._q = None
        self.depth_bytes = 0
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.bytes_enqueued = 0
        self.bytes_dropped = 0
        self.max_depth_bytes = 0

    @property
    def stats(self) -> "PacketQueue":
        return self

    def __len__(self) -> int:
        raise NotImplementedError

    def __bool__(self) -> bool:
        return len(self) > 0

    # -- shared bookkeeping (the transmitter's free-port path too) ---------

    def _admit(self, pkt: Packet) -> bool:
        if self.depth_bytes + pkt.size > self.capacity_bytes:
            self.dropped += 1
            self.bytes_dropped += pkt.size
            return False
        self.depth_bytes += pkt.size
        self.enqueued += 1
        self.bytes_enqueued += pkt.size
        if self.depth_bytes > self.max_depth_bytes:
            self.max_depth_bytes = self.depth_bytes
        return True

    def _release(self, pkt: Packet) -> Packet:
        self.depth_bytes -= pkt.size
        self.dequeued += 1
        return pkt


class DropTailFIFO(PacketQueue):
    """Single FIFO with tail drop — the microburst substrate (Fig 2b)."""

    __slots__ = ()

    def enqueue(self, pkt: Packet) -> bool:
        if not self._admit(pkt):
            return False
        if self._q is None:
            self._q = deque()
        self._q.append(pkt)
        return True

    def dequeue(self) -> Optional[Packet]:
        if not self._q:
            return None
        return self._release(self._q.popleft())

    def __len__(self) -> int:
        return len(self._q or ())

    def __iter__(self) -> Iterator[Packet]:
        return iter(self._q or ())


class StrictPriorityQueue(PacketQueue):
    """Strict-priority scheduler over per-class FIFOs.

    Higher :attr:`Packet.priority` values are always served first; within
    a class, FIFO order.  The shared byte budget means a burst of
    high-priority arrivals can also crowd out buffer space — matching the
    "too much traffic" starvation behaviour in Fig 2(a).
    """

    __slots__ = ("levels",)

    def __init__(self, levels: int = 3,
                 capacity_bytes: int = DEFAULT_CAPACITY_BYTES):
        super().__init__(capacity_bytes)
        if levels < 1:
            raise ValueError("need at least one priority level")
        self.levels = levels

    def enqueue(self, pkt: Packet) -> bool:
        prio = min(max(pkt.priority, 0), self.levels - 1)
        if not self._admit(pkt):
            return False
        if self._q is None:
            self._q = [deque() for _ in range(self.levels)]
        self._q[prio].append(pkt)
        return True

    def dequeue(self) -> Optional[Packet]:
        for q in reversed(self._q or ()):
            if q:
                return self._release(q.popleft())
        return None

    def __len__(self) -> int:
        return sum(len(q) for q in self._q or ())


class _IdleQueue(PacketQueue):
    """The queue of every port no packet has reached (:data:`IDLE_QUEUE`).

    Empty with zero counters for any reader; a packet or a counter
    written to it raises, because the transmitter swaps in the port's
    own queue before the first packet touches it.
    """

    __slots__ = ()

    def __init__(self):
        for name in PacketQueue.__slots__:
            object.__setattr__(self, name, None if name == "_q" else 0)

    def _refuse(self, *_args) -> NoReturn:
        raise TypeError("an idle port's shared queue holds nothing: "
                        "the port builds its own at its first packet")

    _admit = _release = enqueue = __setattr__ = _refuse

    def __len__(self) -> int:
        return 0


#: shared by every port until its first packet (``Interface.send``)
IDLE_QUEUE = _IdleQueue()
