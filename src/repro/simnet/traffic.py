"""Traffic generators for the paper's workloads.

* :class:`UdpCbrSource` — constant-bit-rate UDP, the building block of
  every "burst" in §2 (each burst flow sends at line rate for ~1 ms).
* :func:`schedule_burst_batches` — the Fig 2 pattern: five batches of
  high-priority UDP bursts, 15 ms apart, with 1/2/4/8/16 flows.
* :class:`TcpBulkTransfer` — a sized TCP transfer (the 2 MB C-E flow of
  the cascades scenario).
* :class:`TcpTimedFlow` — a TCP flow that runs for a fixed duration
  (the 100 ms victim flow of Fig 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .engine import Simulator
from .host import Host
from .packet import (DEFAULT_MTU, HEADER_BYTES, PRIO_HIGH, PRIO_LOW,
                     PROTO_UDP, FlowKey, Packet, _flow_hash)
from .tcp import TcpReceiver, TcpSender, open_tcp_flow


class UdpSink:
    """Bind a UDP port and count arrivals (optionally forwarding them)."""

    def __init__(self, host: Host, port: int,
                 on_packet: Optional[Callable[[Packet, float],
                                              None]] = None):
        self.host = host
        self.port = port
        self.packets = 0
        self.bytes = 0
        self._on_packet = on_packet
        host.bind(PROTO_UDP, port, self._handle)

    def _handle(self, pkt: Packet, now: float) -> None:
        self.packets += 1
        self.bytes += pkt.size
        if self._on_packet is not None:
            self._on_packet(pkt, now)


class UdpCbrSource:
    """Constant-bit-rate UDP source.

    Emits ``packet_size``-byte datagrams at ``rate_bps`` from ``start``
    for ``duration`` seconds.  Rate is enforced by inter-packet spacing
    (``packet_size*8/rate_bps``), so a source at link rate saturates the
    path exactly.
    """

    def __init__(self, sim: Simulator, host: Host, dst: str, *,
                 sport: int, dport: int, rate_bps: float,
                 packet_size: int = DEFAULT_MTU,
                 priority: int = PRIO_HIGH,
                 start: float = 0.0, duration: float = 0.001):
        if rate_bps <= 0 or duration <= 0:
            raise ValueError("rate and duration must be positive")
        self.sim = sim
        self.host = host
        self.flow = FlowKey(host.name, dst, sport, dport, PROTO_UDP)
        self._ecmp = _flow_hash(self.flow)
        self.rate_bps = rate_bps
        self.packet_size = packet_size
        self.priority = priority
        self.start_time = start
        self.end_time = start + duration
        self.packets_sent = 0
        self.bytes_sent = 0
        self._payload = max(0, packet_size - HEADER_BYTES)
        sim.call_at(max(start, sim.now), self._emit)

    @property
    def interval(self) -> float:
        return self.packet_size * 8 / self.rate_bps

    def _emit(self, _arg: object = None) -> None:
        if self.sim.now >= self.end_time:
            return
        # direct construction with the cached FlowKey/hash/payload — this
        # is make_udp minus the per-packet 5-tuple rebuild and hashing
        pkt = Packet(flow=self.flow, size=self.packet_size,
                     priority=self.priority, payload_bytes=self._payload,
                     ecmp=self._ecmp)
        self.host.send(pkt)
        self.packets_sent += 1
        self.bytes_sent += self.packet_size
        self.sim.call_after(self.interval, self._emit)


@dataclass
class BurstBatchPlan:
    """One Fig 2 batch: ``n_flows`` UDP flows bursting together."""

    start: float
    n_flows: int
    duration: float = 0.001
    sources: list[UdpCbrSource] = field(default_factory=list)


def schedule_burst_batches(sim: Simulator, senders: list[Host],
                           receivers: list[str], *, flow_counts: list[int],
                           first_start: float, gap: float = 0.015,
                           burst_duration: float = 0.001,
                           rate_bps: float = 1e9,
                           packet_size: int = DEFAULT_MTU,
                           priority: int = PRIO_HIGH,
                           base_port: int = 7000) -> list[BurstBatchPlan]:
    """Create the Fig 2 burst pattern.

    Batch ``i`` starts at ``first_start + i*gap`` with ``flow_counts[i]``
    flows; flow ``j`` of every batch goes ``senders[j] -> receivers[j]``
    (distinct source-destination pairs, as in the paper).
    """
    needed = max(flow_counts)
    if len(senders) < needed or len(receivers) < needed:
        raise ValueError(
            f"need {needed} sender/receiver pairs, have "
            f"{len(senders)}/{len(receivers)}")
    plans = []
    for i, n_flows in enumerate(flow_counts):
        start = first_start + i * gap
        plan = BurstBatchPlan(start=start, n_flows=n_flows,
                              duration=burst_duration)
        for j in range(n_flows):
            src = UdpCbrSource(
                sim, senders[j], receivers[j],
                sport=base_port + i, dport=base_port + i,
                rate_bps=rate_bps, packet_size=packet_size,
                priority=priority, start=start, duration=burst_duration)
            plan.sources.append(src)
        plans.append(plan)
    return plans


class TcpBulkTransfer:
    """A sized TCP transfer between two hosts (e.g. the 2 MB C-E flow)."""

    def __init__(self, sim: Simulator, src: Host, dst: Host, *,
                 nbytes: int, sport: int, dport: int,
                 priority: int = PRIO_LOW, start: float = 0.0,
                 min_rto: float = 0.010,
                 on_payload: Optional[Callable[[Packet, float],
                                               None]] = None):
        self.sender: TcpSender
        self.receiver: TcpReceiver
        self.sender, self.receiver = open_tcp_flow(
            sim, src, dst, sport=sport, dport=dport, total_bytes=nbytes,
            priority=priority, min_rto=min_rto, on_payload=on_payload)
        self.sender.start(delay=start)

    @property
    def completed_at(self) -> Optional[float]:
        return self.sender.completed_at


class TcpTimedFlow:
    """A TCP flow that sends for a fixed wall-clock duration.

    Matches the Fig 2 victim: "a low-priority TCP flow ... that lasts for
    100 ms".
    """

    def __init__(self, sim: Simulator, src: Host, dst: Host, *,
                 duration: float, sport: int, dport: int,
                 priority: int = PRIO_LOW, start: float = 0.0,
                 min_rto: float = 0.010,
                 on_payload: Optional[Callable[[Packet, float],
                                               None]] = None):
        self.sender, self.receiver = open_tcp_flow(
            sim, src, dst, sport=sport, dport=dport, total_bytes=None,
            priority=priority, min_rto=min_rto, on_payload=on_payload)
        self.sender.start(delay=start)
        sim.schedule_at(start + duration, self.sender.stop)
