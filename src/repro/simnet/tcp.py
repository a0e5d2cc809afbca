"""Simplified TCP Reno.

The paper's victim flows are TCP; their observable symptoms — throughput
collapse, inflated inter-packet gaps, retransmission timeouts — come from
the congestion-control reaction to queueing and loss, so that is what this
model keeps:

* slow start / congestion avoidance (AIMD),
* triple-duplicate-ACK fast retransmit,
* retransmission timeout with exponential backoff and cwnd reset,
* SRTT/RTTVAR-based RTO (RFC 6298 shape) with a configurable floor.

Omitted on purpose: SACK, window scaling negotiation, Nagle, delayed
ACKs.  None of them change who wins under strict-priority starvation.
"""

from __future__ import annotations

from typing import Callable, Optional

from .engine import Simulator
from .host import Host
from .packet import (DEFAULT_MSS, PRIO_LOW, PROTO_TCP, FlowKey, Packet,
                     _flow_hash, make_tcp)

#: Datacenter-tuned minimum RTO, as in the DCTCP line of work.  The
#: default Linux 200 ms floor would hide every sub-100 ms dynamic the
#: paper plots.
DEFAULT_MIN_RTO = 0.010
DEFAULT_MAX_RTO = 1.0
DEFAULT_INIT_RTO = 0.020


class TcpReceiver:
    """Receive side: cumulative ACKs with out-of-order buffering."""

    def __init__(self, host: Host, port: int, *,
                 on_payload: Optional[Callable[[Packet, float], None]] = None):
        self.host = host
        self.port = port
        self.rcv_next = 0
        self.bytes_received = 0
        self.acks_sent = 0
        self._ooo: dict[int, int] = {}  # seq -> payload length
        self._on_payload = on_payload
        #: the data flow last acknowledged, and its ACK key and that
        #: key's ECMP hash (one per flow)
        self._acked: Optional[FlowKey] = None
        self._ack_flow: Optional[FlowKey] = None
        self._ack_ecmp = -1
        host.bind(PROTO_TCP, port, self._on_segment)

    def _on_segment(self, pkt: Packet, now: float) -> None:
        assert pkt.tcp is not None
        if pkt.tcp.is_ack:
            return  # receivers of data ignore bare ACKs
        seq, length = pkt.tcp.seq, pkt.payload_bytes
        self.bytes_received += length
        if self._on_payload is not None:
            self._on_payload(pkt, now)
        if seq == self.rcv_next:
            self.rcv_next += length
            # absorb any contiguous out-of-order data
            while self.rcv_next in self._ooo:
                self.rcv_next += self._ooo.pop(self.rcv_next)
        elif seq > self.rcv_next:
            self._ooo.setdefault(seq, length)
        self._send_ack(pkt)

    def _send_ack(self, data_pkt: Packet) -> None:
        key = data_pkt.flow
        if key is not self._acked:
            self._acked, self._ack_flow = key, key.reversed()
            self._ack_ecmp = _flow_hash(self._ack_flow)
        ack = make_tcp(self._ack_flow, payload=0, ack=self.rcv_next,
                       is_ack=True, priority=data_pkt.priority,
                       ecmp=self._ack_ecmp)
        self.acks_sent += 1
        self.host.send(ack)


class TcpSender:
    """Send side: Reno congestion control over the simulated network.

    Parameters
    ----------
    total_bytes:
        Bytes to transfer; ``None`` means run until ``stop()`` (used by
        the fixed-duration flows in Fig 2).
    priority:
        DSCP class for every segment of the flow (and its ACKs).
    """

    def __init__(self, sim: Simulator, host: Host, dst: str, *,
                 sport: int, dport: int, total_bytes: Optional[int] = None,
                 priority: int = PRIO_LOW, mss: int = DEFAULT_MSS,
                 init_cwnd_segments: int = 10,
                 min_rto: float = DEFAULT_MIN_RTO,
                 max_rto: float = DEFAULT_MAX_RTO,
                 on_complete: Optional[Callable[[float], None]] = None):
        self.sim = sim
        self.host = host
        self.flow = FlowKey(host.name, dst, sport, dport, PROTO_TCP)
        self._ecmp = _flow_hash(self.flow)
        self.total_bytes = total_bytes
        self.priority = priority
        self.mss = mss
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.on_complete = on_complete

        self.snd_una = 0          # oldest unacked byte
        self.snd_next = 0         # next new byte to send
        self.cwnd = float(init_cwnd_segments * mss)
        self.ssthresh = float(64 * 1024)
        self.dupacks = 0
        self.in_recovery = False
        self.recover_point = 0
        self._recovery_kind = ""  # "fast" | "timeout"

        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = DEFAULT_INIT_RTO
        self._send_times: dict[int, float] = {}   # seq -> first-send time

        self.retransmits = 0
        self.timeouts = 0
        self.timeout_times: list[float] = []
        self.segments_sent = 0
        self.completed_at: Optional[float] = None
        self._stopped = False
        self._rto_event: Optional[int] = None

        host.bind(PROTO_TCP, sport, self._on_ack)

    # -- public ------------------------------------------------------------

    def start(self, delay: float = 0.0) -> None:
        self.sim.schedule(delay, self._pump)

    def stop(self) -> None:
        """Stop sending new data (fixed-duration flows)."""
        self._stopped = True
        self._cancel_rto()

    @property
    def done(self) -> bool:
        return (self.total_bytes is not None
                and self.snd_una >= self.total_bytes)

    # -- send path -----------------------------------------------------------

    def _window(self) -> int:
        return int(self.cwnd)

    def _pump(self) -> None:
        """Send as many new segments as the window allows."""
        if self._stopped or self.done:
            return
        while True:
            if self.total_bytes is not None:
                remaining = self.total_bytes - self.snd_next
                if remaining <= 0:
                    break
            else:
                remaining = self.mss
            if self.snd_next - self.snd_una >= self._window():
                break
            payload = min(self.mss, remaining)
            self._transmit(self.snd_next, payload, first_time=True)
            self.snd_next += payload
        if self.snd_next > self.snd_una:
            self._arm_rto()

    def _transmit(self, seq: int, payload: int, *, first_time: bool) -> None:
        # every segment carries the flow's one key and hash (see make_tcp)
        pkt = make_tcp(self.flow, payload=payload, seq=seq,
                       priority=self.priority, ecmp=self._ecmp)
        self.segments_sent += 1
        if first_time:
            self._send_times[seq] = self.sim.now
        else:
            self._send_times.pop(seq, None)  # Karn: no RTT sample on rexmit
            self.retransmits += 1
        self.host.send(pkt)

    # -- receive path (ACKs) ------------------------------------------------

    def _on_ack(self, pkt: Packet, now: float) -> None:
        assert pkt.tcp is not None
        if not pkt.tcp.is_ack:
            return
        ack = pkt.tcp.ack
        if ack > self.snd_una:
            self._rtt_sample(ack, now)
            newly = ack - self.snd_una
            self.snd_una = ack
            self.dupacks = 0
            if self.in_recovery:
                if ack >= self.recover_point:
                    # full recovery: deflate (fast) or keep slow-starting
                    self.in_recovery = False
                    if self._recovery_kind == "fast":
                        self.cwnd = self.ssthresh
                else:
                    # NewReno partial ACK: the next hole is lost too —
                    # retransmit it now instead of waiting for an RTO.
                    if self._recovery_kind == "timeout":
                        if self.cwnd < self.ssthresh:
                            self.cwnd += min(newly, self.mss)
                    self._transmit(self.snd_una,
                                   self._segment_len_at(self.snd_una),
                                   first_time=False)
            else:
                if self.cwnd < self.ssthresh:
                    self.cwnd += min(newly, self.mss)  # slow start
                else:
                    self.cwnd += self.mss * self.mss / self.cwnd  # AIMD
            if self.done:
                self._finish(now)
                return
            self._cancel_rto()
            self._pump()
        elif ack == self.snd_una and self.snd_next > self.snd_una:
            self.dupacks += 1
            if self.dupacks == 3 and not self.in_recovery:
                self._fast_retransmit()

    def _rtt_sample(self, ack: int, now: float) -> None:
        # Fold in every untainted segment this ACK covers, oldest first
        # (a retransmitted one left ``_send_times``: Karn).
        for seq in sorted(self._send_times):
            if seq >= ack:
                break
            sent = self._send_times.pop(seq)
            if self.srtt is None:
                self.srtt = now - sent
                self.rttvar = self.srtt / 2
            else:
                sample = now - sent
                self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt
                                                              - sample)
                self.srtt = 0.875 * self.srtt + 0.125 * sample
        if self.srtt is not None:
            self.rto = min(self.max_rto,
                           max(self.min_rto, self.srtt + 4 * self.rttvar))

    # -- loss recovery -----------------------------------------------------

    def _fast_retransmit(self) -> None:
        self.ssthresh = max(self.cwnd / 2, 2 * self.mss)
        self.cwnd = self.ssthresh + 3 * self.mss
        self.in_recovery = True
        self._recovery_kind = "fast"
        self.recover_point = self.snd_next
        payload = self._segment_len_at(self.snd_una)
        self._transmit(self.snd_una, payload, first_time=False)

    def _segment_len_at(self, seq: int) -> int:
        if self.total_bytes is not None:
            return min(self.mss, max(1, self.total_bytes - seq))
        return self.mss

    def _arm_rto(self) -> None:
        if self._rto_event is None:
            self._rto_event = self.sim.schedule(self.rto, self._on_rto)

    def _cancel_rto(self) -> None:
        if self._rto_event is not None:
            self.sim.cancel(self._rto_event)
            self._rto_event = None

    def _on_rto(self) -> None:
        self._rto_event = None
        if self._stopped or self.done or self.snd_next <= self.snd_una:
            return
        self.timeouts += 1
        self.timeout_times.append(self.sim.now)
        self.ssthresh = max(self.cwnd / 2, 2 * self.mss)
        self.cwnd = float(self.mss)
        self.dupacks = 0
        # after a timeout, holes before snd_next are resent on partial
        # ACKs (go-back-recovery), not by one RTO each
        self.in_recovery = self.snd_next > self.snd_una
        self._recovery_kind = "timeout"
        self.recover_point = self.snd_next
        self.rto = min(self.max_rto, self.rto * 2)  # exponential backoff
        payload = self._segment_len_at(self.snd_una)
        self._transmit(self.snd_una, payload, first_time=False)
        self._arm_rto()

    def _finish(self, now: float) -> None:
        if self.completed_at is None:
            self.completed_at = now
            self._cancel_rto()
            if self.on_complete is not None:
                self.on_complete(now)


def open_tcp_flow(sim: Simulator, src: Host, dst: Host, *, sport: int,
                  dport: int, total_bytes: Optional[int] = None,
                  priority: int = PRIO_LOW,
                  mss: int = DEFAULT_MSS,
                  min_rto: float = DEFAULT_MIN_RTO,
                  on_payload: Optional[Callable[[Packet, float],
                                                None]] = None,
                  on_complete: Optional[Callable[[float], None]] = None,
                  ) -> tuple[TcpSender, TcpReceiver]:
    """Wire a sender at ``src`` to a receiver at ``dst`` and return both."""
    receiver = TcpReceiver(dst, dport, on_payload=on_payload)
    sender = TcpSender(sim, src, dst.name, sport=sport, dport=dport,
                       total_bytes=total_bytes, priority=priority, mss=mss,
                       min_rto=min_rto, on_complete=on_complete)
    return sender, receiver
