"""Packet and flow-identity model.

A :class:`Packet` is the unit moved by the simulator.  It carries:

* a :class:`FlowKey` (the classic 5-tuple),
* a size in bytes (headers included — serialization delay uses this),
* a DSCP priority class (the paper's experiments use strict priorities),
* protocol payload metadata (TCP sequence/ack numbers and flags),
* a telemetry header area that SwitchPointer switches write into
  (:mod:`repro.core.headers`), and
* its flow's ECMP hash (``ecmp``, :func:`_flow_hash` of the key): whoever
  owns a flow — a traffic source, a TCP endpoint, the background
  emitter — hashes its key once and hands the value to every packet, so
  switches pick among equal-cost paths without hashing, and no table of
  per-flow hashes outlives the flow.

Packets are intentionally plain mutable objects: a single Python object
travels end to end, the way a real packet's header region is edited in
place by switches on its path.  A packet carries only what a real one
does — no record of the switches it crossed and no identity beyond its
header fields: a test that needs the trajectory taps ``Switch.pipeline``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

# Protocol numbers (IANA).
PROTO_TCP = 6
PROTO_UDP = 17

# DSCP-style priority classes used throughout the paper's scenarios.
# Larger value = higher priority (served first by strict-priority queues).
PRIO_LOW = 0
PRIO_MEDIUM = 1
PRIO_HIGH = 2

#: Conventional full-size Ethernet frame used by the bulk-transfer apps.
DEFAULT_MTU = 1500
#: TCP/IP+Ethernet header bytes modelled on every segment.
HEADER_BYTES = 66
#: Maximum TCP payload per segment under :data:`DEFAULT_MTU`.
DEFAULT_MSS = DEFAULT_MTU - HEADER_BYTES


class FlowKey(NamedTuple):
    """The 5-tuple identifying a flow."""

    src: str
    dst: str
    sport: int
    dport: int
    proto: int

    def reversed(self) -> "FlowKey":
        """Key of the reverse direction (used by ACK streams)."""
        return FlowKey(self.dst, self.src, self.dport, self.sport, self.proto)

    def pretty(self) -> str:
        proto = {PROTO_TCP: "tcp", PROTO_UDP: "udp"}.get(self.proto,
                                                         str(self.proto))
        return f"{proto}:{self.src}:{self.sport}->{self.dst}:{self.dport}"


def _flow_hash(key: FlowKey) -> int:
    """Deterministic per-flow hash for ECMP (stable across runs).

    FNV-1a with a murmur-style finalizer: plain FNV's low bit is linear
    in the input's parity, which makes ``hash % 2`` blind to symmetric
    field changes (e.g. sport and dport varied together) — a real ECMP
    hash must not have that artifact.

    Pure function of the key; a flow's owner computes it once and every
    packet of the flow carries it (:attr:`Packet.ecmp`), so the loop
    runs once per flow, not per packet per hop.
    """
    h = 2166136261
    for part in key:
        for ch in str(part):
            h = ((h ^ ord(ch)) * 16777619) & 0xFFFFFFFF
    h ^= h >> 16
    h = (h * 0x45D9F3B) & 0xFFFFFFFF
    h ^= h >> 16
    return h


@dataclass(slots=True)
class TcpMeta:
    """TCP metadata carried by a segment.

    ``seq`` is the byte offset of the first payload byte; ``ack`` is the
    cumulative acknowledgement (next expected byte).  Only the fields the
    simplified Reno model needs are present.
    """

    seq: int = 0
    ack: int = 0
    is_ack: bool = False
    syn: bool = False
    fin: bool = False


@dataclass(slots=True)
class Packet:
    """A simulated packet.

    Attributes
    ----------
    flow:
        The 5-tuple flow identity.
    size:
        Total on-wire size in bytes (headers included).
    priority:
        DSCP class; strict-priority queues serve higher values first.
    created_at:
        Simulated time the packet entered the network at its source NIC.
    tcp:
        TCP metadata, or ``None`` for UDP packets.
    telemetry:
        Header area written by SwitchPointer switches.  ``None`` until the
        first switch on the path embeds something.  The concrete object is
        a codec class from :mod:`repro.core.headers`; the simulator treats
        it opaquely.
    ecmp:
        ``_flow_hash(flow)``: a flow's owner passes the value it computed
        once for the flow; a packet built without one (the default -1,
        never a hash value) hashes its key.
    """

    flow: FlowKey
    size: int
    priority: int = PRIO_LOW
    created_at: float = 0.0
    payload_bytes: int = 0
    tcp: Optional[TcpMeta] = None
    telemetry: Any = None
    ecmp: int = -1

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"packet size must be positive, got {self.size}")
        if self.ecmp < 0:
            self.ecmp = _flow_hash(self.flow)


def make_udp(src: str, dst: str, sport: int, dport: int, size: int,
             priority: int = PRIO_LOW, created_at: float = 0.0) -> Packet:
    """Convenience constructor for a UDP datagram."""
    key = FlowKey(src, dst, sport, dport, PROTO_UDP)
    return Packet(flow=key, size=size, priority=priority,
                  created_at=created_at,
                  payload_bytes=max(0, size - HEADER_BYTES))


def make_tcp(flow: FlowKey, *, payload: int, seq: int = 0, ack: int = 0,
             is_ack: bool = False, syn: bool = False, fin: bool = False,
             priority: int = PRIO_LOW, created_at: float = 0.0,
             ecmp: int = -1) -> Packet:
    """A TCP segment of ``flow`` — the TCP stack passes each flow's one
    key, which the host's record probe then hits by identity, and the
    flow's ECMP hash (``ecmp``), computed once per flow."""
    meta = TcpMeta(seq=seq, ack=ack, is_ack=is_ack, syn=syn, fin=fin)
    return Packet(flow=flow, size=payload + HEADER_BYTES, priority=priority,
                  created_at=created_at, payload_bytes=payload, tcp=meta,
                  ecmp=ecmp)
