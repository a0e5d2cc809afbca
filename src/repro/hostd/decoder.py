"""Destination-side telemetry decoding (§4.2.1).

When a packet arrives, the host turns its VLAN double tag into a
flow-record update.  The two tags give (linkID, epochID mod 4096).  The
switch path and the embedder's place on it come from the CherryPick
plan of (src, dst, linkID); the epoch tag is unwrapped against the
host's own epoch estimate; and the §4.2.1 range extrapolation's
per-position offsets for the path's (length, embed index) shape say how
far every switch's epoch range reaches around the embedder's observed
epoch.  A parse hands the record store the plan's own path tuple, the
estimator's own offsets tuple and the observed epoch: no per-switch
range is built here, the record derives them.  The store folds a
packet carrying the tag object its flow's record folded last, in the
same host epoch and topology version, with one probe and no parse
(``FlowRecordStore.refold``); other packets with the same tag over the
same path in one host epoch share one parse (``_parsed``), which the
store only reads.  A packet without a tag is
counted (``undecodable``); nothing is invented.
"""

from __future__ import annotations

from typing import Optional

from ..core.epoch import EpochClock, EpochRangeEstimator, unwrap_epoch
from ..core.headers import VlanDoubleTag
from ..simnet.host import Host
from ..simnet.packet import Packet
from ..switchd.cherrypick import CherryPickPlanner
from .records import FlowRecordStore, Offsets

#: what one header parses to: (switch path, its shape's offsets,
#: observed epoch)
Parsed = tuple[tuple[str, ...], Offsets, int]


class TelemetryDecoder:
    """Per-host decoder feeding a :class:`FlowRecordStore`.

    Parameters
    ----------
    host_clock:
        The host's epoch clock — used as the unwrap reference for the
        12-bit epoch tag.  Its skew participates in the same ε bound as
        the switches'.
    planner:
        Topology knowledge for path reconstruction (PathDump hosts hold
        the network map).
    estimator:
        The §4.2.1 range estimator (α, ε, Δ).
    """

    __slots__ = ("store", "host_clock", "planner", "estimator", "_parsed",
                 "decoded", "undecodable")

    def __init__(self, store: FlowRecordStore, host_clock: EpochClock,
                 planner: CherryPickPlanner,
                 estimator: EpochRangeEstimator):
        self.store = store
        self.host_clock = host_clock
        self.planner = planner
        self.estimator = estimator
        #: (this host's epoch — the unwrap reference, {(decoded path,
        #: epoch tag): its VLAN parse}); replaced when the host's epoch
        #: moves, so it never outgrows the paths and tags one epoch
        #: delivers here, and costs an idle host nothing
        self._parsed: Optional[tuple[int, dict[tuple, Parsed]]] = None
        self.decoded = 0
        self.undecodable = 0

    # -- sniffer entry point --------------------------------------------------

    def on_packet(self, host: Host, pkt: Packet, now: float) -> None:
        """Host sniffer hook: decode ``pkt`` and update the record."""
        telemetry = pkt.telemetry
        if not isinstance(telemetry, VlanDoubleTag):
            self.undecodable += 1
            return
        store = self.store
        reference = self.host_clock.epoch_of(now)
        version = self.planner.network.topology_version
        if not store.refold(pkt, now, telemetry, reference, version):
            switches, offsets, observed = self._parse_vlan(
                pkt, telemetry, reference)
            store.ingest(pkt.flow, pkt.size, now, pkt.priority,
                         switches, offsets, observed, telemetry,
                         reference, version)
        self.decoded += 1

    # -- VLAN double tag -----------------------------------------------------

    def _parse_vlan(self, pkt: Packet, tag: VlanDoubleTag,
                    reference: int) -> Parsed:
        key = pkt.flow
        decoded = self.planner.decode_path(key.src, key.dst, tag.link_id)
        memo = self._parsed
        if memo is None or memo[0] != reference:
            memo = self._parsed = (reference, {})
        tagged = (decoded, tag.epoch_tag)
        parsed = memo[1].get(tagged)
        if parsed is None:
            switches, embed_index = decoded
            parsed = memo[1][tagged] = (
                switches,
                self.estimator.offsets(len(switches), embed_index),
                unwrap_epoch(tag.epoch_tag, reference))
        return parsed
