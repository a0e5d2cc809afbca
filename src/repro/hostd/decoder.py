"""Destination-side telemetry decoding (§4.2.1).

When a packet arrives, the host extracts the telemetry header and turns
it into a flow-record update:

* **VLAN mode** — the two tags give (linkID, epochID mod 4096).  The
  full path is reconstructed from (src, dst, linkID) via CherryPick; the
  epoch tag is unwrapped against the host's own epoch estimate; and the
  §4.2.1 range extrapolation assigns every switch on the path an epoch
  range around the embedder's observed epoch.
* **INT mode** — each hop carried its own (switchID, epochID); ranges
  collapse to the observed epoch ± the skew allowance.
* **No telemetry** — counted (``undecodable``); nothing is invented.
"""

from __future__ import annotations

from typing import Optional

from ..core.epoch import (EpochClock, EpochRange, EpochRangeEstimator,
                          unwrap_epoch)
from ..core.headers import IntStack, VlanDoubleTag
from ..simnet.host import Host
from ..simnet.packet import Packet
from ..switchd.cherrypick import CherryPickPlanner
from .records import FlowRecordStore


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

    def __init__(self, store: FlowRecordStore, host_clock: EpochClock,
                 planner: CherryPickPlanner,
                 estimator: EpochRangeEstimator):
        self.store = store
        self.host_clock = host_clock
        self.planner = planner
        self.estimator = estimator
        self.decoded = 0
        self.undecodable = 0

    # -- sniffer entry point --------------------------------------------------

    def on_packet(self, host: Host, pkt: Packet, now: float) -> None:
        """Host sniffer hook: decode ``pkt`` and update the record."""
        telemetry = pkt.telemetry
        if isinstance(telemetry, VlanDoubleTag):
            switches, ranges, observed = self._parse_vlan(pkt, telemetry,
                                                          now)
        elif isinstance(telemetry, IntStack):
            switches, ranges, observed = self._parse_int(telemetry)
        else:
            self.undecodable += 1
            return
        self._update(pkt, now, switches, ranges, observed)

    # -- VLAN double tag -----------------------------------------------------

    def _parse_vlan(self, pkt: Packet, tag: VlanDoubleTag, now: float
                    ) -> tuple[list[str], dict[str, EpochRange],
                               Optional[int]]:
        key = pkt.flow
        path_nodes = self.planner.reconstruct_path(key.src, key.dst,
                                                   tag.link_id)
        switches = [n for n in path_nodes
                    if n in self.planner.network.switches]
        embedder = self._embedding_switch(path_nodes, tag.link_id)
        embed_index = switches.index(embedder)
        reference = self.host_clock.epoch_of(now)
        observed = unwrap_epoch(tag.epoch_tag, reference)
        ranges = self.estimator.ranges_for_path(switches, embed_index,
                                                observed)
        return switches, ranges, observed

    def _embedding_switch(self, path_nodes: list[str],
                          link_id: int) -> str:
        """The upstream endpoint of the picked link along the path."""
        link = self.planner.network.link_by_vlan(link_id)
        a, b = link.a.name, link.b.name
        for here, nxt in zip(path_nodes, path_nodes[1:]):
            if {here, nxt} == {a, b}:
                return here
        raise ValueError(
            f"link {link.endpoints} not on reconstructed path {path_nodes}")

    # -- INT stack -----------------------------------------------------------

    def _parse_int(self, stack: IntStack
                   ) -> tuple[list[str], dict[str, EpochRange],
                              Optional[int]]:
        switches = stack.switch_path()
        eps = self.estimator.range_for(0, 0)  # ± skew allowance around 0
        ranges = {}
        observed = None
        for hop in stack.hops:
            ranges[hop.switch_id] = EpochRange(hop.epoch + eps.lo,
                                               hop.epoch + eps.hi)
            observed = hop.epoch  # last hop's epoch keys byte counts
        return switches, ranges, observed

    # -- shared --------------------------------------------------------------

    def _update(self, pkt: Packet, now: float, switches: list[str],
                ranges: dict[str, EpochRange],
                observed: Optional[int]) -> None:
        self.store.ingest(pkt.flow, nbytes=pkt.size, t=now,
                          priority=pkt.priority, switch_path=switches,
                          ranges=ranges, observed_epoch=observed)
        self.decoded += 1
