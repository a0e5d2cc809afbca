"""Brute-force oracles for the topology's derived answers, and the
eager transmitter the lazy one in ``repro.simnet.link`` is checked
against (:class:`EagerInterface`).

The runtime keeps the fabric as a plain adjacency map and derives
routes, path plans and pruning paths from one BFS helper; networkx is a
*test* dependency.  The oracle graph is built the way ``Network.graph``
used to build it — hosts, then switches, then one edge per link in
creation order — so networkx's adjacency (and with it the
first-discovered tree of ``single_source_shortest_path``) follows the
same link order the runtime promises.
"""
from __future__ import annotations

import networkx as nx

from repro.simnet.device import Switch
from repro.simnet.link import Interface
from repro.simnet.packet import Packet
from repro.simnet.queues import IDLE_QUEUE
from repro.simnet.topology import Network


class EagerInterface(Interface):
    """The two-events-per-hop transmitter ``Interface`` used to be.

    A ``busy`` flag, cleared by a ``_finish_tx`` event that exists for
    every packet whether or not another one waits; the delivery is
    scheduled from that event.  Same admission, counters, taps and
    delivery times as the runtime's ``busy_until`` transmitter, and the
    same first-packet queue from ``link.queue_factory`` — except
    that an arrival at the very instant of a departure is judged before
    or after it by event scheduling order, where the runtime states a
    rule (departure first).  Substitute it with
    ``monkeypatch.setattr("repro.simnet.link.Interface", EagerInterface)``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.busy = False

    def send(self, pkt: Packet) -> bool:
        if not self.link.up:
            self.dropped_link_down += 1
            return False
        if self.queue is IDLE_QUEUE:  # the port's first packet
            self.queue = self.link.queue_factory()
        if not self.queue.enqueue(pkt):
            return False
        if not self.busy:
            self._start_next()
        return True

    def _start_next(self) -> None:
        pkt = self.queue.dequeue()
        if pkt is None:
            self.busy = False
            return
        self.busy = True
        tx_time = pkt.size * 8 / self.link.rate_bps
        for tap in self.tx_taps:
            tap(pkt, self.sim.now)
        self.tx_packets += 1
        self.tx_bytes += pkt.size
        self.sim.call_after(tx_time, self._finish_tx, pkt)

    def _finish_tx(self, pkt: Packet) -> None:
        self.sim.call_after(self.link.propagation_delay, self._deliver, pkt)
        self._start_next()


def nx_graph(net: Network, live: bool = False) -> nx.Graph:
    """``net`` as an ``nx.Graph``; ``live`` leaves out the downed links."""
    g = nx.Graph()
    g.add_nodes_from(net.hosts, kind="host")
    g.add_nodes_from(net.switches, kind="switch")
    for link in net.links:
        if link.up or not live:
            g.add_edge(link.a.name, link.b.name, link=link)
    return g


def all_shortest_paths(g: nx.Graph, src: str, dst: str) -> list[list[str]]:
    """Every shortest src→dst path of ``g``, sorted; ``[]`` when an
    endpoint is unknown or unreachable."""
    try:
        return sorted(nx.all_shortest_paths(g, src, dst))
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return []


def route_entries(sw: Switch) -> int:
    """Installed FIB entries of ``sw``, both levels (host routes and
    rack routes; the shared rack map is not one)."""
    return len(sw._host_routes) + len(sw._rack_routes)
