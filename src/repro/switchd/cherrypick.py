"""CherryPick-style link sampling (§4.1.3).

The commodity-switch design cannot afford per-hop INT records, so
SwitchPointer extends CherryPick [SOSR'15]: on clos topologies a single
well-chosen *link* pins the entire end-to-end path (e.g. the
aggregate-core link of a 5-hop fat-tree path).  The switch whose egress
link pins the path embeds that linkID plus its current epochID as two
VLAN tags; the destination reconstructs the full switch list from
(src, dst, linkID) alone.

:class:`CherryPickPlanner` answers both sides — the switch's "does
*this* egress link pin the *src→dst* path?" and the host's "which path
did this linkID pin?" — from one **path plan** per
:meth:`Network.attach_pair`: for each link asked about, the one
shortest path between the two attach switches that crosses it (or that
none or several do), found in the sorted path tuples :class:`Network`
expands for the pair from its per-target distance table.  Every host
pair behind the same two switches is answered by dict probes after the
first — the analogue of the real system compiling the decision into
static OpenFlow rules (one rule per port, §4.1.3) and of the host
holding the topology map (§4.2.1).
"""

from __future__ import annotations

from typing import Optional, Union

from ..simnet.link import Link
from ..simnet.topology import Network, NodePath, NoPathError, TopologyError

#: (path between the plan's endpoints, (its switches, embedder index))
Route = tuple[NodePath, tuple[NodePath, int]]
#: (the pair's shortest path when there is only one,
#:  {hop asked about: the route of the one path crossing it, else False})
Plan = tuple[Optional[NodePath], dict[tuple[str, str], Union[Route, bool]]]


class CherryPickPlanner:
    """Link-pinning decisions over one topology, planned once per path."""

    def __init__(self, network: Network):
        self.network = network
        #: the ``Network.topology_version`` the plans below derive from
        self._version = -1
        self._plans: dict[tuple[str, str], Plan] = {}

    def _route(self, src: str, dst: str, link: Link) -> Optional[Route]:
        """The one shortest src→dst path crossing ``link``, if it pins."""
        net = self.network
        if net.topology_version != self._version:
            # moves with every topology edit and never with a link
            # flap: plans follow the cabling, not liveness
            self._version = net.topology_version
            self._plans.clear()
        pair = net.attach_pair(src, dst)
        plan = self._plans.get(pair)
        if plan is None:
            try:
                paths = net.attach_paths(*pair)
            except NoPathError:
                paths = ()  # unknown or unreachable endpoints: nothing pins
            plan = self._plans[pair] = (
                paths[0] if len(paths) == 1 else None, {})
        only, routes = plan
        hop = (link.a.name, link.b.name)
        if pair[0] != src and (src in hop or dst in hop):
            # a plan shared through the attach switches leaves the two
            # access links out: they lie on every path of the pair, so
            # they pin iff there is only one (a host embeds nothing: -1)
            if only is None:
                return None
            return only, (only, len(only) - 1 if dst in hop else -1)
        route = routes.get(hop)
        if route is None:
            route = routes[hop] = self._search(pair, link)
        return route or None

    def _search(self, pair: tuple[str, str],
                link: Link) -> Union[Route, bool]:
        """The route of the pair's only path crossing ``link``, else False."""
        try:
            path = self.network.path_through_link(*pair, link)
        except TopologyError:
            return False  # several paths cross it, or none exists at all
        if path is None:
            return False
        switches = self.network.switches
        here = path[min(path.index(link.a.name), path.index(link.b.name))]
        on_path = tuple(n for n in path if n in switches)
        return tuple(path), (on_path, on_path.index(here)
                             if here in switches else -1)

    def _pinned_route(self, src: str, dst: str, vlan_id: int) -> Route:
        link = self.network.link_by_vlan(vlan_id)
        route = self._route(src, dst, link)
        if route is None:
            raise TopologyError(
                f"link {link.endpoints} does not pin {src}->{dst}")
        return route

    def pins_path(self, src: str, dst: str, link: Link) -> bool:
        """True iff ``link`` lies on exactly one shortest src→dst path.

        Unknown or unreachable endpoints (e.g. a destination being
        decommissioned while routes linger) simply do not pin — the
        datapath then skips embedding rather than failing the packet.
        """
        return self._route(src, dst, link) is not None

    def reconstruct_path(self, src: str, dst: str,
                         vlan_id: int) -> list[str]:
        """Full node path for a packet that carried wire id ``vlan_id``.

        This is the destination-side decode: the unique shortest src→dst
        path through the identified link.  Raises
        :class:`TopologyError` when the link does not pin the path —
        which means the embedding rule was wrong, never that data was
        lost.
        """
        path = self._pinned_route(src, dst, vlan_id)[0]
        return list(path) if path[0] == src else [src, *path, dst]

    def switch_path(self, src: str, dst: str, vlan_id: int) -> list[str]:
        """Switch names only (hosts trimmed) for the reconstructed path."""
        return list(self._pinned_route(src, dst, vlan_id)[1][0])

    def decode_path(self, src: str, dst: str,
                    vlan_id: int) -> tuple[tuple[str, ...], int]:
        """``(switch path, index of the embedding switch on it)``.

        What the per-packet decoder needs of :meth:`reconstruct_path`
        (and raising like it), as the plan's own shared tuples; the
        index is -1 when the link's upstream end is a host.
        """
        return self._pinned_route(src, dst, vlan_id)[1]

    def embedding_hop(self, src: str, dst: str) -> Optional[str]:
        """Which switch on the (first) shortest path would embed.

        Used by tests and by the rule-count model: the embedder is the
        first switch whose next-hop link pins the path.  Raises
        :class:`NoPathError` when nothing joins the two.
        """
        path = self.network.shortest_paths(src, dst)[0]
        for here, nxt in zip(path[1:], path[2:]):
            if here not in self.network.switches:
                continue
            link = self.network.link_between(here, nxt)
            if self.pins_path(src, dst, link):
                return here
        return None
