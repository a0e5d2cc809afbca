"""Network container and topology builders.

:class:`Network` owns the simulator, nodes and links.  The fabric is
what the paper says hosts and the analyzer hold — a static topology
map (§4.2.1, §4.3): one adjacency map ``{node: {peer: link}}`` in
link-creation order, versioned by ``topology_version``.  Hosts are
leaves: :meth:`Network.connect` gives a host one cable, to a switch, so
every path between hosts runs between their attach switches over the
switches alone.  Forwarding tables (:meth:`Network.compute_routes`, one
route per remote rack), the per-target distance tables behind
:meth:`Network.shortest_paths` and the first-discovered paths the
analyzer prunes by (:meth:`Network.tree_path`, one tree per root switch,
a host's path built at lookup) all come from one level-order BFS over
the switch-only map; nothing here imports a graph library.
Builders cover the topologies the paper uses:

* :func:`build_linear` — the 3-switch chain of Figs 1(b)/1(c), used by
  the "too many red lights" and "traffic cascades" scenarios.
* :func:`build_star` — m hosts behind one switch, the Fig 1(a)
  "too much traffic" scenario.
* :func:`build_leaf_spine` — standard 2-tier clos.
* :func:`build_fat_tree` — the k-ary fat-tree of the CherryPick
  discussion in §4.1.3 (5-hop paths, one aggregate-core link pins the
  whole path).

All builders accept a ``queue_factory`` so a single switch flag flips the
whole fabric between FIFO (microburst) and strict-priority experiments.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional, Sequence

from .engine import Simulator
from .link import Link, Node
from .queues import PacketQueue
from .device import Switch
from .host import Host
from .packet import FlowKey

QueueFactory = Callable[[], PacketQueue]


NodePath = tuple[str, ...]


class TopologyError(Exception):
    """Raised for malformed topologies or unknown nodes."""


class NoPathError(TopologyError):
    """No path joins ``src`` and ``dst``.

    ``unknown`` tells an endpoint that is not a node of the fabric at
    all from one that is merely unreachable over its cabling.
    """

    def __init__(self, src: str, dst: str, *, unknown: bool):
        super().__init__(
            f"{'unknown endpoint in' if unknown else 'no path'} "
            f"{src!r} -> {dst!r}")
        self.src, self.dst, self.unknown = src, dst, unknown


def _bfs(adj: Mapping[str, Iterable[str]], source: str
         ) -> tuple[dict[str, int], dict[str, str]]:
    """Level-order BFS from ``source`` over ``adj`` (``{node: peers}``).

    Returns ``(hop count, first discoverer)`` of every reachable node,
    both in discovery order.  Peers are tried in ``adj`` order and the
    first discoverer wins, so everything derived from the tree (routes,
    path plans, the analyzer's pruning paths) is a function of
    link-creation order alone; ``tests/simnet/oracles.py`` pins it to a
    graph library's answer on the same cabling.
    """
    dist = {source: 0}
    parent: dict[str, str] = {}
    frontier = [source]
    hops = 0
    while frontier:
        hops += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = hops
                    parent[v] = u
                    nxt.append(v)
        frontier = nxt
    return dist, parent


class Network:
    """A simulated network: nodes + links + routing.

    The node namespace is flat; host and switch names must be unique.
    """

    def __init__(self, sim: Optional[Simulator] = None):
        self.sim = sim if sim is not None else Simulator()
        self.hosts: dict[str, Host] = {}
        self.switches: dict[str, Switch] = {}
        self.links: list[Link] = []
        #: the fabric itself: ``{node: {peer: first link to it}}``, peers
        #: in link-creation order.  Cabling only — a downed link stays
        #: (routing reads ``link.up`` off :attr:`links` instead)
        self.adjacency: dict[str, dict[str, Link]] = {}
        #: bumped by every add_host / add_switch / connect and by
        #: nothing else: what planners and the analyzer key their
        #: caches on (a link flap moves no cable)
        self.topology_version = 0
        #: searches :meth:`attach_paths` has run, for tests to count
        self.path_searches = 0
        #: ECMP hash memo all our switches share; dies with the network
        self.flow_hashes: dict[FlowKey, int] = {}
        # derived from the cabling and dropped with every edit: the
        # (host -> attach switch, switch-only adjacency) pair, the
        # per-target predecessor tables, the shortest-path memo (one
        # entry per :meth:`attach_pair`) and the :meth:`tree_path` trees
        self._fabric: Optional[tuple[dict[str, str],
                                     dict[str, list[str]]]] = None
        self._toward: dict[str, dict[str, list[str]]] = {}
        self._spaths: dict[tuple[str, str], tuple[NodePath, ...]] = {}
        self._trees: dict[str, dict[str, NodePath]] = {}

    # -- construction --------------------------------------------------------

    def add_host(self, name: str) -> Host:
        self._check_fresh_name(name)
        host = Host(self.sim, name)
        self.hosts[name] = host
        self.adjacency[name] = {}
        self._edited()
        return host

    def add_switch(self, name: str) -> Switch:
        self._check_fresh_name(name)
        sw = Switch(self.sim, name, flow_hashes=self.flow_hashes)
        self.switches[name] = sw
        self.adjacency[name] = {}
        self._edited()
        return sw

    def connect(self, a: Node, b: Node, *, rate_bps: float = 1e9,
                propagation_delay: float = 2e-6,
                queue_factory: Optional[QueueFactory] = None) -> Link:
        """Create a full-duplex link and register its interfaces.

        Hosts are leaves: a host takes one cable, and only to a switch.
        Both ends are checked before anything is built, so a refused
        cable leaves the network as it was.
        """
        for node in (a, b):
            if node is not self.hosts.get(node.name, self.switches.get(
                    node.name)):
                raise TopologyError(f"unknown node {node.name!r}")
        for host, peer in ((a, b), (b, a)):
            if host.name not in self.hosts:
                continue
            if peer.name in self.hosts:
                raise TopologyError(
                    f"host {host.name!r} cannot be wired to host "
                    f"{peer.name!r}: hosts hang off switches")
            if host.nic is not None:
                raise TopologyError(
                    f"host {host.name!r} is already cabled to "
                    f"{host.nic.peer_node.name!r}")
        link = Link(self.sim, a, b, rate_bps=rate_bps,
                    propagation_delay=propagation_delay,
                    queue_factory=queue_factory)
        for node, iface in ((a, link.iface_a), (b, link.iface_b)):
            node.attach(iface)
        link.vlan_id = len(self.links)  # network-local 12-bit wire id
        self.links.append(link)
        # the first-created of parallel links keeps the adjacency entry
        self.adjacency.setdefault(a.name, {}).setdefault(b.name, link)
        self.adjacency.setdefault(b.name, {}).setdefault(a.name, link)
        self._edited()
        return link

    def _edited(self) -> None:
        self.topology_version += 1
        self._fabric = None
        self._toward.clear()
        self._spaths.clear()
        self._trees.clear()

    def _check_fresh_name(self, name: str) -> None:
        if name in self.hosts or name in self.switches:
            raise TopologyError(f"duplicate node name {name!r}")

    # -- lookup ----------------------------------------------------------------

    def link_between(self, a: str, b: str) -> Link:
        link = self.adjacency.get(a, {}).get(b)
        if link is None:
            raise TopologyError(f"no link between {a!r} and {b!r}")
        return link

    def link_by_vlan(self, vlan_id: int) -> Link:
        """Resolve a network-local wire id (what VLAN tags carry)."""
        if 0 <= vlan_id < len(self.links):
            return self.links[vlan_id]
        raise TopologyError(f"no link with vlan id {vlan_id}")

    @property
    def host_names(self) -> list[str]:
        return sorted(self.hosts)

    # -- fabric & paths ----------------------------------------------------

    def _derived(self) -> tuple[dict[str, str], dict[str, list[str]]]:
        """``(host -> attach switch, switch-only adjacency)``.

        A host not cabled yet has no attach switch; both follow the
        cabling, never link state.
        """
        if self._fabric is None:
            adj, switches = self.adjacency, self.switches
            self._fabric = (
                {h: sw for h in self.hosts for sw in adj[h]},
                {s: [p for p in adj[s] if p in switches] for s in switches})
        return self._fabric

    def attach_pair(self, src: str, dst: str) -> tuple[str, str]:
        """The node pair whose shortest paths decide src→dst's.

        A host is a leaf, never a transit node, so each shortest path
        between two distinct cabled hosts is exactly ``[src] + P +
        [dst]`` with ``P`` ranging over the shortest paths between the
        two attachment switches — the pair returned.  Any other query
        (switch endpoints, ``src == dst``, uncabled or unknown names) is
        decided by the two names themselves.
        """
        attach = self._derived()[0]
        a, b = attach.get(src), attach.get(dst)
        if a is None or b is None or src == dst:
            return src, dst
        return a, b

    def attach_paths(self, a: str, b: str) -> tuple[NodePath, ...]:
        """All shortest a→b paths between two switches, sorted.

        The memo's own immutable tuples (what the CherryPick planner
        shares between every host pair behind ``a`` and ``b``).  A miss
        walks the distance table *toward* ``b`` — one BFS per target
        over the switches, kept as each switch's peers one hop closer —
        so expanding a pair costs its output, not a search.  Raises
        :class:`NoPathError`, also when either end is not a switch.
        """
        cores = self._spaths.get((a, b))
        if cores is not None:
            return cores
        core = self._derived()[1]
        if a not in core or b not in core:
            raise NoPathError(a, b, unknown=(a not in self.adjacency
                                             or b not in self.adjacency))
        toward = self._toward.get(b)
        if toward is None:
            self.path_searches += 1
            dist = _bfs(core, b)[0]
            toward = self._toward[b] = {
                v: [w for w in core[v] if dist.get(w) == d - 1]
                for v, d in dist.items()}
        if a not in toward:
            raise NoPathError(a, b, unknown=False)
        paths = [(a,)]
        while paths[0][-1] != b:  # every shortest path is equally long
            paths = [p + (w,) for p in paths for w in toward[p[-1]]]
        cores = self._spaths[a, b] = tuple(sorted(paths))
        return cores

    def _paths(self, src: str, dst: str) -> Sequence[NodePath]:
        """:meth:`attach_paths` between the switches behind ``src`` and
        ``dst`` (a switch is behind itself), wrapped in whichever ends
        are hosts."""
        if src == dst and src in self.adjacency:
            return [(src,)]
        attach = self._derived()[0]
        a, b = attach.get(src, src), attach.get(dst, dst)
        try:
            cores = self.attach_paths(a, b)
        except NoPathError as err:  # name the ends that were asked about
            raise NoPathError(src, dst, unknown=err.unknown) from None
        head = () if a == src else (src,)
        tail = () if b == dst else (dst,)
        return [(*head, *p, *tail) for p in cores]

    def shortest_paths(self, src: str, dst: str) -> list[list[str]]:
        """All shortest src→dst node-name paths (deterministic order).

        Callers get fresh lists; raises :class:`NoPathError` for an
        unknown or unreachable endpoint.
        """
        return [list(p) for p in self._paths(src, dst)]

    def tree_path(self, source: str, node: str) -> Optional[list[str]]:
        """One shortest source→node path: the first-discovered BFS tree's.

        Peers in link order, first discoverer wins — which of several
        equally short paths a node gets matters, because the analyzer
        keeps or drops a host by the links of this one.  One tree per
        switch, of switches only; a host source roots at its attach
        switch, and a host's path is its attach switch's plus itself,
        built per call.  ``None`` for an unknown or uncabled ``source``
        or an unknown or unreachable ``node``.
        """
        if source == node:
            return [source] if source in self.adjacency else None
        attach, core = self._derived()
        root = attach.get(source, source)
        tree = self._trees.get(root)
        if tree is None:
            if root not in core:
                return None
            parent = _bfs(core, root)[1]
            tree = self._trees[root] = {root: (root,)}
            for v, via in parent.items():
                tree[v] = (*tree[via], v)
        end = attach.get(node, node)
        path = tree.get(end)
        if path is None:
            return None
        out = list(path) if root == source else [source, *path]
        if end != node:
            out.append(node)
        return out

    def path_through_link(self, src: str, dst: str,
                          link: Link) -> Optional[list[str]]:
        """The unique shortest src→dst path crossing ``link``, if any.

        This is the CherryPick reconstruction primitive: on clos fabrics
        one picked link disambiguates the end-to-end path.  Returns None
        when no shortest path through the link exists; raises
        :class:`TopologyError` when more than one does (topology is not
        CherryPick-compatible for this pair) and :class:`NoPathError`
        when there is no src→dst path at all.
        """
        x, y = link.a.name, link.b.name
        # a shortest path visits a node once: one index each
        matches = [p for p in self._paths(src, dst) if x in p and y in p
                   and abs(p.index(x) - p.index(y)) == 1]
        if not matches:
            return None
        if len(matches) > 1:
            raise TopologyError(
                f"link {link.endpoints} does not pin the {src}->{dst} path")
        return list(matches[0])

    # -- routing ---------------------------------------------------------------

    def compute_routes(self) -> None:
        """Install ECMP forwarding state for every host destination.

        For each switch and destination host, every neighbor on some
        shortest *live* path toward the destination contributes one
        candidate egress interface, in link-creation order.  Down links
        contribute nothing, so re-running this after a link event
        models routing reconvergence.

        A host is a leaf — never an interior node of a shortest path —
        so switch-to-switch distances fully determine routing, and every
        destination behind the same attach switch shares one ECMP
        candidate set per forwarding switch: that set is installed once,
        as the switch's route to the rack (:meth:`Switch.set_rack_routes`),
        beside one host route per attached host.  Cost is one BFS per
        switch over the switch-only links and O(S² + H) installed state,
        which is what makes 65536-host fabrics routable in ~0.1 s.
        """
        switches = self.switches
        #: host -> attach switch over *live* links (``_derived()``'s
        #: follows the cabling): a host whose access link is down is in
        #: no switch's FIB, so its packets die at the ingress switch.
        #: Every switch reads this one dict.
        attach: dict[str, str] = {}
        access: dict[str, list[tuple[str, Link]]] = \
            {name: [] for name in switches}
        sw_adj: dict[str, list[tuple[str, Link]]] = \
            {name: [] for name in switches}
        for link in self.links:
            if not link.up:
                continue
            an, bn = link.a.name, link.b.name
            if an in switches and bn in switches:
                sw_adj[an].append((bn, link))
                sw_adj[bn].append((an, link))
            else:  # an access link: connect() puts a switch on one end
                hname, swname = (bn, an) if an in switches else (an, bn)
                attach[hname] = swname
                access[swname].append((hname, link))
        racks = [name for name, served in access.items() if served]
        # distances over the live switch-to-switch links only
        peers = {u: [v for v, _ in adj] for u, adj in sw_adj.items()}
        sdist = {name: _bfs(peers, name)[0] for name in switches}
        for sw_name, sw in switches.items():
            d_sw = sdist[sw_name]
            adj = sw_adj[sw_name]
            sw.clear_routes()
            # one entry per remote rack (a distance of 0 is this switch,
            # None an unreachable one), one per attached host
            sw.set_rack_routes(attach, {
                rack: tuple(link.iface_of(sw) for peer, link in adj
                            if sdist[peer].get(rack) == d_sw[rack] - 1)
                for rack in racks if d_sw.get(rack)})
            for dst, link in access[sw_name]:
                sw.set_routes(dst, (link.iface_of(sw),))

    def set_link_state(self, a: str, b: str, up: bool, *,
                       reconverge_delay: float = 0.0) -> Link:
        """Take the a—b link down (or up), then reconverge routing.

        Routes recompute at once unless ``reconverge_delay`` > 0: then
        :meth:`compute_routes` runs that many seconds later, and until it
        does the forwarding state keeps pointing at the dead link — the
        blackhole window between a physical failure and control-plane
        convergence.
        """
        link = self.link_between(a, b)
        if up:
            link.set_up()
        else:
            link.set_down()
        if reconverge_delay > 0:
            self.sim.schedule(reconverge_delay, self.compute_routes)
        else:
            self.compute_routes()
        return link

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_star(n_hosts: int, *, rate_bps: float = 1e9,
               queue_factory: Optional[QueueFactory] = None,
               sim: Optional[Simulator] = None,
               switch_name: str = "S1",
               host_prefix: str = "h") -> Network:
    """``n_hosts`` hosts behind a single switch (Fig 1(a) fan-in)."""
    if n_hosts < 1:
        raise TopologyError("need at least one host")
    net = Network(sim)
    sw = net.add_switch(switch_name)
    for i in range(n_hosts):
        host = net.add_host(f"{host_prefix}{i}")
        net.connect(host, sw, rate_bps=rate_bps, queue_factory=queue_factory)
    net.compute_routes()
    return net


def build_linear(n_switches: int = 3, hosts_per_switch: int = 2, *,
                 rate_bps: float = 1e9,
                 queue_factory: Optional[QueueFactory] = None,
                 sim: Optional[Simulator] = None) -> Network:
    """Chain of switches S1-S2-...-Sn, each with its own hosts.

    With the defaults this is exactly the Fig 1(b)/(c) topology: hosts
    ``h{s}_{i}`` attach to switch ``S{s}``.
    """
    if n_switches < 1:
        raise TopologyError("need at least one switch")
    net = Network(sim)
    switches = [net.add_switch(f"S{i + 1}") for i in range(n_switches)]
    for left, right in zip(switches, switches[1:]):
        net.connect(left, right, rate_bps=rate_bps,
                    queue_factory=queue_factory)
    for s, sw in enumerate(switches, start=1):
        for i in range(hosts_per_switch):
            host = net.add_host(f"h{s}_{i}")
            net.connect(host, sw, rate_bps=rate_bps,
                        queue_factory=queue_factory)
    net.compute_routes()
    return net


def build_leaf_spine(n_leaves: int = 4, n_spines: int = 2,
                     hosts_per_leaf: int = 4, *, rate_bps: float = 1e9,
                     queue_factory: Optional[QueueFactory] = None,
                     sim: Optional[Simulator] = None) -> Network:
    """Two-tier clos: every leaf connects to every spine."""
    if n_leaves < 1 or n_spines < 1:
        raise TopologyError("need at least one leaf and one spine")
    net = Network(sim)
    leaves = [net.add_switch(f"leaf{i}") for i in range(n_leaves)]
    spines = [net.add_switch(f"spine{i}") for i in range(n_spines)]
    for leaf in leaves:
        for spine in spines:
            net.connect(leaf, spine, rate_bps=rate_bps,
                        queue_factory=queue_factory)
    for li, leaf in enumerate(leaves):
        for i in range(hosts_per_leaf):
            host = net.add_host(f"h{li}_{i}")
            net.connect(host, leaf, rate_bps=rate_bps,
                        queue_factory=queue_factory)
    net.compute_routes()
    return net


def build_fat_tree(k: int = 4, *, rate_bps: float = 1e9,
                   queue_factory: Optional[QueueFactory] = None,
                   sim: Optional[Simulator] = None,
                   hosts_per_edge: Optional[int] = None,
                   n_pods: Optional[int] = None,
                   total_hosts: Optional[int] = None) -> Network:
    """k-ary fat-tree (k even): k pods, k²/4 cores, k/2 hosts per edge.

    Node names: ``core{c}``, ``agg{p}_{a}``, ``edge{p}_{e}``,
    ``h{p}_{e}_{i}`` — pod p, position within pod, host index.

    ``n_pods`` overrides the classic pod count (each pod is k/2 aggs ×
    k/2 edges regardless, and agg position ``a`` of every pod uplinks
    to core group ``a``, so any pod count ≥ 1 stays CherryPick-pinnable
    — one agg-core link still fixes the inter-pod path).
    ``total_hosts`` caps how many hosts are attached overall (the last
    edges are left short/empty), letting sweeps hit exact populations.
    """
    if k < 2 or k % 2 != 0:
        raise TopologyError("fat-tree arity k must be even and >= 2")
    pods = k if n_pods is None else n_pods
    if pods < 1:
        raise TopologyError("fat-tree needs at least one pod")
    net = Network(sim)
    half = k // 2
    n_hosts_edge = half if hosts_per_edge is None else hosts_per_edge
    cores = [net.add_switch(f"core{c}") for c in range(half * half)]
    hosts_left = (pods * half * n_hosts_edge
                  if total_hosts is None else total_hosts)
    for p in range(pods):
        aggs = [net.add_switch(f"agg{p}_{a}") for a in range(half)]
        edges = [net.add_switch(f"edge{p}_{e}") for e in range(half)]
        for a, agg in enumerate(aggs):
            for edge in edges:
                net.connect(agg, edge, rate_bps=rate_bps,
                            queue_factory=queue_factory)
            # agg a connects to cores [a*half, (a+1)*half)
            for c in range(a * half, (a + 1) * half):
                net.connect(agg, cores[c], rate_bps=rate_bps,
                            queue_factory=queue_factory)
        for e, edge in enumerate(edges):
            for i in range(min(n_hosts_edge, hosts_left)):
                host = net.add_host(f"h{p}_{e}_{i}")
                net.connect(host, edge, rate_bps=rate_bps,
                            queue_factory=queue_factory)
            hosts_left -= min(n_hosts_edge, hosts_left)
    net.compute_routes()
    return net


def build_fat_tree_for_hosts(n_hosts: int, *, k: int = 8,
                             max_pods: Optional[int] = None,
                             rate_bps: float = 1e9,
                             queue_factory: Optional[QueueFactory] = None,
                             sim: Optional[Simulator] = None) -> Network:
    """A multi-pod fat-tree sized from the host count (scale sweeps).

    Keeps the switching fabric fixed at arity ``k`` and grows along two
    axes: pods first (up to ``max_pods``, default the classic bound k),
    then hosts per edge — so a 64-host and a 4096-host point share the
    same fabric shape and differ only in population, which is exactly
    what the thousand-host sweeps need (switch count stays O(k²) while
    hosts scale).  Attaches exactly ``n_hosts`` hosts.
    """
    if n_hosts < 1:
        raise TopologyError("need at least one host")
    if k < 2 or k % 2 != 0:
        raise TopologyError("fat-tree arity k must be even and >= 2")
    half = k // 2
    pod_budget = k if max_pods is None else max_pods
    if pod_budget < 1:
        raise TopologyError("max_pods must be >= 1")
    hosts_per_edge = max(half, -(-n_hosts // (pod_budget * half)))
    n_pods = min(pod_budget, -(-n_hosts // (half * hosts_per_edge)))
    return build_fat_tree(k, rate_bps=rate_bps,
                          queue_factory=queue_factory, sim=sim,
                          hosts_per_edge=hosts_per_edge, n_pods=n_pods,
                          total_hosts=n_hosts)
