"""Pin the adjacency-map path answers to a brute-force graph library.

``Network`` keeps the fabric as ``{node: {peer: link}}`` and derives
everything from one BFS helper (see docs/PERFORMANCE.md):
``shortest_paths`` expands a per-target distance table over the
switches alone — hosts are leaves — and ``tree_path`` (what the
analyzer prunes by) reads the first-discovered tree of its source's
root.  These tests assert both are bit-identical to networkx on the
oracle graph of ``tests/simnet/oracles.py`` — including sort order,
memoized re-queries, *which* of several equally short paths a node
gets, and the no-path failure mode — on every builder fabric and on one
with a host not cabled yet.
"""
from __future__ import annotations

import itertools

import networkx as nx
import pytest

from repro.simnet.topology import (
    Network,
    NoPathError,
    build_fat_tree,
    build_fat_tree_for_hosts,
    build_leaf_spine,
    build_linear,
    build_star,
)
from tests.simnet.oracles import nx_graph

BUILDERS = [
    pytest.param(lambda: build_leaf_spine(4, 2, 3), id="leaf_spine"),
    pytest.param(lambda: build_fat_tree(4), id="fat_tree"),
    pytest.param(lambda: build_star(6), id="star"),
    pytest.param(lambda: build_linear(4, hosts_per_switch=2), id="linear"),
    pytest.param(lambda: build_fat_tree_for_hosts(40, k=4),
                 id="fat_tree_for_hosts"),
]


def with_uncabled_host() -> Network:
    """A leaf-spine plus one host that has no cable yet."""
    net = build_leaf_spine(2, 2, 2)
    net.add_host("idle")
    return net


EVERY_FABRIC = BUILDERS + [
    pytest.param(with_uncabled_host, id="uncabled_host"),
]


def _brute(graph: nx.Graph, src: str, dst: str):
    if src not in graph or dst not in graph:
        return "unknown"
    try:
        return sorted(nx.all_shortest_paths(graph, src, dst))
    except nx.NetworkXNoPath:
        return "unreachable"


def _ours(net: Network, src: str, dst: str):
    try:
        return net.shortest_paths(src, dst)
    except NoPathError as err:
        assert (err.src, err.dst) == (src, dst)
        return "unknown" if err.unknown else "unreachable"


def _assert_equivalent(net: Network) -> None:
    graph = nx_graph(net)
    nodes = sorted(net.hosts) + sorted(net.switches) + ["ghost"]
    for src, dst in itertools.product(nodes, repeat=2):  # incl. a == b
        want = _brute(graph, src, dst)
        got = _ours(net, src, dst)
        assert got == want, (src, dst)
        # the memoized re-query must agree even after callers mutate
        # the previously returned lists
        if isinstance(got, list) and got:
            got[0].append("mutated-by-caller")
        assert _ours(net, src, dst) == want, (src, dst)


@pytest.mark.parametrize("build", EVERY_FABRIC)
def test_builder_fabrics_match_brute_force(build) -> None:
    net = build()
    _assert_equivalent(net)
    assert net._derived()[0]  # the switch-only tables actually engaged
    # one BFS per target asked about, however many pairs were asked
    assert net.path_searches <= 2 * len(net.adjacency)


def _assert_tree_paths(net: Network) -> None:
    """``tree_path`` against networkx's first-discovered tree, for every
    source × every node of ``net`` plus an unknown name on each side."""
    graph = nx_graph(net)
    nodes = [*net.adjacency, "ghost"]
    for source in nodes:
        want = (nx.single_source_shortest_path(graph, source)
                if source in graph else {})
        for node in nodes:
            got = net.tree_path(source, node)
            assert got == want.get(node), (source, node)
            if got:  # callers own the list; the memo must not change
                got.append("mutated-by-caller")
                assert net.tree_path(source, node) == want[node]


@pytest.mark.parametrize("build", EVERY_FABRIC)
def test_tree_path_follows_the_first_discovered_tree(build) -> None:
    """Node for node, path for path: pruning keeps or drops a host by
    the links of this one path, so *which* shortest path is contract."""
    net = build()
    _assert_tree_paths(net)
    # one tree per switch, each holding switches only
    assert set(net._trees) == set(net.switches)
    assert all(set(tree) <= set(net.switches)
               for tree in net._trees.values())


def test_tree_path_follows_link_order_not_names() -> None:
    """Two equally short paths: the peer cabled first wins, whatever it
    is called — the tie-break every derived answer inherits, host-rooted
    paths (grown from the attach switch's tree) included."""
    for first, second in (("sa", "sb"), ("sb", "sa")):
        net = Network()
        for name in ("top", first, second, "bottom"):
            net.add_switch(name)
        for a, b in (("top", first), ("top", second),
                     (first, "bottom"), (second, "bottom")):
            net.connect(net.node(a), net.node(b))
        for host, switch in (("ht", "top"), ("hb", "bottom")):
            net.connect(net.add_host(host), net.node(switch))
        assert net.tree_path("top", "bottom") == ["top", first, "bottom"]
        assert net.tree_path("ht", "hb") == [
            "ht", "top", first, "bottom", "hb"]
        _assert_tree_paths(net)


def test_topology_edits_reset_the_path_memo() -> None:
    net = build_leaf_spine(4, 2, 2)
    before = net.shortest_paths("h0_0", "h1_0")
    assert net.tree_path("h0_0", "h1_0") is not None
    version = net.topology_version
    net.add_host("hx")
    assert net._spaths == {} and net._toward == {} and net._trees == {}
    assert net.topology_version > version
    net.connect(net.node("hx"), net.node("leaf0"))
    assert net.shortest_paths("h0_0", "h1_0") == before
    assert net.shortest_paths("hx", "h1_0") == [
        [src, *mid, "h1_0"]
        for src, mid in [("hx", p[1:-1]) for p in net.shortest_paths(
            "h0_0", "h1_0")]
    ]


def test_topology_version_moves_on_edits_only() -> None:
    net = Network()
    seen = [net.topology_version]

    def moved() -> bool:
        seen.append(net.topology_version)
        return seen[-1] > seen[-2]

    a = net.add_switch("a")
    assert moved()
    b = net.add_switch("b")
    assert moved()
    h = net.add_host("h")
    assert moved()
    net.connect(a, b)
    assert moved()
    link = net.connect(h, a)
    assert moved()
    net.connect(a, b)  # a parallel link is an edit too
    assert moved()
    # liveness is not cabling: nothing derived from the map expires
    net.compute_routes()
    link.set_down()
    net.set_link_state("a", "b", up=False)
    net.set_link_state("a", "b", up=True)
    link.set_up()
    assert not moved()
