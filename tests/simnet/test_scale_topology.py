"""Scale topology: fat-tree-for-hosts generator and fast route install.

``compute_routes`` was rewritten from an all-pairs × all-links scan to
BFS-from-switches + per-switch incident links; the reference
implementation below re-states the old semantics so the rewrite stays
behaviorally pinned (including ECMP candidate order, which the
load-imbalance and polarization scenarios depend on).
"""

import networkx as nx
import pytest

from repro.simnet.packet import make_udp
from repro.simnet.topology import (TopologyError, build_fat_tree,
                                   build_fat_tree_for_hosts,
                                   build_leaf_spine, build_linear,
                                   build_star)
from tests.simnet.oracles import nx_graph, route_entries


def reference_routes(net) -> dict[tuple[str, str], list[int]]:
    """The pre-rewrite compute_routes semantics, as ECMP candidate
    link-id lists per (switch, dst)."""
    g = nx_graph(net, live=True)
    dist = dict(nx.all_pairs_shortest_path_length(g))
    out: dict[tuple[str, str], list[int]] = {}
    for sw_name, sw in net.switches.items():
        for dst in net.hosts:
            candidates = []
            d_here = dist[sw_name].get(dst)
            if d_here is None:
                continue
            for link in net.links:
                if not link.up:
                    continue
                if sw_name not in (link.a.name, link.b.name):
                    continue
                peer = link.peer_of(sw)
                if dist[peer.name].get(dst) == d_here - 1:
                    candidates.append(link.vlan_id)
            if candidates:
                out[(sw_name, dst)] = candidates
    return out


def installed_routes(net) -> dict[tuple[str, str], list[int]]:
    out = {}
    for sw_name, sw in net.switches.items():
        for dst in net.hosts:
            ifaces = sw.routes_for(dst)
            if ifaces:
                out[(sw_name, dst)] = [iface.link.vlan_id
                                       for iface in ifaces]
    return out


class TestComputeRoutesEquivalence:
    @pytest.mark.parametrize("build", [
        lambda: build_star(5),
        lambda: build_linear(4, hosts_per_switch=3),
        lambda: build_leaf_spine(4, 2, hosts_per_leaf=3),
        lambda: build_fat_tree(4),
    ])
    def test_matches_reference_incl_candidate_order(self, build):
        net = build()
        assert installed_routes(net) == reference_routes(net)

    def test_matches_reference_after_link_down(self):
        net = build_leaf_spine(4, 2, hosts_per_leaf=2)
        net.set_link_state("leaf0", "spine0", up=False)
        assert installed_routes(net) == reference_routes(net)

    def test_matches_reference_on_partition(self):
        net = build_linear(3, hosts_per_switch=1)
        net.set_link_state("S1", "S2", up=False)
        routes = installed_routes(net)
        assert routes == reference_routes(net)
        # S1 lost every path to the hosts beyond the cut
        assert ("S1", "h2_0") not in routes
        assert ("S1", "h1_0") in routes

    def test_matches_reference_after_reconvergence(self):
        net = build_leaf_spine(4, 2, hosts_per_leaf=2)
        net.set_link_state("leaf0", "spine0", up=False)
        net.set_link_state("leaf0", "spine0", up=True)
        assert installed_routes(net) == reference_routes(net)


class TestGenericAndFastRoutesAgree:
    """``compute_routes`` routes to the rack over the switch-only links;
    what a packet sees must equal the networkx reference, candidate
    tuples and their order included, healthy, degraded and
    reconverged."""

    BUILDS = [
        pytest.param(lambda: build_star(5), None, id="star"),
        pytest.param(lambda: build_linear(4, hosts_per_switch=2),
                     ("S2", "S3"), id="linear"),
        pytest.param(lambda: build_leaf_spine(4, 2, hosts_per_leaf=3),
                     ("leaf0", "spine0"), id="leaf_spine"),
        pytest.param(lambda: build_fat_tree(4),
                     ("agg0_0", "core0"), id="fat_tree"),
        pytest.param(lambda: build_fat_tree_for_hosts(40, k=4),
                     ("agg1_1", "edge1_0"), id="fat_tree_for_hosts"),
    ]

    @staticmethod
    def fib(net):
        """What a packet sees: ``routes_for`` of every (switch, host)
        pair that has a route, candidate order included."""
        return {(name, dst): tuple(iface.link.vlan_id for iface in ifaces)
                for name, sw in net.switches.items()
                for dst in net.hosts
                if (ifaces := sw.routes_for(dst))}

    def checked(self, net):
        fib = self.fib(net)
        # to the rack, not to the host: a switch holds at most one entry
        # per other switch plus one per host it serves itself
        for name, sw in net.switches.items():
            served = sum(peer in net.hosts for peer in net.adjacency[name])
            assert route_entries(sw) <= len(net.switches) - 1 + served
        assert sum(route_entries(sw) for sw in net.switches.values()) \
            <= len(net.switches) ** 2 + len(net.hosts)
        net.compute_routes()  # a second convergence installs the same
        assert self.fib(net) == fib
        assert fib == {pair: tuple(ids) for pair, ids
                       in reference_routes(net).items()}
        return fib

    @pytest.mark.parametrize("build, cut", BUILDS)
    def test_down_partition_and_reconvergence(self, build, cut):
        net = build()
        healthy = self.checked(net)
        if cut is None:
            return
        net.set_link_state(*cut, up=False)
        degraded = self.checked(net)
        assert degraded != healthy
        net.set_link_state(*cut, up=True)
        assert self.checked(net) == healthy

    def test_partitioned_chain(self):
        net = build_linear(3, hosts_per_switch=1)
        net.set_link_state("S1", "S2", up=False)
        routes = self.checked(net)
        assert ("S1", "h2_0") not in routes and ("S1", "h1_0") in routes


class TestTwoLevelFib:
    """Host routes over rack routes: what each level holds, which one
    wins, and that a dead access link leaves no route anywhere."""

    def test_fabric_scale_point_routes_to_racks(self):
        net = build_leaf_spine(64, 16, 256)
        # one entry per (switch, host) pair would be 1,310,720
        assert sum(route_entries(sw)
                   for sw in net.switches.values()) <= 25_000
        for name, sw in net.switches.items():
            own = 256 if name.startswith("leaf") else 0
            assert route_entries(sw) <= len(net.switches) - 1 + own
        spine_ids = [link.vlan_id for link in net.links[:16]]
        assert [i.link.vlan_id for i in
                net.switches["leaf0"].routes_for("h63_255")] == spine_ids

    def test_host_route_overrides_its_rack_for_that_host_only(self):
        net = build_leaf_spine(3, 2, hosts_per_leaf=2)
        leaf0 = net.switches["leaf0"]
        via_rack = leaf0.routes_for("h1_0")
        assert len(via_rack) == 2 and leaf0.routes_for("h1_1") == via_rack
        down = leaf0.routes_for("h0_0")[0]
        leaf0.set_routes("h1_0", (*via_rack, down))
        assert leaf0.routes_for("h1_0") == [*via_rack, down]
        assert leaf0.routes_for("h1_1") == via_rack
        leaf0.set_routes("h1_1", [down])
        assert leaf0.routes_for("h1_1") == [down]
        assert leaf0.routes_for("h2_0") == via_rack
        assert net.switches["leaf2"].routes_for("h1_0") != [down]
        net.compute_routes()  # convergence forgets the overrides
        assert leaf0.routes_for("h1_0") == via_rack
        assert leaf0.routes_for("h1_1") == via_rack

    def test_dead_access_link_leaves_no_route_on_any_switch(self):
        net = build_leaf_spine(2, 2, hosts_per_leaf=2)
        net.set_link_state("leaf1", "h1_0", up=False)
        for sw in net.switches.values():
            assert sw.routes_for("h1_0") == []
            assert sw.routes_for("h1_1")  # its rack is still served
        net.hosts["h0_0"].send(make_udp("h0_0", "h1_0", 1, 2, 100))
        net.run()
        # dropped where it entered the fabric, not a hop later
        drops = {n: sw.no_route_drops for n, sw in net.switches.items()}
        assert drops == {"leaf0": 1, "leaf1": 0, "spine0": 0, "spine1": 0}
        assert net.switches["leaf0"].forwarded == 0
        net.set_link_state("leaf1", "h1_0", up=True)
        assert all(sw.routes_for("h1_0") for sw in net.switches.values())

    def test_clear_routes_empties_both_levels_on_that_switch_only(self):
        net = build_leaf_spine(2, 2, hosts_per_leaf=2)
        before = {n: route_entries(sw) for n, sw in net.switches.items()}
        leaf0 = net.switches["leaf0"]
        leaf0.clear_routes()
        assert route_entries(leaf0) == 0
        assert [leaf0.routes_for(h) for h in net.hosts] == [[]] * 4
        for name, sw in net.switches.items():
            if sw is not leaf0:
                assert route_entries(sw) == before[name]
                assert all(sw.routes_for(h) for h in net.hosts)


class TestFatTreeForHosts:
    @pytest.mark.parametrize("n", [1, 7, 64, 100, 256, 1024])
    def test_exact_host_count(self, n):
        net = build_fat_tree_for_hosts(n)
        assert len(net.hosts) == n

    def test_switch_fabric_stays_bounded(self):
        small = build_fat_tree_for_hosts(256)
        large = build_fat_tree_for_hosts(4096)
        # pods saturate first, then hosts-per-edge grows: the switching
        # fabric is the same shape at both populations
        assert len(large.switches) == len(small.switches)

    def test_all_pairs_reachable_in_sample(self):
        net = build_fat_tree_for_hosts(96)
        names = net.host_names
        for src, dst in zip(names[:4], reversed(names[-4:])):
            assert nx.has_path(nx_graph(net), src, dst)
            sw = net.switches[next(
                n for n in net.adjacency[src] if n in net.switches)]
            assert sw.routes_for(dst)

    def test_rejects_bad_params(self):
        with pytest.raises(TopologyError):
            build_fat_tree_for_hosts(0)
        with pytest.raises(TopologyError):
            build_fat_tree_for_hosts(8, k=3)
        with pytest.raises(TopologyError):
            build_fat_tree_for_hosts(8, max_pods=0)


class TestFatTreeExtensions:
    def test_n_pods_override(self):
        net = build_fat_tree(4, n_pods=2)
        pods = {name.split("_")[0] for name in net.switches
                if name.startswith("edge")}
        assert pods == {"edge0", "edge1"}

    def test_total_hosts_trims_the_last_edges(self):
        net = build_fat_tree(4, n_pods=2, total_hosts=5)
        assert len(net.hosts) == 5

    def test_classic_shape_unchanged(self):
        net = build_fat_tree(4)
        assert len(net.hosts) == 16
        assert len(net.switches) == 20
