"""Unit tests for topology builders and routing."""

import pytest

from repro.simnet.packet import PROTO_UDP, make_udp
from repro.simnet.topology import (Network, TopologyError, build_fat_tree,
                                   build_leaf_spine, build_linear,
                                   build_star)
from tests.simnet.trajectory import Trajectories


class TestNetwork:
    def test_duplicate_names_rejected(self):
        net = Network()
        net.add_host("x")
        with pytest.raises(TopologyError):
            net.add_switch("x")

    def test_link_between(self):
        net = Network()
        a, b = net.add_host("a"), net.add_switch("b")
        link = net.connect(a, b)
        assert net.link_between("a", "b") is link
        assert net.link_between("b", "a") is link
        with pytest.raises(TopologyError):
            net.link_between("a", "ghost")

    def test_link_between_parallel_links(self):
        """Answered from the adjacency map: the first-created of two
        parallel links wins, in both directions, like the scan did."""
        net = Network()
        a, b, c = (net.add_switch(n) for n in "abc")
        first = net.connect(a, b)
        net.connect(b, c)
        second = net.connect(b, a)  # the same pair, wired twice
        assert first is not second and net.links == [
            first, net.link_between("b", "c"), second]
        assert net.link_between("a", "b") is first
        assert net.link_between("b", "a") is first
        assert list(net.adjacency["b"]) == ["a", "c"]
        with pytest.raises(TopologyError):
            net.link_between("a", "c")  # both known, not cabled
        with pytest.raises(TopologyError):
            net.link_between("ghost", "a")


class TestHostsAreLeaves:
    """A host takes one cable, and only to a switch; a refused cable is
    refused before anything is built."""

    @staticmethod
    def refused(net, a, b, match):
        def state():
            return ({n: list(sw.interfaces)
                     for n, sw in net.switches.items()},
                    {n: h.nic for n, h in net.hosts.items()},
                    list(net.links),
                    {n: dict(peers) for n, peers in net.adjacency.items()},
                    net.topology_version)

        before = state()
        with pytest.raises(TopologyError, match=match):
            net.connect(a, b)
        assert state() == before

    def test_second_cable_on_a_host_is_refused_first(self):
        net = Network()
        s0, s1 = net.add_switch("s0"), net.add_switch("s1")
        h = net.add_host("h")
        net.connect(h, s0)
        self.refused(net, s1, h, "host 'h' is already cabled to 's0'")
        assert s1.interfaces == []  # no orphan port on the switch
        self.refused(net, h, s0, "host 'h' is already cabled")

    def test_host_to_host_wire_is_refused(self):
        net = Network()
        a, b = net.add_host("a"), net.add_host("b")
        self.refused(net, a, b, "host 'a' cannot be wired to host 'b'")
        assert (a.nic, b.nic) == (None, None)

    def test_unknown_node_is_refused(self):
        net = Network()
        s = net.add_switch("s")
        stray = Network().add_host("h")  # another network's host
        self.refused(net, s, stray, "unknown node 'h'")
        net.add_host("h")
        self.refused(net, stray, s, "unknown node 'h'")


class TestLinear:
    def test_shape(self):
        net = build_linear(3, 2)
        assert len(net.switches) == 3
        assert len(net.hosts) == 6
        # chain + host links
        assert len(net.links) == 2 + 6

    def test_end_to_end_delivery(self):
        net = build_linear(3, 1)
        trail = Trajectories(net)
        got = []
        net.hosts["h3_0"].bind(PROTO_UDP, 9, lambda p, t: got.append(p))
        net.hosts["h1_0"].send(make_udp("h1_0", "h3_0", 1, 9, 500))
        net.run()
        assert trail.of(got[0]) == ["S1", "S2", "S3"]

    def test_unique_shortest_path(self):
        net = build_linear(3, 1)
        paths = net.shortest_paths("h1_0", "h3_0")
        assert len(paths) == 1
        assert paths[0] == ["h1_0", "S1", "S2", "S3", "h3_0"]


class TestStar:
    def test_all_hosts_reach_each_other(self):
        net = build_star(4)
        trail = Trajectories(net)
        got = []
        net.hosts["h3"].bind(PROTO_UDP, 9, lambda p, t: got.append(p))
        net.hosts["h0"].send(make_udp("h0", "h3", 1, 9, 500))
        net.run()
        assert len(got) == 1
        assert trail.of(got[0]) == ["S1"]

    def test_needs_a_host(self):
        with pytest.raises(TopologyError):
            build_star(0)


class TestLeafSpine:
    def test_shape(self):
        net = build_leaf_spine(n_leaves=4, n_spines=2, hosts_per_leaf=3)
        assert len(net.switches) == 6
        assert len(net.hosts) == 12
        assert len(net.links) == 4 * 2 + 12

    def test_cross_leaf_path_is_three_switches(self):
        net = build_leaf_spine(4, 2, 1)
        paths = net.shortest_paths("h0_0", "h3_0")
        for p in paths:
            switches = [n for n in p if n in net.switches]
            assert len(switches) == 3  # leaf, spine, leaf
        assert len(paths) == 2  # one per spine

    def test_same_leaf_path_stays_local(self):
        net = build_leaf_spine(2, 2, 2)
        paths = net.shortest_paths("h0_0", "h0_1")
        assert paths == [["h0_0", "leaf0", "h0_1"]]

    def test_delivery_across_fabric(self):
        net = build_leaf_spine(3, 2, 2)
        got = []
        net.hosts["h2_1"].bind(PROTO_UDP, 9, lambda p, t: got.append(p))
        net.hosts["h0_0"].send(make_udp("h0_0", "h2_1", 1, 9, 500))
        net.run()
        assert len(got) == 1


class TestFatTree:
    def test_k4_shape(self):
        net = build_fat_tree(4)
        # k=4: 4 cores, 8 aggs, 8 edges, 16 hosts
        assert len(net.switches) == 4 + 8 + 8
        assert len(net.hosts) == 16

    def test_odd_k_rejected(self):
        with pytest.raises(TopologyError):
            build_fat_tree(3)

    def test_interpod_path_is_five_hops(self):
        net = build_fat_tree(4)
        paths = net.shortest_paths("h0_0_0", "h1_0_0")
        for p in paths:
            switches = [n for n in p if n in net.switches]
            assert len(switches) == 5  # edge-agg-core-agg-edge

    def test_intrapod_cross_edge_is_three_hops(self):
        net = build_fat_tree(4)
        paths = net.shortest_paths("h0_0_0", "h0_1_0")
        for p in paths:
            switches = [n for n in p if n in net.switches]
            assert len(switches) == 3

    def test_delivery_across_pods(self):
        net = build_fat_tree(4)
        trail = Trajectories(net)
        got = []
        net.hosts["h3_1_1"].bind(PROTO_UDP, 9, lambda p, t: got.append(p))
        net.hosts["h0_0_0"].send(make_udp("h0_0_0", "h3_1_1", 1, 9, 500))
        net.run()
        assert len(got) == 1
        assert len(trail.of(got[0])) == 5


class TestPathThroughLink:
    def test_linear_link_pins_path(self):
        net = build_linear(3, 1)
        link = net.link_between("S1", "S2")
        path = net.path_through_link("h1_0", "h3_0", link)
        assert path == ["h1_0", "S1", "S2", "S3", "h3_0"]

    def test_unrelated_link_returns_none(self):
        net = build_linear(3, 2)
        host_link = net.link_between("h2_0", "S2")
        assert net.path_through_link("h1_0", "h3_0", host_link) is None

    def test_leaf_spine_spine_link_pins(self):
        net = build_leaf_spine(3, 2, 1)
        link = net.link_between("leaf0", "spine1")
        path = net.path_through_link("h0_0", "h2_0", link)
        assert path is not None
        assert "spine1" in path


class TestRouting:
    def test_all_pairs_reachable_on_fat_tree(self):
        net = build_fat_tree(4)
        hosts = net.host_names
        src = net.hosts[hosts[0]]
        delivered = []
        for dst in hosts[1:4]:
            net.hosts[dst].bind(PROTO_UDP, 9,
                                lambda p, t: delivered.append(p.flow.dst))
            src.send(make_udp(src.name, dst, 1, 9, 200))
        net.run()
        assert sorted(delivered) == sorted(hosts[1:4])

    def test_routes_only_on_shortest_paths(self):
        net = build_leaf_spine(2, 2, 1)
        leaf0 = net.switches["leaf0"]
        # toward a host on the same leaf there must be exactly one
        # candidate (the host port), never a detour via a spine
        routes = leaf0.routes_for("h0_0")
        assert len(routes) == 1
        # toward a remote host both spine links are candidates (ECMP)
        routes = leaf0.routes_for("h1_0")
        assert len(routes) == 2
