"""Unit tests for CherryPick link sampling and path reconstruction."""

import pytest

from repro.simnet.packet import PROTO_UDP, make_udp
from repro.simnet.topology import (NoPathError, TopologyError,
                                   build_fat_tree, build_leaf_spine,
                                   build_linear)
from repro.switchd.cherrypick import CherryPickPlanner
from tests.simnet.trajectory import Trajectories


class TestLinear:
    def test_every_chain_link_pins(self):
        net = build_linear(3, 1)
        planner = CherryPickPlanner(net)
        for pair in (("S1", "S2"), ("S2", "S3")):
            link = net.link_between(*pair)
            assert planner.pins_path("h1_0", "h3_0", link)

    def test_reconstruction_matches_route(self):
        net = build_linear(3, 1)
        planner = CherryPickPlanner(net)
        link = net.link_between("S1", "S2")
        path = planner.reconstruct_path("h1_0", "h3_0", link.vlan_id)
        assert path == ["h1_0", "S1", "S2", "S3", "h3_0"]

    def test_switch_path_trims_hosts(self):
        net = build_linear(3, 1)
        planner = CherryPickPlanner(net)
        link = net.link_between("S2", "S3")
        assert planner.switch_path("h1_0", "h3_0",
                                   link.vlan_id) == ["S1", "S2", "S3"]

    def test_off_path_link_does_not_pin(self):
        net = build_linear(3, 2)
        planner = CherryPickPlanner(net)
        stray = net.link_between("h2_0", "S2")
        assert not planner.pins_path("h1_0", "h3_0", stray)
        with pytest.raises(TopologyError):
            planner.reconstruct_path("h1_0", "h3_0", stray.vlan_id)


class TestLeafSpine:
    def test_leaf_spine_link_pins_cross_leaf_path(self):
        net = build_leaf_spine(4, 3, 2)
        planner = CherryPickPlanner(net)
        link = net.link_between("leaf0", "spine2")
        assert planner.pins_path("h0_0", "h3_1", link)
        path = planner.reconstruct_path("h0_0", "h3_1", link.vlan_id)
        assert path == ["h0_0", "leaf0", "spine2", "leaf3", "h3_1"]

    def test_host_link_does_not_pin_multipath(self):
        """With >= 2 spines the src host link lies on every shortest
        path, so it cannot disambiguate."""
        net = build_leaf_spine(4, 2, 2)
        planner = CherryPickPlanner(net)
        host_link = net.link_between("h0_0", "leaf0")
        assert not planner.pins_path("h0_0", "h3_1", host_link)


class TestFatTree:
    @pytest.fixture(scope="class")
    def net(self):
        return build_fat_tree(4)

    def test_agg_core_link_pins_interpod_path(self, net):
        """The paper's §4.1.3 example: one aggregate-core link pins a
        5-hop fat-tree path."""
        planner = CherryPickPlanner(net)
        link = net.link_between("agg0_0", "core0")
        src, dst = "h0_0_0", "h2_0_0"
        assert planner.pins_path(src, dst, link)
        path = planner.reconstruct_path(src, dst, link.vlan_id)
        switches = [n for n in path if n in net.switches]
        assert len(switches) == 5
        assert switches[2] == "core0"

    def test_embedding_hop_found_for_all_pairs(self, net):
        planner = CherryPickPlanner(net)
        pairs = [("h0_0_0", "h1_0_0"), ("h0_0_0", "h0_1_0"),
                 ("h2_1_1", "h3_0_1")]
        for src, dst in pairs:
            assert planner.embedding_hop(src, dst) is not None

    def test_reconstruction_equals_ground_truth_hops(self, net):
        """Send a real packet; the trajectory reconstructed from the
        pinning link must equal the switches it actually traversed."""
        planner = CherryPickPlanner(net)
        trail = Trajectories(net)
        src, dst = "h0_0_0", "h3_1_1"
        got = []
        net.hosts[dst].bind(PROTO_UDP, 9, lambda p, t: got.append(p))
        net.hosts[src].send(make_udp(src, dst, 1, 9, 500))
        net.run()
        true_hops = trail.of(got[0])
        # find the on-path link that pins, as the datapath would
        nodes = [src] + true_hops + [dst]
        pinning = None
        for a, b in zip(nodes, nodes[1:]):
            link = net.link_between(a, b)
            if planner.pins_path(src, dst, link):
                pinning = link
                break
        assert pinning is not None
        assert planner.switch_path(src, dst, pinning.vlan_id) == true_hops


class TestCaching:
    """Searches are counted by ``Network.path_searches``: one per BFS
    the shortest-path memo had to run."""

    def test_pins_cached(self):
        net = build_linear(3, 1)
        planner = CherryPickPlanner(net)
        link = net.link_between("S1", "S2")
        assert planner.pins_path("h1_0", "h3_0", link)
        assert net.path_searches == 1
        # every later question about the pair is answered by the plan
        assert planner.pins_path("h1_0", "h3_0", link)
        assert planner.pins_path("h1_0", "h3_0",
                                 net.link_between("S2", "S3"))
        assert planner.reconstruct_path("h1_0", "h3_0", link.vlan_id) == [
            "h1_0", "S1", "S2", "S3", "h3_0"]
        assert planner.decode_path("h1_0", "h3_0", link.vlan_id) == (
            ("S1", "S2", "S3"), 0)
        assert net.path_searches == 1

    def test_one_search_per_leaf_pair(self):
        """The mechanism, by count: host pairs behind the same two
        leaves share one plan, on the switch side and the host side,
        and every pair toward the same leaf shares one distance table."""
        leaves = 4
        net = build_leaf_spine(leaves, 2, 4)
        planner = CherryPickPlanner(net)
        hosts = net.host_names
        pairs = [(s, d) for s in hosts for d in hosts if s != d]
        assert len(pairs) >= 200
        uplinks = [l for l in net.links
                   if l.a.name in net.switches and l.b.name in net.switches]
        for src, dst in pairs:
            pinning = [l for l in uplinks if planner.pins_path(src, dst, l)]
            for link in pinning:
                planner.decode_path(src, dst, link.vlan_id)
        assert 0 < net.path_searches <= leaves
        assert 0 < len(net._spaths) <= leaves * leaves

    def test_topology_edit_drops_the_plans(self):
        """A plan made before a host was cabled must not outlive the
        cabling (the per-pair memos this replaced never expired)."""
        net = build_linear(3, 1)
        planner = CherryPickPlanner(net)
        link = net.link_between("S1", "S2")
        hx = net.add_host("hx")
        assert not planner.pins_path("h1_0", "hx", link)  # unreachable
        net.connect(hx, net.node("S3"))
        assert CherryPickPlanner(net).pins_path("h1_0", "hx", link)
        assert planner.pins_path("h1_0", "hx", link)
        assert planner.reconstruct_path("h1_0", "hx", link.vlan_id) == [
            "h1_0", "S1", "S2", "S3", "hx"]

    def test_link_flap_keeps_the_plans(self):
        """Plans derive from the physical graph: a port going down and
        up again changes routing, not which link pins which path."""
        net = build_leaf_spine(2, 2, 1)
        planner = CherryPickPlanner(net)
        link = net.link_between("leaf0", "spine1")
        assert planner.pins_path("h0_0", "h1_0", link)
        searches, version = net.path_searches, net.topology_version
        net.set_link_state("leaf0", "spine1", up=False)
        assert planner.pins_path("h0_0", "h1_0", link)
        net.set_link_state("leaf0", "spine1", up=True)
        assert planner.pins_path("h0_0", "h1_0", link)
        assert (net.path_searches, net.topology_version) == (
            searches, version)


class TestErrors:
    def test_unreachable_or_unknown_endpoint_does_not_pin(self):
        net = build_linear(3, 1)
        net.add_host("island")
        planner = CherryPickPlanner(net)
        link = net.link_between("S1", "S2")
        for src, dst in (("h1_0", "island"), ("island", "h3_0"),
                         ("h1_0", "nobody"), ("nobody", "h3_0")):
            assert not planner.pins_path(src, dst, link)
            with pytest.raises(TopologyError):
                planner.reconstruct_path(src, dst, link.vlan_id)

    def test_no_path_is_the_topologys_own_error(self):
        """The error contract is ``NoPathError`` — a ``TopologyError``
        naming both ends and telling unknown from unreachable — not
        whatever the search underneath happens to raise."""
        net = build_linear(3, 1)
        net.add_host("island")
        planner = CherryPickPlanner(net)
        link = net.link_between("S1", "S2")
        for ask in (net.shortest_paths, planner.embedding_hop,
                    lambda a, b: net.path_through_link(a, b, link)):
            for dst, unknown in (("nope", True), ("island", False)):
                with pytest.raises(NoPathError) as caught:
                    ask("h1_0", dst)
                err = caught.value
                assert isinstance(err, TopologyError)
                assert (err.src, err.dst, err.unknown) == (
                    "h1_0", dst, unknown)

    def test_unrelated_error_propagates(self, monkeypatch):
        """Only "no such path" means "does not pin"; anything else that
        goes wrong inside the search is a bug to surface."""
        net = build_linear(3, 1)
        planner = CherryPickPlanner(net)

        def broken(src, dst):
            raise RuntimeError("search blew up")

        monkeypatch.setattr(net, "attach_paths", broken)
        with pytest.raises(RuntimeError, match="search blew up"):
            planner.pins_path("h1_0", "h3_0", net.link_between("S1", "S2"))
