"""Unit tests for the switch dataplane device."""

import pytest

from repro.simnet.device import Switch, _flow_hash
from repro.simnet.engine import Simulator
from repro.simnet.host import Host
from repro.simnet.link import Link
from repro.simnet.packet import FlowKey, PROTO_UDP, make_udp
from repro.simnet.topology import Network
from tests.simnet.trajectory import Trajectories


def tiny_net():
    """h_a -- S -- h_b, plus a second S->h_b parallel path via S2."""
    net = Network()
    s = net.add_switch("S")
    ha = net.add_host("ha")
    hb = net.add_host("hb")
    net.connect(ha, s)
    net.connect(hb, s)
    net.compute_routes()
    return net


class TestForwarding:
    def test_packet_forwarded_to_destination(self):
        net = tiny_net()
        got = []
        net.hosts["hb"].bind(PROTO_UDP, 9, lambda p, t: got.append(p))
        net.hosts["ha"].send(make_udp("ha", "hb", 1, 9, 500))
        net.run()
        assert len(got) == 1
        assert net.switches["S"].forwarded == 1

    def test_no_route_drops_counted(self):
        net = tiny_net()
        sw = net.switches["S"]
        sw.forward(make_udp("ha", "nowhere", 1, 9, 500), in_iface=None)
        assert sw.no_route_drops == 1
        assert sw.forwarded == 0

    def test_hop_recorded(self):
        net = tiny_net()
        trail = Trajectories(net)
        caught = []
        net.hosts["hb"].sniffers.append(lambda h, p, t: caught.append(p))
        net.hosts["ha"].send(make_udp("ha", "hb", 1, 9, 500))
        net.run()
        assert trail.of(caught[0]) == ["S"]

    def test_pipeline_hooks_called_with_interfaces(self):
        net = tiny_net()
        sw = net.switches["S"]
        seen = []
        sw.pipeline.append(
            lambda s, p, i, o: seen.append((s.name, o.peer_node.name)))
        net.hosts["ha"].send(make_udp("ha", "hb", 1, 9, 500))
        net.run()
        assert seen == [("S", "hb")]


class TestEcmp:
    def build_ecmp(self):
        """Two parallel S1->S2 links: two candidates for dst hosts."""
        net = Network()
        s1 = net.add_switch("S1")
        s2 = net.add_switch("S2")
        net.connect(s1, s2)
        net.connect(s1, s2)
        tx = net.add_host("tx")
        rx = net.add_host("rx")
        net.connect(tx, s1)
        net.connect(rx, s2)
        net.compute_routes()
        return net

    def test_flow_stays_on_one_path(self):
        net = self.build_ecmp()
        s1 = net.switches["S1"]
        chosen = []
        s1.pipeline.append(lambda s, p, i, o: chosen.append(id(o)))
        for _ in range(10):
            net.hosts["tx"].send(make_udp("tx", "rx", 5, 9, 500))
        net.run()
        assert len(set(chosen)) == 1  # per-flow consistency

    def test_different_flows_can_split(self):
        net = self.build_ecmp()
        s1 = net.switches["S1"]
        chosen = {}
        s1.pipeline.append(
            lambda s, p, i, o: chosen.setdefault(p.flow.sport, id(o)))
        for sport in range(40):
            net.hosts["tx"].send(make_udp("tx", "rx", sport, 9, 500))
        net.run()
        assert len(set(chosen.values())) == 2  # both links used

    def test_flow_hash_deterministic(self):
        key = FlowKey("a", "b", 1, 2, PROTO_UDP)
        assert _flow_hash(key) == _flow_hash(FlowKey("a", "b", 1, 2,
                                                     PROTO_UDP))

    def test_forwarding_override_wins(self):
        net = self.build_ecmp()
        s1 = net.switches["S1"]
        routes = s1.routes_for("rx")
        target = routes[1]
        s1.forwarding_override = lambda pkt, cands: target
        chosen = []
        s1.pipeline.append(lambda s, p, i, o: chosen.append(o))
        for sport in range(10):
            net.hosts["tx"].send(make_udp("tx", "rx", sport, 9, 500))
        net.run()
        assert all(o is target for o in chosen)

    def test_flow_hash_memo_belongs_to_the_network(self):
        """Every switch of a network shares one memo; a standalone
        switch has its own, and another network never sees either."""
        net = self.build_ecmp()
        s1, s2 = net.switches["S1"], net.switches["S2"]
        assert s1.flow_hashes is s2.flow_hashes is net.flow_hashes
        net.hosts["tx"].send(make_udp("tx", "rx", 5, 9, 500))
        net.run()
        key = FlowKey("tx", "rx", 5, 9, PROTO_UDP)
        assert net.flow_hashes == {key: _flow_hash(key)}
        assert self.build_ecmp().flow_hashes == {}
        assert Switch(Simulator(), "S").flow_hashes == {}

    def test_forwarding_leaves_no_module_state_behind(self):
        """Two incasts in one process: nothing held by the device
        module grows (a sweep or experiment worker runs cell after
        cell, and each network's flows must die with it)."""
        import repro.simnet.device as device
        from repro.core.rng import seed_run
        from repro.scenarios import run_scenario

        def sizes():
            return {name: len(value) for name, value in vars(device).items()
                    if isinstance(value, (dict, list, set))}

        seed_run(1)
        run_scenario("incast", hosts=32, bg_flows=50)
        before = sizes()
        seed_run(2)
        run_scenario("incast", hosts=32, bg_flows=50)
        assert sizes() == before

    def test_override_none_falls_back_to_ecmp(self):
        net = self.build_ecmp()
        s1 = net.switches["S1"]
        s1.forwarding_override = lambda pkt, cands: None
        got = []
        net.hosts["rx"].bind(PROTO_UDP, 9, lambda p, t: got.append(p))
        net.hosts["tx"].send(make_udp("tx", "rx", 1, 9, 500))
        net.run()
        assert len(got) == 1


class TestRouteTable:
    def test_attach_rejects_foreign_interface(self):
        sim = Simulator()
        sw1 = Switch(sim, "S1")
        sw2 = Switch(sim, "S2")
        h = Host(sim, "h")
        link = Link(sim, sw1, h)
        with pytest.raises(ValueError):
            sw2.attach(link.iface_of(sw1))

    def test_set_routes_replaces_the_candidate_set(self):
        sim = Simulator()
        sw = Switch(sim, "S")
        peer = Host(sim, "h")
        link = Link(sim, sw, peer)
        iface = link.iface_of(sw)
        sw.attach(iface)
        sw.set_routes("h", (iface, iface))
        sw.set_routes("h", (iface,))
        assert sw.routes_for("h") == [iface]

    def test_host_route_wins_over_rack_route(self):
        sim = Simulator()
        sw = Switch(sim, "S")
        up = Link(sim, sw, Switch(sim, "R")).iface_of(sw)
        down = Link(sim, sw, Host(sim, "h")).iface_of(sw)
        sw.attach(up)
        sw.attach(down)
        sw.set_rack_routes({"h": "R", "g": "R"}, {"R": (up,)})
        assert sw.routes_for("g") == [up]
        assert sw.routes_for("h") == [up]
        sw.set_routes("h", (down,))
        assert sw.routes_for("h") == [down]
        assert sw.routes_for("g") == [up]
        assert sw.routes_for("ghost") == []

    def test_clear_routes(self):
        sim = Simulator()
        sw = Switch(sim, "S")
        h = Host(sim, "h")
        link = Link(sim, sw, h)
        sw.attach(link.iface_of(sw))
        sw.set_routes("h", (link.iface_of(sw),))
        sw.clear_routes()
        assert sw.routes_for("h") == []
