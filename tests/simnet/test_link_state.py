"""Tests for link liveness, routing reconvergence, and fault hooks
(the simnet primitives behind the link-flap and gray-failure
scenarios)."""

import pytest

from repro.faults import FAULTS, FaultContext, FaultError, FaultPlan
from repro.simnet.packet import PROTO_UDP, FlowKey, _flow_hash, make_udp
from repro.simnet.topology import Network, build_linear
from tests.simnet.oracles import nx_graph


def diamond() -> Network:
    """S1—{SPA,SPB}—S2 with one host pair."""
    net = Network()
    s1 = net.add_switch("S1")
    spa = net.add_switch("SPA")
    spb = net.add_switch("SPB")
    s2 = net.add_switch("S2")
    for spine in (spa, spb):
        net.connect(s1, spine)
        net.connect(spine, s2)
    tx = net.add_host("tx")
    rx = net.add_host("rx")
    net.connect(tx, s1)
    net.connect(rx, s2)
    net.compute_routes()
    return net


class TestLinkState:
    def test_down_link_drops_sends(self):
        net = build_linear(2, 1)
        link = net.link_between("S1", "S2")
        link.set_down()
        net.hosts["h1_0"].send(make_udp("h1_0", "h2_0", 1, 9, 400))
        net.run()
        iface = link.iface_of(net.switches["S1"])
        assert iface.dropped_link_down == 1
        assert link.down_drops == 1
        assert net.hosts["h2_0"].rx_packets == 0

    def test_up_link_delivers_again(self):
        net = build_linear(2, 1)
        link = net.link_between("S1", "S2")
        link.set_down()
        link.set_up()
        net.hosts["h1_0"].send(make_udp("h1_0", "h2_0", 1, 9, 400))
        net.run()
        assert net.hosts["h2_0"].rx_packets == 1

    def test_reconverge_routes_around_down_link(self):
        net = diamond()
        assert len(net.switches["S1"].routes_for("rx")) == 2
        net.set_link_state("S1", "SPA", False)
        routes = net.switches["S1"].routes_for("rx")
        assert len(routes) == 1
        assert routes[0].peer_node.name == "SPB"
        # traffic flows via the survivor
        net.hosts["tx"].send(make_udp("tx", "rx", 1, 9, 400))
        net.run()
        assert net.hosts["rx"].rx_packets == 1

    def test_no_reconverge_leaves_blackhole(self):
        net = diamond()
        net.set_link_state("S1", "SPA", False, reconverge_delay=1.0)
        # ECMP may still pick the dead link: find a flow hashed to SPA
        candidates = net.switches["S1"].routes_for("rx")
        sport = 1
        while True:
            key = FlowKey("tx", "rx", sport, 9, PROTO_UDP)
            if candidates[_flow_hash(key) % 2].peer_node.name == "SPA":
                break
            sport += 1
        net.hosts["tx"].send(make_udp("tx", "rx", sport, 9, 400))
        net.run()
        assert net.hosts["rx"].rx_packets == 0
        assert net.link_between("S1", "SPA").down_drops == 1

    def test_restore_recovers_both_paths(self):
        net = diamond()
        net.set_link_state("S1", "SPA", False)
        net.set_link_state("S1", "SPA", True)
        assert len(net.switches["S1"].routes_for("rx")) == 2

    def test_live_graph_excludes_down_links(self):
        net = diamond()
        net.link_between("S1", "SPA").set_down()
        assert not nx_graph(net, live=True).has_edge("S1", "SPA")
        # the physical topology keeps the edge
        assert nx_graph(net).has_edge("S1", "SPA")
        assert "SPA" in net.adjacency["S1"]


class TestSwitchFaultHooks:
    def test_drop_filter_is_silent(self):
        net = build_linear(3, 1)
        victim = FlowKey("h1_0", "h3_0", 1, 9, PROTO_UDP)
        s2 = net.switches["S2"]
        s2.drop_filter = lambda pkt: pkt.flow == victim
        net.hosts["h1_0"].send(make_udp("h1_0", "h3_0", 1, 9, 400))
        net.hosts["h1_0"].send(make_udp("h1_0", "h3_0", 2, 9, 400))
        net.run()
        assert s2.gray_drops == 1
        assert net.hosts["h3_0"].rx_packets == 1  # the other flow passes
        # a silently dropped packet is never counted as forwarded at S2
        assert s2.forwarded == 1

    def test_ecmp_hash_hook_polarizes(self):
        net = diamond()
        net.switches["S1"].ecmp_hash = lambda flow: 0
        for sport in range(1, 9):
            net.hosts["tx"].send(make_udp("tx", "rx", sport, 9, 400))
        net.run()
        s1 = net.switches["S1"]
        spa = net.link_between("S1", "SPA").iface_of(s1)
        spb = net.link_between("S1", "SPB").iface_of(s1)
        assert spa.tx_packets == 8 and spb.tx_packets == 0


class TestLinkFlapFault:
    """The ``link-flap`` fault's down/up chain on the diamond's S1—SPA."""

    def _flap(self, net, **params):
        params = {"a": "S1", "b": "SPA", "start": 0.001, "down_for": 0.002,
                  "up_for": 0.002, "reconverge_delay": 0.0, **params}
        plan = FaultPlan()
        fault = plan.add_named("link-flap", **params)
        ctx = FaultContext(net)
        plan.schedule(ctx)
        return fault, ctx

    def _record_transitions(self, net):
        seen = []
        flip = net.set_link_state

        def recording(a, b, up, **kw):
            seen.append(("up" if up else "down", round(net.sim.now, 6)))
            return flip(a, b, up, **kw)

        net.set_link_state = recording
        return seen

    def test_transitions_alternate_with_their_dwells(self):
        net = diamond()
        seen = self._record_transitions(net)
        fault, _ = self._flap(net, up_for=0.003)
        net.run(until=0.012)
        assert seen == [("down", 0.001), ("up", 0.003), ("down", 0.006),
                        ("up", 0.008), ("down", 0.011)]
        assert fault.flaps == 2

    def test_flap_cycle_counts(self):
        net = diamond()
        seen = self._record_transitions(net)
        fault, _ = self._flap(net)
        net.run(until=0.0095)
        # transitions at 1,3,5,7,9 ms: down,up,down,up,down
        assert [t for _, t in seen] == [0.001, 0.003, 0.005, 0.007, 0.009]
        assert [s for s, _ in seen].count("down") == 3
        assert fault.flaps == 2
        assert not net.link_between("S1", "SPA").up

    def test_finalize_halts_the_chain(self):
        net = diamond()
        seen = self._record_transitions(net)
        fault, ctx = self._flap(net, start=0.0, down_for=0.001,
                                up_for=0.001)
        net.run(until=0.0035)
        fault.finalize(ctx)
        processed = net.sim.events_processed
        net.run(until=0.010)
        assert [s for s, _ in seen] == ["down", "up", "down", "up"]
        assert net.sim.events_processed == processed
        assert net.link_between("S1", "SPA").up

    def test_heal_halts_the_chain_and_restores_the_link(self):
        net = diamond()
        seen = self._record_transitions(net)
        fault, _ = self._flap(net, stop=0.004)
        net.run(until=0.020)
        # down 1, up 3, heal 4 (link already up: no transition)
        assert seen == [("down", 0.001), ("up", 0.003)]
        assert fault.flaps == 1
        assert net.link_between("S1", "SPA").up

    def test_heal_mid_outage_brings_the_link_back(self):
        net = diamond()
        self._flap(net, stop=0.002)
        net.run(until=0.020)
        assert net.link_between("S1", "SPA").up
        assert len(net.switches["S1"].routes_for("rx")) == 2

    def test_reconverge_delay_defers_rerouting(self):
        net = diamond()
        self._flap(net, down_for=0.004, up_for=0.004,
                   reconverge_delay=0.002)
        net.run(until=0.002)   # down at 1 ms; reconverge due at 3 ms
        assert not net.link_between("S1", "SPA").up
        assert len(net.switches["S1"].routes_for("rx")) == 2
        net.run(until=0.0035)  # reconvergence happened
        assert len(net.switches["S1"].routes_for("rx")) == 1

    @pytest.mark.parametrize("param", ["down_for", "up_for"])
    @pytest.mark.parametrize("value", [0.0, -0.001])
    def test_rejects_nonpositive_dwell_at_construction(self, param, value):
        with pytest.raises(FaultError, match=param):
            FAULTS.get("link-flap")(a="S1", b="SPA", **{param: value})
