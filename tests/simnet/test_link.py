"""Unit tests for links, interfaces, and the transmission model."""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.link import Link
from repro.simnet.packet import make_udp
from repro.simnet.queues import DropTailFIFO
from repro.simnet.topology import build_star


class Recorder:
    """Minimal Node: records (packet, time) arrivals."""

    def __init__(self, name, sim):
        self.name = name
        self.sim = sim
        self.got = []

    def receive(self, pkt, iface):
        self.got.append((pkt, self.sim.now))

    def attach(self, iface):
        pass


def make_pair(sim, rate_bps=1e9, prop=2e-6, **kw):
    a, b = Recorder("a", sim), Recorder("b", sim)
    link = Link(sim, a, b, rate_bps=rate_bps, propagation_delay=prop, **kw)
    return a, b, link


class TestTransmission:
    def test_delivery_latency_is_serialization_plus_propagation(self):
        sim = Simulator()
        a, b, link = make_pair(sim, rate_bps=1e9, prop=5e-6)
        pkt = make_udp("a", "b", 1, 2, 1250)  # 1250 B = 10 µs at 1 Gbps
        link.iface_a.send(pkt)
        sim.run()
        _, arrival = b.got[0]
        assert arrival == pytest.approx(10e-6 + 5e-6)

    def test_back_to_back_packets_serialize_sequentially(self):
        sim = Simulator()
        a, b, link = make_pair(sim, rate_bps=1e9, prop=0.0)
        for i in range(3):
            link.iface_a.send(make_udp("a", "b", i, 2, 1250))
        sim.run()
        times = [t for _, t in b.got]
        assert times == pytest.approx([10e-6, 20e-6, 30e-6])

    def test_full_duplex_directions_independent(self):
        sim = Simulator()
        a, b, link = make_pair(sim, rate_bps=1e9, prop=0.0)
        link.iface_a.send(make_udp("a", "b", 1, 2, 1250))
        link.iface_b.send(make_udp("b", "a", 2, 1, 1250))
        sim.run()
        assert len(a.got) == 1 and len(b.got) == 1
        assert a.got[0][1] == pytest.approx(10e-6)
        assert b.got[0][1] == pytest.approx(10e-6)

    def test_queue_overflow_drops_and_send_reports(self):
        sim = Simulator()
        a, b, link = make_pair(
            sim, queue_factory=lambda: DropTailFIFO(capacity_bytes=1500))
        assert link.iface_a.send(make_udp("a", "b", 1, 2, 1500))
        # transmitter grabbed the first packet; queue holds the second
        assert link.iface_a.send(make_udp("a", "b", 1, 2, 1500))
        assert not link.iface_a.send(make_udp("a", "b", 1, 2, 1500))
        sim.run()
        assert len(b.got) == 2

    def test_tx_counters(self):
        sim = Simulator()
        a, b, link = make_pair(sim)
        link.iface_a.send(make_udp("a", "b", 1, 2, 500))
        link.iface_a.send(make_udp("a", "b", 1, 2, 700))
        sim.run()
        assert link.iface_a.tx_packets == 2
        assert link.iface_a.tx_bytes == 1200

    def test_tx_taps_see_serialization_start(self):
        sim = Simulator()
        a, b, link = make_pair(sim, rate_bps=1e9, prop=0.0)
        taps = []
        link.iface_a.tx_taps += (lambda pkt, t: taps.append((pkt, t)),)
        p1 = make_udp("a", "b", 1, 2, 1250)
        p2 = make_udp("a", "b", 1, 2, 1250)
        link.iface_a.send(p1)
        link.iface_a.send(p2)
        sim.run()
        assert [p for p, _ in taps] == [p1, p2]
        assert taps[0][1] == pytest.approx(0.0)
        assert taps[1][1] == pytest.approx(10e-6)


class TestEventBudget:
    """One event per idle hop; one timer per port, only while one waits."""

    def test_spaced_packets_on_an_idle_link_cost_one_event_each(self):
        sim = Simulator()
        a, b, link = make_pair(sim, rate_bps=1e9, prop=2e-6)
        n = 7
        for i in range(n):   # 10 µs to serialize, offered every 20 µs
            sim.call_at(i * 20e-6, link.iface_a.send,
                        make_udp("a", "b", i, 2, 1250))
        sim.run()
        assert len(b.got) == n
        assert sim.events_processed == n + n   # the offers + the deliveries
        assert len(link.iface_a.queue) == 0

    def test_back_to_back_burst_costs_at_most_2n_minus_1(self):
        sim = Simulator()
        a, b, link = make_pair(sim)
        n = 9
        for i in range(n):
            assert link.iface_a.send(make_udp("a", "b", i, 2, 1250))
        sim.run()
        assert len(b.got) == n
        assert n <= sim.events_processed <= 2 * n - 1

    def test_a_port_never_holds_more_than_one_pending_timer(self):
        sim = Simulator()
        a, b, link = make_pair(sim, rate_bps=1e9, prop=0.0)
        for i in range(6):
            link.iface_a.send(make_udp("a", "b", i, 2, 1250))
        sent = 6
        # zero propagation: at most the delivery of the packet now
        # serializing is in flight, so anything beyond two pending
        # events would be a second _depart
        while len(sim._heap):
            assert len(sim._heap) <= 2
            sim.run(max_events=1)
            if sent < 12:   # arrivals at the very instant of a departure
                link.iface_a.send(make_udp("a", "b", sent, 2, 1250))
                sent += 1
                assert len(sim._heap) <= 2
        assert [p.flow.sport for p, _ in b.got] == list(range(12))
        assert not link.iface_a._armed

    def test_packet_queued_before_set_down_still_drains(self):
        sim = Simulator()
        a, b, link = make_pair(sim)
        first, queued, lost = (make_udp("a", "b", i, 2, 1250)
                               for i in range(3))
        assert link.iface_a.send(first)
        assert link.iface_a.send(queued)
        link.set_down()
        assert not link.iface_a.send(lost)
        sim.run()
        assert [p for p, _ in b.got] == [first, queued]
        assert link.iface_a.dropped_link_down == 1

    def test_first_packet_leaves_at_once_on_a_negative_clock(self):
        sim = Simulator(start_time=-1.0)
        a, b, link = make_pair(sim, rate_bps=1e9, prop=0.0)
        taps = []
        link.iface_a.tx_taps += (lambda pkt, t: taps.append(t),)
        link.iface_a.send(make_udp("a", "b", 1, 2, 1250))
        assert taps == [-1.0] and len(sim._heap) == 1
        sim.run()
        assert b.got[0][1] == pytest.approx(-1.0 + 10e-6)

    def test_departure_due_now_is_served_before_the_arrival_is_judged(self):
        sim = Simulator()
        a, b, link = make_pair(
            sim, rate_bps=1e9, prop=0.0,
            queue_factory=lambda: DropTailFIFO(capacity_bytes=1250))
        iface = link.iface_a
        # scheduled before the port's timer exists, due at the instant the
        # first packet leaves: scheduling order would judge it against a
        # full buffer; the rule lets the waiting packet leave first
        verdicts = []
        sim.call_at(1250 * 8 / 1e9,
                    lambda _: verdicts.append(
                        iface.send(make_udp("a", "b", 2, 2, 1250))))
        iface.send(make_udp("a", "b", 0, 2, 1250))   # serializing
        iface.send(make_udp("a", "b", 1, 2, 1250))   # fills the buffer
        assert iface.busy_until == 1250 * 8 / 1e9
        sim.run()
        assert verdicts == [True]
        assert [p.flow.sport for p, _ in b.got] == [0, 1, 2]
        assert iface.queue.dropped == 0


class TestLinkWiring:
    def test_iface_of_and_peer_of(self):
        sim = Simulator()
        a, b, link = make_pair(sim)
        assert link.iface_of(a) is link.iface_a
        assert link.iface_of(b) is link.iface_b
        assert link.peer_of(a) is b

    def test_foreign_node_rejected(self):
        sim = Simulator()
        a, b, link = make_pair(sim)
        stranger = Recorder("x", sim)
        with pytest.raises(ValueError):
            link.iface_of(stranger)
        with pytest.raises(ValueError):
            link.peer_of(stranger)

    def test_invalid_parameters(self):
        sim = Simulator()
        a, b = Recorder("a", sim), Recorder("b", sim)
        with pytest.raises(ValueError):
            Link(sim, a, b, rate_bps=0)
        with pytest.raises(ValueError):
            Link(sim, a, b, propagation_delay=-1e-6)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("param", ["rate_bps", "propagation_delay"])
    def test_non_finite_parameters_are_rejected(self, param, value):
        # used to be accepted, then fail at the first packet with an
        # engine error about a non-finite event time
        sim = Simulator()
        a, b = Recorder("a", sim), Recorder("b", sim)
        with pytest.raises(ValueError, match=param):
            Link(sim, a, b, **{param: value})

    def test_vlan_ids_are_network_local(self):
        # a link's identity is its network's wire id, not how many links
        # the process built before
        first, second = build_star(3), build_star(3)
        assert [link.vlan_id for link in first.links] == [0, 1, 2]
        assert ([link.vlan_id for link in second.links]
                == [link.vlan_id for link in first.links])
        assert not hasattr(first.links[0], "link_id")
