"""Unit tests for the end-host model."""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.host import Host
from repro.simnet.link import Link
from repro.simnet.packet import PROTO_TCP, PROTO_UDP, make_udp
from repro.simnet.topology import Network


def pair():
    net = Network()
    a = net.add_host("a")
    b = net.add_host("b")
    sw = net.add_switch("S")
    net.connect(a, sw)
    net.connect(b, sw)
    net.compute_routes()
    return net, a, b


class TestSockets:
    def test_bind_and_deliver(self):
        net, a, b = pair()
        got = []
        b.bind(PROTO_UDP, 50, lambda p, t: got.append((p, t)))
        a.send(make_udp("a", "b", 1, 50, 500))
        net.run()
        assert len(got) == 1

    def test_unbound_port_counts_undeliverable(self):
        net, a, b = pair()
        a.send(make_udp("a", "b", 1, 50, 500))
        net.run()
        assert b.undeliverable == 1

    def test_double_bind_rejected(self):
        _, a, _ = pair()
        a.bind(PROTO_UDP, 50, lambda p, t: None)
        with pytest.raises(ValueError):
            a.bind(PROTO_UDP, 50, lambda p, t: None)

    def test_same_port_different_proto_ok(self):
        _, a, _ = pair()
        a.bind(PROTO_UDP, 50, lambda p, t: None)
        a.bind(PROTO_TCP, 50, lambda p, t: None)


class TestSniffers:
    def test_sniffers_run_before_sockets(self):
        net, a, b = pair()
        order = []
        b.sniffers.append(lambda h, p, t: order.append("sniff"))
        b.bind(PROTO_UDP, 50, lambda p, t: order.append("sock"))
        a.send(make_udp("a", "b", 1, 50, 500))
        net.run()
        assert order == ["sniff", "sock"]

    def test_sniffers_see_undeliverable_packets_too(self):
        net, a, b = pair()
        seen = []
        b.sniffers.append(lambda h, p, t: seen.append(p))
        a.send(make_udp("a", "b", 1, 99, 500))
        net.run()
        assert len(seen) == 1


class TestCounters:
    def test_tx_rx_accounting(self):
        net, a, b = pair()
        b.bind(PROTO_UDP, 50, lambda p, t: None)
        a.send(make_udp("a", "b", 1, 50, 700))
        net.run()
        assert a.tx_packets == 1 and a.tx_bytes == 700
        assert b.rx_packets == 1 and b.rx_bytes == 700

    def test_send_stamps_created_at(self):
        net, a, b = pair()
        net.sim.schedule(0.5, lambda: a.send(make_udp("a", "b", 1, 50, 100)))
        caught = []
        b.sniffers.append(lambda h, p, t: caught.append(p.created_at))
        net.run()
        assert caught == [0.5]

    def test_send_without_nic_raises(self):
        host = Host(Simulator(), "lonely")
        with pytest.raises(RuntimeError):
            host.send(make_udp("lonely", "x", 1, 2, 100))

    def test_second_nic_rejected(self):
        sim = Simulator()
        h = Host(sim, "h")
        other = Host(sim, "o")
        third = Host(sim, "t")
        l1 = Link(sim, h, other)
        h.attach(l1.iface_of(h))
        l2 = Link(sim, h, third)
        with pytest.raises(ValueError):
            h.attach(l2.iface_of(h))
