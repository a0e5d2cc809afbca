"""Unit tests for the end-host model."""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.host import Host
from repro.simnet.link import Link
from repro.simnet.packet import (PROTO_TCP, PROTO_UDP, FlowKey, make_tcp,
                                 make_udp)
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


def bind_block(host, proto, lo, hi, handler):
    host.bind_blocks(((proto, lo, hi, handler),))


class TestPortBlocks:
    """A block binds a port range to one handler; the exact socket table
    is looked up first and the two never overlap."""

    def test_block_delivers_inside_and_misses_outside(self):
        net, a, b = pair()
        got = []
        bind_block(b, PROTO_UDP, 100, 110, lambda p, t: got.append(p))
        for dport in (99, 100, 105, 109, 110):
            a.send(make_udp("a", "b", 1, dport, 500))
        a.send(make_tcp(FlowKey("a", "b", 1, 105, PROTO_TCP), payload=10))
        net.run()
        assert [p.flow.dport for p in got] == [100, 105, 109]
        assert b.undeliverable == 3
        assert b.rx_packets == 6

    def test_exact_socket_wins_over_a_block(self):
        """Exact sockets beside a block, or inside its range on another
        protocol, get their own packets, never the block's handler."""
        net, a, b = pair()
        got = []
        bind_block(b, PROTO_UDP, 100, 110,
                     lambda p, t: got.append(("block", p.flow.dport)))
        b.bind(PROTO_UDP, 110, lambda p, t: got.append(("udp", 110)))
        b.bind(PROTO_TCP, 105, lambda p, t: got.append(("tcp", 105)))
        a.send(make_udp("a", "b", 1, 110, 500))
        a.send(make_tcp(FlowKey("a", "b", 1, 105, PROTO_TCP), payload=10))
        a.send(make_udp("a", "b", 1, 105, 500))
        net.run()
        assert got == [("udp", 110), ("tcp", 105), ("block", 105)]
        assert b.undeliverable == 0

    def test_a_block_over_a_bound_port_is_refused(self):
        _, a, _ = pair()
        a.bind(PROTO_UDP, 105, lambda p, t: None)
        with pytest.raises(ValueError, match=r"\(17, 105\).* on a$"):
            bind_block(a, PROTO_UDP, 100, 110, lambda p, t: None)
        # the refused block left nothing behind
        a.bind(PROTO_UDP, 100, lambda p, t: None)

    def test_a_bind_into_a_block_is_refused(self):
        _, a, _ = pair()
        bind_block(a, PROTO_UDP, 100, 110, lambda p, t: None)
        with pytest.raises(ValueError, match=r"\(17, 109\).* on a$"):
            a.bind(PROTO_UDP, 109, lambda p, t: None)

    def test_overlapping_blocks_are_refused(self):
        _, a, _ = pair()
        bind_block(a, PROTO_UDP, 100, 110, lambda p, t: None)
        # the error names the first port both blocks would serve
        with pytest.raises(ValueError, match=r"\(17, 100\).* on a$"):
            bind_block(a, PROTO_UDP, 90, 101, lambda p, t: None)
        with pytest.raises(ValueError, match=r"\(17, 108\).* on a$"):
            bind_block(a, PROTO_UDP, 108, 115, lambda p, t: None)
        with pytest.raises(ValueError, match=r"\(17, 102\).* on a$"):
            bind_block(a, PROTO_UDP, 102, 104, lambda p, t: None)
        # adjacent blocks, and the same range on another protocol, fit
        bind_block(a, PROTO_UDP, 110, 120, lambda p, t: None)
        bind_block(a, PROTO_TCP, 100, 110, lambda p, t: None)

    def test_hosts_bound_alike_share_one_tuple(self):
        """A host with no block keeps the tuple it is given; a later
        block makes it a tuple of its own, which no other host sees."""
        _, a, b = pair()
        assert a._blocks is b._blocks == ()
        blocks = ((PROTO_UDP, 100, 110, lambda p, t: None),)
        a.bind_blocks(blocks)
        b.bind_blocks(blocks)
        assert a._blocks is b._blocks is blocks
        bind_block(a, PROTO_UDP, 110, 120, lambda p, t: None)
        assert len(a._blocks) == 2 and b._blocks is blocks

    def test_a_refused_tuple_binds_none_of_its_blocks(self):
        _, a, _ = pair()
        a.bind(PROTO_UDP, 205, lambda p, t: None)
        with pytest.raises(ValueError, match=r"\(17, 205\)"):
            a.bind_blocks(((PROTO_UDP, 100, 110, lambda p, t: None),
                           (PROTO_UDP, 200, 210, lambda p, t: None)))
        assert a._blocks == ()
        with pytest.raises(ValueError, match=r"\(17, 105\)"):
            a.bind_blocks(((PROTO_UDP, 100, 110, lambda p, t: None),
                           (PROTO_UDP, 105, 108, lambda p, t: None)))
        assert a._blocks == ()


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
