"""Unit tests for the packet/flow model."""

import pytest

from repro.simnet.packet import (DEFAULT_MSS, DEFAULT_MTU, HEADER_BYTES,
                                 PRIO_HIGH, PRIO_LOW, PROTO_TCP, PROTO_UDP,
                                 FlowKey, Packet, make_tcp, make_udp)


class TestFlowKey:
    def test_reversed_swaps_endpoints(self):
        key = FlowKey("a", "b", 10, 20, PROTO_TCP)
        rev = key.reversed()
        assert rev == FlowKey("b", "a", 20, 10, PROTO_TCP)
        assert rev.reversed() == key

    def test_pretty_format(self):
        key = FlowKey("h1", "h2", 100, 200, PROTO_UDP)
        assert key.pretty() == "udp:h1:100->h2:200"

    def test_hashable_for_dict_keys(self):
        key = FlowKey("a", "b", 1, 2, PROTO_TCP)
        same = FlowKey("a", "b", 1, 2, PROTO_TCP)
        assert {key: 1}[same] == 1


class TestPacket:
    def test_positive_size_required(self):
        key = FlowKey("a", "b", 1, 2, PROTO_UDP)
        with pytest.raises(ValueError):
            Packet(flow=key, size=0)

    def test_src_dst_shortcuts(self):
        pkt = make_udp("src", "dst", 1, 2, 100)
        assert pkt.src == "src"
        assert pkt.dst == "dst"


class TestConstructors:
    def test_make_udp_defaults(self):
        pkt = make_udp("a", "b", 5, 6, 1500, priority=PRIO_HIGH)
        assert pkt.flow.proto == PROTO_UDP
        assert pkt.size == 1500
        assert pkt.priority == PRIO_HIGH
        assert pkt.payload_bytes == 1500 - HEADER_BYTES
        assert pkt.tcp is None

    def test_make_tcp_sizes_include_headers(self):
        pkt = make_tcp(FlowKey("a", "b", 5, 6, PROTO_TCP), payload=1000,
                       seq=42)
        assert pkt.size == 1000 + HEADER_BYTES
        assert pkt.payload_bytes == 1000
        assert pkt.tcp.seq == 42
        assert not pkt.tcp.is_ack

    def test_make_tcp_pure_ack(self):
        ack = make_tcp(FlowKey("b", "a", 6, 5, PROTO_TCP), payload=0,
                       ack=500, is_ack=True)
        assert ack.size == HEADER_BYTES
        assert ack.tcp.is_ack
        assert ack.tcp.ack == 500

    def test_mss_consistent_with_mtu(self):
        assert DEFAULT_MSS == DEFAULT_MTU - HEADER_BYTES

    def test_default_priority_low(self):
        assert make_udp("a", "b", 1, 2, 100).priority == PRIO_LOW
