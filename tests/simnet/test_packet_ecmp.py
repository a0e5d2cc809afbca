"""Every packet carries its flow's ECMP hash, and switches route by it.

A flow's owner hashes its key once and hands the value to each packet
(``Packet.ecmp``); no switch or network keeps a per-flow hash.  These
tests run every packet creator of the simulator on one k=4 fat-tree —
a UDP CBR source, a TCP sender and its receiver's ACKs, the background
emitter, and ``make_udp``/``make_tcp`` with no hash given — and check
that each delivered packet carries ``_flow_hash(flow)`` and crossed
exactly the switches the brute-force ECMP walk of
``tests/integration/test_fat_tree_full_loop.py`` predicts.
"""

import pytest

from repro.simnet.packet import (PROTO_TCP, FlowKey, _flow_hash, make_tcp,
                                 make_udp)
from repro.simnet.tcp import open_tcp_flow
from repro.simnet.topology import build_fat_tree
from repro.simnet.traffic import UdpCbrSource, UdpSink
from repro.simnet.workload import WorkloadGenerator, WorkloadSpec
from tests.integration.test_fat_tree_full_loop import predict_path
from tests.simnet.trajectory import Trajectories

BG_PORT = 40_000


@pytest.fixture(scope="module")
def delivered():
    """Every packet any host received, by the creator that built it."""
    net = build_fat_tree(4)
    paths = Trajectories(net)
    got = []
    for host in net.hosts.values():
        host.sniffers.append(lambda h, pkt, now: got.append(pkt))
    sim = net.sim
    UdpSink(net.hosts["h3_1_1"], 7000)
    UdpCbrSource(sim, net.hosts["h0_0_0"], "h3_1_1", sport=7000,
                 dport=7000, rate_bps=1e8, start=0.0, duration=0.0005)
    sender, _ = open_tcp_flow(sim, net.hosts["h0_1_0"], net.hosts["h2_0_1"],
                              sport=100, dport=200, total_bytes=30_000)
    sender.start()
    WorkloadGenerator(
        net, WorkloadSpec(n_flows=60, spread_s=0.001, mean_flow_bytes=3_000,
                          min_flow_bytes=300, max_flow_bytes=9_000,
                          flow_rate_bps=1e8, seed=7),
        base_port=BG_PORT).launch()
    for sport in range(8):
        net.hosts["h1_0_0"].send(make_udp("h1_0_0", "h3_0_1", sport, 9, 400))
        net.hosts["h1_1_1"].send(make_tcp(
            FlowKey("h1_1_1", "h2_1_0", sport, 9, PROTO_TCP), payload=100))
    net.run()
    assert sender.done

    def creator(flow):
        if flow.proto == PROTO_TCP:
            return "tcp-data" if flow.dport == 200 else (
                "tcp-ack" if flow.sport == 200 else "make_tcp")
        if flow.sport >= BG_PORT:
            return "background"
        return "cbr" if flow.sport == 7000 else "make_udp"

    by_creator = {}
    for pkt in got:
        by_creator.setdefault(creator(pkt.flow), []).append(pkt)
    return net, paths, by_creator


CREATORS = ["cbr", "tcp-data", "tcp-ack", "background", "make_udp",
            "make_tcp"]


@pytest.mark.parametrize("creator", CREATORS)
def test_every_packet_carries_its_flows_hash(delivered, creator):
    _, _, by_creator = delivered
    pkts = by_creator[creator]
    assert pkts
    assert all(pkt.ecmp == _flow_hash(pkt.flow) for pkt in pkts)


@pytest.mark.parametrize("creator", CREATORS)
def test_egress_choices_match_the_brute_force_walk(delivered, creator):
    net, paths, by_creator = delivered
    predicted = {}
    for pkt in by_creator[creator]:
        if pkt.flow not in predicted:
            predicted[pkt.flow] = predict_path(net, pkt.flow)
        assert paths.of(pkt) == predicted[pkt.flow]
    # the walks really branch: flows of one creator take several paths
    if creator == "background":
        assert len({tuple(p) for p in predicted.values()}) > 4


def test_the_fabric_holds_no_per_flow_state(delivered):
    """After the run no switch or network attribute is keyed by flow,
    and background receivers hold one block, no socket per flow."""
    net, _, by_creator = delivered
    flows = {pkt.flow for pkts in by_creator.values() for pkt in pkts}
    for owner in (net, *net.switches.values()):
        for value in vars(owner).values():
            if isinstance(value, dict):
                assert not flows & set(value), owner
    for host in net.hosts.values():
        assert all(port < BG_PORT for _, port in host._sockets)
        assert len(host._blocks) <= 1
    assert any(host._blocks for host in net.hosts.values())
