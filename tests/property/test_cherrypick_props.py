"""Property tests: CherryPick reconstruction is exact on clos fabrics.

For any host pair and any packet actually forwarded, the trajectory
reconstructed from (src, dst, picked link) must equal the switches the
packet truly traversed — the §4.1.3 correctness claim.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simnet.packet import PROTO_UDP, make_udp
from repro.simnet.topology import build_fat_tree, build_leaf_spine
from repro.switchd.cherrypick import CherryPickPlanner
from tests.simnet.trajectory import Trajectories


@pytest.fixture(scope="module")
def fat_tree():
    net = build_fat_tree(4)
    return net, CherryPickPlanner(net), sorted(net.hosts), Trajectories(net)


@pytest.fixture(scope="module")
def leaf_spine():
    net = build_leaf_spine(4, 3, 2)
    return net, CherryPickPlanner(net), sorted(net.hosts), Trajectories(net)


def send_and_reconstruct(net, planner, trail, src, dst, sport):
    got = []
    def handler(p, t):
        got.append(p)
    net.hosts[dst].bind(PROTO_UDP, 20_000 + sport, handler)
    try:
        net.hosts[src].send(make_udp(src, dst, sport,
                                     20_000 + sport, 400))
        net.run()
    finally:
        net.hosts[dst]._sockets.pop((PROTO_UDP, 20_000 + sport), None)
    assert got, "packet must arrive"
    true_hops = trail.of(got[0])
    nodes = [src] + true_hops + [dst]
    pinning = None
    for a, b in zip(nodes, nodes[1:]):
        link = net.link_between(a, b)
        if planner.pins_path(src, dst, link):
            pinning = link
            break
    assert pinning is not None, "some on-path link must pin on clos"
    return true_hops, planner.switch_path(src, dst, pinning.vlan_id)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_fat_tree_reconstruction_exact(fat_tree, data):
    net, planner, hosts, trail = fat_tree
    src = data.draw(st.sampled_from(hosts), label="src")
    dst = data.draw(st.sampled_from([h for h in hosts if h != src]),
                    label="dst")
    sport = data.draw(st.integers(min_value=1, max_value=5000))
    true_hops, reconstructed = send_and_reconstruct(net, planner, trail, src,
                                                    dst, sport)
    assert reconstructed == true_hops


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_leaf_spine_reconstruction_exact(leaf_spine, data):
    net, planner, hosts, trail = leaf_spine
    src = data.draw(st.sampled_from(hosts), label="src")
    dst = data.draw(st.sampled_from([h for h in hosts if h != src]),
                    label="dst")
    sport = data.draw(st.integers(min_value=1, max_value=5000))
    true_hops, reconstructed = send_and_reconstruct(net, planner, trail, src,
                                                    dst, sport)
    assert reconstructed == true_hops
