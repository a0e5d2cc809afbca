"""Pin the per-switch-pair path plans to a brute-force enumeration.

``CherryPickPlanner`` answers every question from one plan per
``Network.attach_pair`` (see docs/PERFORMANCE.md).  The oracle here
knows nothing of plans: it enumerates the shortest paths of each host
pair on the full graph and scans them for the link, the way the planner
did before.  Every host pair × every link must agree on the builders'
fabrics, where plans are shared through the attach switches.
"""
from __future__ import annotations

import itertools
from typing import Optional

import pytest

from repro.simnet.link import Link
from repro.simnet.topology import (
    Network,
    TopologyError,
    build_fat_tree,
    build_leaf_spine,
    build_linear,
    build_star,
)
from repro.switchd.cherrypick import CherryPickPlanner
from tests.simnet.oracles import all_shortest_paths, nx_graph


FABRICS = [
    pytest.param(lambda: build_leaf_spine(3, 2, 2), id="leaf_spine"),
    pytest.param(lambda: build_fat_tree(4), id="fat_tree"),
    pytest.param(lambda: build_linear(4, hosts_per_switch=2), id="linear"),
    pytest.param(lambda: build_star(5), id="star"),
]


def _oracle(net: Network, paths: list[list[str]], link: Link
            ) -> Optional[tuple[list[str], list[str], int]]:
    """(node path, switches, embedder index) iff ``link`` pins."""
    ends = {link.a.name, link.b.name}
    through = [(path, i) for path in paths
               for i in range(len(path) - 1)
               if {path[i], path[i + 1]} == ends]
    if len(through) != 1:
        return None
    path, i = through[0]
    switches = [n for n in path if n in net.switches]
    return path, switches, (switches.index(path[i])
                            if path[i] in net.switches else -1)


@pytest.mark.parametrize("build", FABRICS)
def test_every_pair_and_link_matches_brute_force(build):
    net = build()
    planner = CherryPickPlanner(net)
    graph = nx_graph(net)
    hosts = sorted(net.hosts)
    pinned = 0
    for src, dst in itertools.product(hosts, repeat=2):
        paths = all_shortest_paths(graph, src, dst)
        for link in net.links:
            want = _oracle(net, paths, link)
            where = (src, dst, link.endpoints)
            assert planner.pins_path(src, dst, link) == (
                want is not None), where
            if want is None:
                for decode in (planner.reconstruct_path,
                               planner.switch_path, planner.decode_path):
                    with pytest.raises(TopologyError):
                        decode(src, dst, link.vlan_id)
                continue
            pinned += 1
            path, switches, embed = want
            assert planner.reconstruct_path(
                src, dst, link.vlan_id) == path, where
            assert planner.switch_path(
                src, dst, link.vlan_id) == switches, where
            assert planner.decode_path(
                src, dst, link.vlan_id) == (tuple(switches), embed), where
    assert pinned


def test_answers_are_the_callers_own():
    """Mutating a returned path never reaches the plan behind it."""
    net = build_leaf_spine(2, 2, 2)
    planner = CherryPickPlanner(net)
    link = net.link_between("leaf0", "spine1")
    want = ["h0_0", "leaf0", "spine1", "leaf1", "h1_0"]
    for ask in (planner.reconstruct_path, planner.switch_path):
        first = ask("h0_0", "h1_0", link.vlan_id)
        first.append("mutated-by-caller")
        again = ask("h0_0", "h1_0", link.vlan_id)
        assert again == (want if ask == planner.reconstruct_path
                         else want[1:-1])
    # and another pair behind the same leaves is not handed h0_0's path
    assert planner.reconstruct_path("h0_1", "h1_1", link.vlan_id) == [
        "h0_1", "leaf0", "spine1", "leaf1", "h1_1"]
