"""65k-host scale smoke: the fabric the nightly top end runs on.

The incast-scale nightly grid tops out at hosts=65536 (64 leaves x
1024 hosts/leaf, 16 spines).  This tier-1 smoke pins the part every
scale point pays unconditionally — fabric construction plus full route
computation — under a wall-time budget, so a routing or topology
regression shows up in CI as a slow test here rather than as a blown
nightly budget.  The full scenario at that population (with the 100k
background flows) is the skip-marked variant below; the nightly run table
runs it for real.
"""

import time

import pytest

from repro.simnet.topology import build_leaf_spine
from tests.simnet.oracles import route_entries

# measured 0.62-0.64 s and 116 MB resident on one dev-container core
# (65536 hosts and access links to create; routes are one entry per rack
# per switch plus one per attached host; a port is two slotted objects
# and no buffer until it carries a packet); the budget leaves headroom
# for slower CI machines without letting a per-(switch, host)
# regression hide
N_LEAVES, N_SPINES, PER_LEAF = 64, 16, 1024
BUILD_BUDGET_S = 15.0


def test_65k_fabric_builds_and_routes_within_budget():
    start = time.perf_counter()
    net = build_leaf_spine(N_LEAVES, N_SPINES, PER_LEAF)
    elapsed = time.perf_counter() - start
    assert len(net.hosts) == N_LEAVES * PER_LEAF == 65536
    assert len(net.switches) == N_LEAVES + N_SPINES
    # routes are installed for every reachable destination, not lazily:
    # spot-check the corners (first/last host on first/last leaf)
    hosts = sorted(net.hosts)
    for sw_name in ("leaf0", f"leaf{N_LEAVES - 1}", "spine0"):
        sw = net.switches[sw_name]
        assert sw.routes_for(hosts[0])
        assert sw.routes_for(hosts[-1])
    # to the rack, not to the host: 5,242,880 entries if every switch
    # held one per destination
    n_switches = N_LEAVES + N_SPINES
    assert sum(route_entries(sw) for sw in net.switches.values()) \
        <= n_switches * n_switches + len(net.hosts)
    assert elapsed < BUILD_BUDGET_S, (
        f"65k fabric build+routes took {elapsed:.1f}s "
        f"(budget {BUILD_BUDGET_S}s)")


@pytest.mark.skip(reason="slow: the full hosts=65536 flows=100000 "
                         "incast point (14-15 s and 596 MB peak RSS on "
                         "2 cores); the nightly incast-scale "
                         "table runs it for real")
def test_65k_incast_point_full_flows():
    from repro.scenarios import run_scenario

    res = run_scenario("incast", hosts=65536, bg_flows=100000)
    assert res.measurements["fabric_hosts"] == 65536
    assert [v.problem for v in res.verdicts] == ["incast"]
