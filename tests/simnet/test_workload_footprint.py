"""What a background flow population costs to hold.

A plan is four ``array`` columns, 24 bytes a flow, and the emitter adds
one 4-byte start order: a flow has a key and state of its own only from
its start to its last packet.  Receiving costs one port block per
distinct receiver, not a socket per flow.  These tests pin that
footprint — at launch (binding included), during the run and after it,
in the emitter and in the hosts' socket tables.
"""

import gc
import sys
import tracemalloc
from types import ModuleType

import pytest

from repro.simnet.packet import FlowKey
from repro.simnet.topology import build_leaf_spine
from repro.simnet.workload import WorkloadGenerator, WorkloadSpec

#: traced bytes a launched flow costs, binding included (CPython 3.11:
#: ~29 B with column plans, a streaming emitter and one port block per
#: receiver; ~147 B when every flow bound a socket of its own, ~610 B
#: when the plan was also one object per flow)
MAX_LAUNCH_BYTES_PER_FLOW = 40
N_FLOWS = 20_000


def spec(n):
    return WorkloadSpec(n_flows=n, spread_s=0.01, mean_flow_bytes=4_000,
                        min_flow_bytes=300, max_flow_bytes=20_000,
                        packet_size=1000, flow_rate_bps=2e7, seed=10)


def traced(fn):
    """Traced bytes still held after ``fn()``, and what it returned."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, out
    finally:
        tracemalloc.stop()


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="byte budgets are pinned on CPython 3.11")
def test_launch_cost_per_flow_stays_in_budget():
    net = build_leaf_spine(4, 2, 8)
    gen = WorkloadGenerator(net, spec(N_FLOWS))
    launched, traffic = traced(gen.launch)
    assert traffic.n_flows == N_FLOWS
    # every host received some flow, and bound one block for all of them
    assert all(len(host._blocks) == 1 for host in net.hosts.values())
    per_flow = launched / N_FLOWS
    assert per_flow <= MAX_LAUNCH_BYTES_PER_FLOW, per_flow


@pytest.mark.parametrize("n", [200, 2_000])
def test_socket_tables_do_not_grow_with_the_flow_count(n):
    """After a run each receiving host holds one block and no socket,
    however many flows it received."""
    net = build_leaf_spine(2, 2, 4)
    traffic = WorkloadGenerator(net, spec(n)).launch()
    net.run()
    assert traffic.delivered == traffic.packets_sent > n
    receiving = {traffic.plan.receivers[d_i] for d_i in traffic.plan.dst}
    assert receiving == set(net.hosts)
    for host in net.hosts.values():
        assert len(host._sockets) == 0 and len(host._blocks) == 1


def reachable(*roots):
    """Every object reachable from ``roots`` (the roots included), not
    counting classes and modules or what only they reach."""
    seen = {}
    todo = list(roots)
    while todo:
        obj = todo.pop()
        if id(obj) not in seen and not isinstance(obj, (type, ModuleType)):
            seen[id(obj)] = obj
            todo.extend(gc.get_referents(obj))
    return list(seen.values())


def test_only_live_flows_hold_state_and_none_outlives_the_run():
    net = build_leaf_spine(2, 2, 4)
    gen = WorkloadGenerator(net, spec(2_000))
    traffic = gen.launch()
    # at launch: one pending start, no flow state
    assert [entry[2] for entry in traffic._heap] == [None]

    net.run(until=0.005)
    started = traffic._started
    assert 0 < started < traffic.n_flows
    heap = traffic._heap
    # mid-run: each started flow has at most one entry, carrying its
    # state; exactly one start is pending
    assert sum(entry[2] is None for entry in heap) == 1
    live = [entry[1] for entry in heap if entry[2] is not None]
    assert len(live) == len(set(live)) < started
    assert set(live) <= set(traffic._order[:started])

    net.run()
    assert traffic._started == traffic.n_flows and traffic._heap == []
    assert traffic.delivered == traffic.packets_sent > traffic.n_flows
    # what the emitter itself still holds: columns, the start order and
    # the endpoint lists — nothing that grows with the flow count
    held = reachable(*(value for name, value in vars(traffic).items()
                       if name not in ("network", "sim", "spec")))
    assert not any(type(obj) is FlowKey for obj in held)
    assert len(held) < 3 * len(net.hosts) + 50, len(held)
