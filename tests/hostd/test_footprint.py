"""What a SwitchPointer deployment costs per host.

Most hosts of a large fabric never receive a packet, so a host has no
agent until something touches it — a packet, a trigger, a fault or a
query — and every untouched host shares one read-only tuple holding the
deployment's first-touch sniffer.  A built agent costs a few slots until
its traffic arrives: its record store shares one read-only empty table
with every other idle store, its query engine is built by the first
query, and its record index by the first scan.  The fabric under it follows
the same rule: a host that bound no port shares one empty socket table,
a host's adjacency is a view of its one cable, an attached host's route
is one tuple, a port shares one idle queue until its first packet and
allocates a buffer only when a packet has to wait, and a pointer set
exists only once a packet wrote it.  These tests pin that footprint and
the lifetime of per-host state.
"""

import gc
import sys
import tracemalloc

import pytest

from repro.core.pointer import HierarchicalPointerStore
from repro.core.rng import seed_run
from repro.deployment import SwitchPointerDeployment
from repro.hostd.agent import HostAgent
from repro.hostd.records import _IDLE, FlowRecordStore
from repro.scenarios import run_scenario
from repro.simnet.host import _NO_SOCKETS, Host
from repro.simnet.packet import make_udp
from repro.simnet.queues import (IDLE_QUEUE, DropTailFIFO, PacketQueue,
                                 StrictPriorityQueue)
from repro.simnet.topology import Network, build_leaf_spine

#: per-host budget of what a deployment adds on a 4,096-host fabric
#: (CPython 3.11: 8.30 objects and ~1.3 KB before agents went lazy,
#: 6.30 objects and ~0.7 KB after, 0.17 objects and 35 B once an agent
#: waits for its host's first touch: what is left is the switches'
#: pointer stores and the host directory)
MAX_OBJECTS_PER_HOST = 0.2
MAX_BYTES_PER_HOST = 45
#: per-host budget of the fabric itself on the same 4,096 hosts
#: (CPython 3.11: ~1,160 B with a queue per port and an adjacency dict
#: per host, ~810 B once ports share the idle queue and a host's
#: adjacency is a view of its NIC)
MAX_FABRIC_BYTES_PER_HOST = 900


def holds_table(store: FlowRecordStore) -> bool:
    return any(table is not _IDLE
               for table in (store._records, store._by_switch,
                             store._sorted))


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="object and byte budgets are pinned on CPython 3.11")
def test_deployment_cost_per_host_stays_in_budget():
    net = build_leaf_spine(16, 4, 256)
    n_hosts = len(net.hosts)
    assert n_hosts == 4096
    gc.collect()
    objects_before = len(gc.get_objects())
    tracemalloc.start()
    try:
        bytes_before = tracemalloc.get_traced_memory()[0]
        deployment = SwitchPointerDeployment(net)
        gc.collect()
        bytes_after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    objects_per_host = (len(gc.get_objects()) - objects_before) / n_hosts
    bytes_per_host = (bytes_after - bytes_before) / n_hosts
    assert len(deployment.host_agents) == n_hosts
    assert objects_per_host <= MAX_OBJECTS_PER_HOST, objects_per_host
    assert bytes_per_host <= MAX_BYTES_PER_HOST, bytes_per_host


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="byte budgets are pinned on CPython 3.11")
def test_fabric_cost_per_host_stays_in_budget():
    gc.collect()
    tracemalloc.start()
    try:
        bytes_before = tracemalloc.get_traced_memory()[0]
        net = build_leaf_spine(16, 4, 256)
        gc.collect()
        bytes_after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(net.hosts) == 4096
    bytes_per_host = (bytes_after - bytes_before) / len(net.hosts)
    assert bytes_per_host <= MAX_FABRIC_BYTES_PER_HOST, bytes_per_host


class TestIdleAgent:
    def deploy(self, **kwargs):
        net = build_leaf_spine(2, 1, 2)
        return net, SwitchPointerDeployment(net, **kwargs)

    def test_no_agent_exists_before_traffic(self):
        net, deployment = self.deploy()
        agents = deployment.host_agents
        assert len(agents) == 4 and sorted(agents) == sorted(net.hosts)
        assert "h0_0" in agents and "nowhere" not in agents
        assert not agents.built and list(agents.values()) == []
        assert deployment.record_stats()["ingested_records"] == 0
        assert deployment.analyzer.ingest_seq() == 0
        assert not agents.built  # reading the sums built nothing

    def test_a_built_agent_has_no_engine_and_no_table(self):
        _net, deployment = self.deploy()
        agent = deployment.host_agents["h0_0"]
        assert list(deployment.host_agents.values()) == [agent]
        assert agent._query is None
        assert not holds_table(agent.store)

    def test_one_delivered_packet_builds_the_table_and_first_query_engine(
            self):
        net, deployment = self.deploy()
        net.hosts["h0_0"].send(make_udp("h0_0", "h1_0", 1, 9, 500))
        net.run()
        busy = deployment.host_agents["h1_0"]
        assert holds_table(busy.store) and len(busy.store) == 1
        assert busy._query is None
        res = busy.query.top_k_flows(1)
        assert res.payload[0].bytes == 500
        # the first query built the engine, later ones reuse it
        assert busy._query is not None and busy.query is busy._query
        assert busy.query.queries_served == 1
        # the sender and the bystanders have no agent, and one built
        # now is idle
        assert set(deployment.host_agents.built) == {"h1_0"}
        for name in ("h0_0", "h0_1", "h1_1"):
            idle = deployment.host_agents[name]
            assert idle._query is None
            assert not holds_table(idle.store)

    def test_a_store_no_scan_reached_has_no_index(self):
        net, deployment = self.deploy()
        for src, dst in (("h0_0", "h1_0"), ("h0_1", "h1_0"),
                         ("h1_1", "h0_0")):
            net.hosts[src].send(make_udp(src, dst, 1, 9, 500))
        net.run()
        stores = {name: deployment.host_agents[name].store
                  for name in ("h1_0", "h0_0")}
        assert [len(s) for s in stores.values()] == [2, 1]
        assert all(s._by_switch is _IDLE and s._sorted is _IDLE
                   for s in stores.values())
        # a query that reads no switch builds none either
        assert len(deployment.host_agents["h1_0"].query.all_flows()
                   .payload) == 2
        assert stores["h1_0"]._by_switch is _IDLE
        # the first scan builds exactly the scanned store's index
        res = deployment.host_agents["h1_0"].query.flows_matching("leaf1")
        assert len(res.payload) == 2
        assert set(stores["h1_0"]._by_switch) == {"leaf0", "leaf1",
                                                   "spine0"}
        assert stores["h0_0"]._by_switch is _IDLE

    def test_packet_is_decoded_before_any_engine_exists(self):
        net, deployment = self.deploy()
        agent = deployment.host_agents["h1_0"]
        net.hosts["h0_0"].send(make_udp("h0_0", "h1_0", 1, 9, 700))
        net.run()
        # decoded at arrival: the lazily built engine has nothing to
        # catch up on
        assert agent._query is None
        assert agent.decoder.decoded == 1
        res = agent.query.top_k_flows(1)
        assert [s.bytes for s in res.payload] == [700]

    def test_crash_returns_the_store_to_idle(self):
        net, deployment = self.deploy()
        net.hosts["h0_0"].send(make_udp("h0_0", "h1_0", 1, 9, 500))
        net.run()
        agent = deployment.host_agents["h1_0"]
        # a scan builds the index; the crash takes it with the table
        assert len(agent.query.flows_matching("leaf1").payload) == 1
        assert agent.store._by_switch is not _IDLE
        assert agent.crash() == 1
        assert not holds_table(agent.store) and len(agent.store) == 0
        agent.restart()
        net.hosts["h0_0"].send(make_udp("h0_0", "h1_0", 1, 9, 300))
        net.run()
        assert [r.bytes for r in agent.store] == [300]


def test_no_per_host_state_outlives_its_scenario():
    """Two scenarios in one process: once the first one's result is
    dropped, none of its hosts, agents or stores survive a collection
    (a sweep or experiment worker runs cell after cell, and lazily
    built per-host state must not pin a whole deployment)."""
    kinds = (Host, HostAgent, FlowRecordStore)

    def census():
        gc.collect()
        counts = dict.fromkeys(kinds, 0)
        for obj in gc.get_objects():
            if type(obj) in counts:
                counts[type(obj)] += 1
        return counts

    base = census()
    seed_run(1)
    first = run_scenario("incast", hosts=32, bg_flows=50)
    held = census()
    touched = len(first.deployment.host_agents.built)
    assert 0 < touched < 32
    assert held[HostAgent] - base[HostAgent] == touched
    del first
    seed_run(1)  # the same cell again: it touches the same hosts
    second = run_scenario("incast", hosts=32, bg_flows=50)
    assert census() == held
    del second
    assert census() == base


def test_agents_are_built_for_exactly_the_touched_hosts():
    """After one small incast, a host has an agent exactly when a
    packet reached it, a trigger watches a flow into it, or the
    analyzer consulted it."""
    seed_run(1)
    result = run_scenario("incast", hosts=32, bg_flows=50)
    deployment = result.deployment
    received = {name for name, host in result.network.hosts.items()
                if host.rx_packets}
    watched = {agent.name for agent in deployment.host_agents.values()
               if agent.triggers}
    consulted = {h for v in result.verdicts for h in v.hosts_consulted}
    assert watched and consulted
    built = set(deployment.host_agents.built)
    assert built == received | watched | consulted
    assert len(built) < len(result.network.hosts)
    # an untouched host still shares the one first-touch sniffer tuple
    idle = [host for name, host in result.network.hosts.items()
            if name not in built]
    assert idle and all(type(host._sniffers) is tuple
                        and host._sniffers is idle[0]._sniffers
                        for host in idle)


class TestUntouchedFabricState:
    """State no packet touched is shared or absent, never allocated."""

    def test_a_never_bound_host_shares_the_empty_socket_table(self):
        net = build_leaf_spine(2, 1, 2)
        assert all(h._sockets is _NO_SOCKETS for h in net.hosts.values())
        host = net.hosts["h0_0"]
        host.bind(17, 9, lambda pkt, now: None)
        assert host._sockets is not _NO_SOCKETS and len(host._sockets) == 1
        assert len(_NO_SOCKETS) == 0
        with pytest.raises(TypeError):
            _NO_SOCKETS[17, 9] = None  # read-only: no host can fill it
        assert net.hosts["h1_0"]._sockets is _NO_SOCKETS

    def test_an_attached_hosts_route_is_one_tuple(self):
        net = build_leaf_spine(2, 2, 2)
        leaf = net.switches["leaf0"]
        for dst in ("h0_0", "h0_1"):
            route = leaf._host_routes[dst]
            assert type(route) is tuple and len(route) == 1
            assert route[0].peer_node is net.hosts[dst]
        # replacing one host's route leaves its neighbour's tuple alone
        extra = net.link_between("leaf0", "spine0").iface_of(leaf)
        own = net.hosts["h0_0"].nic.peer_iface
        leaf.set_routes("h0_0", (own, extra))
        assert leaf._host_routes["h0_0"] == (own, extra)
        assert type(leaf._host_routes["h0_1"]) is tuple

    def test_a_pointer_slot_no_update_wrote_holds_no_set(self):
        store = HierarchicalPointerStore(64, alpha=4, k=3)

        def held():
            return sum(ls.pointer is not None for ls in slots_of(store))

        assert held() == 0 and store.memory_bits == (4 * 2 + 1) * 64
        store.update(0, 5)
        assert held() == 3  # one set per level
        store.update(1, 5)  # a new level-1 window: one more set
        assert held() == 4
        store.update(4, 7)  # level 1 reuses epoch 0's slot; level 2 moves
        assert held() == 5
        for ls in slots_of(store):
            assert (ls.pointer is None) == (ls.segment is None)
        assert store.snapshot(1, 2) is None
        assert store.epoch_status(1, 2) == "empty"

    def test_a_deployment_builds_sets_only_where_packets_passed(self):
        net = build_leaf_spine(2, 1, 2)
        deployment = SwitchPointerDeployment(net)
        stores = {name: dp.store for name, dp in deployment.datapaths.items()}
        assert not any(ls.pointer is not None for store in stores.values()
                       for ls in slots_of(store))
        net.hosts["h0_0"].send(make_udp("h0_0", "h0_1", 1, 9, 500))
        net.run()
        # the packet stayed in rack 0: only leaf0 wrote, one set a level
        written = {name: sum(ls.pointer is not None for ls in slots_of(s))
                   for name, s in stores.items()}
        assert written == {"leaf0": stores["leaf0"].k, "leaf1": 0,
                           "spine0": 0}

    def test_a_port_whose_packets_never_waited_holds_no_buffer(self):
        net = build_leaf_spine(2, 1, 2)
        for i in range(3):
            net.sim.call_at(i * 1e-3, net.hosts["h0_0"].send,
                            make_udp("h0_0", "h1_1", 1, 9, 1500))
        net.run()
        ports = [i for sw in net.switches.values() for i in sw.interfaces]
        ports += [h.nic for h in net.hosts.values()]
        assert sum(i.tx_packets for i in ports) == 3 * 4  # four hops each
        assert all(i.queue._q is None for i in ports)
        assert net.hosts["h1_1"].rx_packets == 3

    def test_an_untouched_port_shares_the_idle_queue(self):
        net = build_leaf_spine(2, 1, 2)
        ports = [i for sw in net.switches.values() for i in sw.interfaces]
        ports += [h.nic for h in net.hosts.values()]
        assert all(i.queue is IDLE_QUEUE for i in ports)
        assert len(IDLE_QUEUE) == 0 and not IDLE_QUEUE
        assert all(getattr(IDLE_QUEUE.stats, c) == 0
                   for c in PacketQueue.COUNTERS)
        pkt = make_udp("h0_0", "h0_1", 1, 9, 500)
        for write in (IDLE_QUEUE.enqueue, IDLE_QUEUE._admit):
            with pytest.raises(TypeError):
                write(pkt)
        with pytest.raises(TypeError):
            IDLE_QUEUE.dropped = 1
        assert IDLE_QUEUE.dropped == 0

    def test_the_first_packet_builds_the_ports_own_queue(self):
        net = build_leaf_spine(2, 1, 2,
                               queue_factory=lambda: DropTailFIFO(3000))
        nic = net.hosts["h0_0"].nic
        assert nic.link.queue_factory is net.links[0].queue_factory
        nic.send(make_udp("h0_0", "h0_1", 1, 9, 500))
        net.run()
        built = [i for sw in net.switches.values() for i in sw.interfaces
                 if i.queue is not IDLE_QUEUE]
        assert type(nic.queue) is DropTailFIFO
        assert nic.queue.capacity_bytes == 3000 and nic.queue.enqueued == 1
        # one hop out of the NIC, one out of leaf0: no other port built
        assert [(i.owner.name, i.peer_node.name) for i in built] == [
            ("leaf0", "h0_1")]
        assert built[0].queue is not nic.queue
        assert net.hosts["h0_1"].nic.queue is IDLE_QUEUE

    def test_a_queue_set_before_traffic_is_kept(self):
        net = build_leaf_spine(2, 1, 2)
        nic = net.hosts["h0_0"].nic
        nic.queue = queue = StrictPriorityQueue(2)
        nic.send(make_udp("h0_0", "h0_1", 1, 9, 500, priority=1))
        net.run()
        assert nic.queue is queue and queue.enqueued == 1
        assert net.hosts["h0_1"].rx_packets == 1

    def test_a_hosts_adjacency_is_a_view_of_its_nic(self):
        net = build_leaf_spine(2, 2, 2)
        for h in net.hosts.values():
            cable = net.adjacency[h.name]
            assert cable == {h.nic.peer_node.name: h.nic.link}
            assert list(cable) == [h.nic.peer_node.name] and len(cable) == 1
            assert "spine0" not in cable and h.nic.peer_node.name in cable
            with pytest.raises(TypeError):
                cable["spine0"] = h.nic.link  # read-only
            with pytest.raises(AttributeError):
                cable.extra = 1  # slotted: no dict of its own
        loose = Network()
        loose.add_host("a")
        loose.add_host("b")
        assert loose.adjacency["a"] is loose.adjacency["b"]
        assert dict(loose.adjacency["a"]) == {}


def slots_of(store):
    return [*(ls for level in store._levels for ls in level), store._top]
