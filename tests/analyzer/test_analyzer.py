"""Unit tests for the analyzer's coordination primitives."""

import networkx as nx
import pytest

from repro import SwitchPointerDeployment
from repro.core.epoch import EpochRange
from repro.hostd.triggers import SwitchEpochTuple, VictimAlert
from repro.simnet.packet import FlowKey, PROTO_TCP, PROTO_UDP, make_udp
from repro.simnet.topology import build_leaf_spine, build_linear
from tests.simnet.oracles import nx_graph


@pytest.fixture
def deployed():
    net = build_linear(3, 2)
    deploy = SwitchPointerDeployment(net, alpha_ms=10, k=3,
                                     epsilon_ms=1, delta_ms=2)
    return net, deploy


def send(net, src, dst, sport=1, dport=9, at=0.0):
    net.sim.schedule_at(at, lambda: net.hosts[src].send(
        make_udp(src, dst, sport, dport, 500)))


class TestHostsFor:
    def test_pointer_decodes_to_destinations(self, deployed):
        net, deploy = deployed
        send(net, "h1_0", "h3_0")
        send(net, "h1_1", "h2_0")
        net.run()
        hosts = deploy.analyzer.hosts_for("S1", EpochRange(0, 0))
        assert hosts == ["h2_0", "h3_0"]
        # S3 forwarded only the first flow
        assert deploy.analyzer.hosts_for("S3", EpochRange(0, 0)) == ["h3_0"]

    def test_empty_epoch_window(self, deployed):
        net, deploy = deployed
        send(net, "h1_0", "h3_0")
        net.run()
        assert deploy.analyzer.hosts_for("S1", EpochRange(50, 60)) == []

    def test_offline_hosts_from_pushed_history(self, deployed):
        net, deploy = deployed
        send(net, "h1_0", "h3_0")
        net.run()
        deploy.flush_all_tops()
        hosts = deploy.analyzer.hosts_for("S1", EpochRange(0, 0),
                                          offline=True)
        assert "h3_0" in hosts


class TestPruning:
    def test_disjoint_segment_hosts_dropped(self, deployed):
        """Traffic S2->h2_x does not share the victim's S2->S3 segment,
        so h2_x is pruned from the victim's search radius at S2."""
        net, deploy = deployed
        send(net, "h1_0", "h3_0")            # victim path S1-S2-S3
        send(net, "h1_1", "h2_1", sport=5)   # crosses S2, exits to h2_1
        net.run()
        alert = VictimAlert(
            flow=FlowKey("h1_0", "h3_0", 1, 9, PROTO_UDP), host="h3_0",
            time=0.001, kind="throughput-drop",
            tuples=[SwitchEpochTuple(switch="S2",
                                     epochs=EpochRange(0, 0))])
        located, _ = deploy.analyzer.locate_relevant_hosts(alert,
                                                           prune=True)
        entry = located[0]
        assert "h3_0" in entry.hosts
        assert "h2_1" in entry.pruned

    def test_prune_disabled_keeps_all(self, deployed):
        net, deploy = deployed
        send(net, "h1_0", "h3_0")
        send(net, "h1_1", "h2_1", sport=5)
        net.run()
        alert = VictimAlert(
            flow=FlowKey("h1_0", "h3_0", 1, 9, PROTO_UDP), host="h3_0",
            time=0.001, kind="throughput-drop",
            tuples=[SwitchEpochTuple(switch="S2",
                                     epochs=EpochRange(0, 0))])
        located, _ = deploy.analyzer.locate_relevant_hosts(alert,
                                                           prune=False)
        assert "h2_1" in located[0].hosts

    def test_shared_segment_hosts_kept(self, deployed):
        """A flow sharing the victim's S1->S2 link must stay in radius."""
        net, deploy = deployed
        send(net, "h1_0", "h3_0")
        send(net, "h1_1", "h2_0", sport=5)   # shares S1->S2 with victim
        net.run()
        alert = VictimAlert(
            flow=FlowKey("h1_0", "h3_0", 1, 9, PROTO_UDP), host="h3_0",
            time=0.001, kind="throughput-drop",
            tuples=[SwitchEpochTuple(switch="S1",
                                     epochs=EpochRange(0, 0))])
        located, _ = deploy.analyzer.locate_relevant_hosts(alert)
        assert "h2_0" in located[0].hosts


class TestOnDemandLinkSets:
    """Link sets are built for the nodes asked about, from the network's
    one memoized tree per root switch; every answer must equal the eager
    reference that materializes a link set for every reachable node."""

    @staticmethod
    def eager(net, source):
        return {node: frozenset(frozenset(pair)
                                for pair in zip(path, path[1:]))
                for node, path in nx.single_source_shortest_path(
                    nx_graph(net), source).items()}

    def test_prune_links_and_hops_match_eager_reference(self):
        net = build_leaf_spine(4, 2, 3)
        analyzer = SwitchPointerDeployment(net, alpha_ms=10, k=2).analyzer
        flow = FlowKey("h0_0", "h3_1", 1, 9, PROTO_UDP)
        asked = net.host_names + ["ghost"]
        for leg in ("cold cache", "after a topology edit"):
            victim_links = analyzer._path_links(flow, ["leaf0", "leaf3"])
            assert victim_links == (self.eager(net, "h0_0")["leaf0"]
                                    | self.eager(net, "leaf0")["leaf3"]
                                    | self.eager(net, "leaf3")["h3_1"])
            for switch in net.switches:
                reach = self.eager(net, switch)
                kept = [h for h in asked
                        if h in reach and reach[h] & victim_links]
                assert kept and len(kept) < len(net.host_names)
                assert analyzer._prune(switch, asked, victim_links) == (
                    kept, [h for h in asked if h not in kept])
            from_site = self.eager(net, analyzer.site)
            assert {node: analyzer.hops_to(node) for node in net.adjacency
                    } == {node: len(links)
                          for node, links in from_site.items()}
            assert analyzer.hops_to("ghost") == 0
            if leg == "cold cache":
                # a leaf0-leaf3 shortcut moves the victim's path and
                # every hop count through it: a stale tree would show
                net.connect(net.node("leaf0"), net.node("leaf3"))


class TestPruneAllocation:
    def test_diagnose_allocates_no_path_per_host(self):
        """Pruning a 4,096-host incast builds paths for the hosts a
        pointer names, never one per fabric host (~2.2 MB traced when
        every source grew a path list for all 4,096; ~0.05 MB now)."""
        import gc
        import tracemalloc

        from repro.core.rng import seed_run
        from repro.scenarios import REGISTRY

        seed_run(1729)
        scenario = REGISTRY.get("incast")(hosts=4096, bg_flows=200)
        scenario.build()
        scenario.run()
        scenario.collect()
        gc.collect()
        tracemalloc.start()
        try:
            verdicts = scenario.diagnose()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdicts and verdicts[0].hosts_consulted
        assert peak < 512 * 1024, f"diagnose() traced peak {peak} B"


class TestConsultation:
    def test_consult_hosts_runs_queries(self, deployed):
        net, deploy = deployed
        send(net, "h1_0", "h3_0")
        net.run()
        results, bd = deploy.analyzer.consult_hosts(
            ["h3_0"], lambda agent: agent.query.top_k_flows(5))
        assert results["h3_0"].payload[0].flow.dst == "h3_0"
        assert bd.total > 0

    def test_unknown_hosts_skipped(self, deployed):
        net, deploy = deployed
        results, _ = deploy.analyzer.consult_hosts(
            ["ghost"], lambda agent: agent.query.top_k_flows(5))
        assert results == {}

    def test_contending_flows_excludes_victim_and_acks(self, deployed):
        net, deploy = deployed
        send(net, "h1_0", "h3_0")
        send(net, "h1_1", "h2_0", sport=5)
        net.run()
        victim_key = FlowKey("h1_0", "h3_0", 1, 9, PROTO_UDP)
        alert = VictimAlert(flow=victim_key, host="h3_0", time=0.001,
                            kind="x", tuples=[])
        found, _ = deploy.analyzer.contending_flows(
            ["h3_0", "h2_0"], "S1", EpochRange(0, 0), alert)
        flows = {s.flow for _, s in found}
        assert victim_key not in flows
        assert FlowKey("h1_1", "h2_0", 5, 9, PROTO_UDP) in flows


class TestDirectoryLifecycle:
    def test_rebuild_directory(self, deployed):
        net, deploy = deployed
        new_hosts = net.host_names + ["newcomer"]
        directory = deploy.analyzer.rebuild_directory(new_hosts)
        assert directory.n == len(new_hosts)
        assert directory.host_of(directory.slot_of("newcomer")) == \
            "newcomer"

    def test_alert_ingestion(self, deployed):
        _, deploy = deployed
        alert = VictimAlert(flow=FlowKey("a", "b", 1, 2, PROTO_TCP),
                            host="b", time=0.0, kind="x", tuples=[])
        deploy.analyzer.ingest_alert(alert)
        assert deploy.analyzer.alerts == [alert]
