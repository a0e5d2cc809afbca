"""Unit tests for the host agent wiring."""

from repro.core.epoch import EpochClock, EpochRangeEstimator
from repro.core.mphf import HostDirectory
from repro.core.pointer import HierarchicalPointerStore
from repro.hostd.agent import HostAgent
from repro.simnet.packet import make_udp
from repro.simnet.tcp import open_tcp_flow
from repro.simnet.topology import build_linear
from repro.switchd.cherrypick import CherryPickPlanner
from repro.switchd.datapath import SwitchPointerDatapath


def deploy_hosts(net, alpha_ms=10):
    directory = HostDirectory(net.host_names)
    planner = CherryPickPlanner(net)
    estimator = EpochRangeEstimator(alpha_ms, 1.0, 2.0)
    for name, sw in net.switches.items():
        store = HierarchicalPointerStore(directory.n, alpha=alpha_ms, k=2)
        SwitchPointerDatapath(sw, EpochClock(alpha_ms), directory.mphf,
                              store, planner=planner)
    agents = {}
    for name, host in net.hosts.items():
        agents[name] = HostAgent(host, clock=EpochClock(alpha_ms),
                                 planner=planner, estimator=estimator)
    return agents


class TestSnifferWiring:
    def test_arriving_traffic_lands_in_store(self):
        net = build_linear(2, 1)
        agents = deploy_hosts(net)
        net.hosts["h1_0"].send(make_udp("h1_0", "h2_0", 1, 9, 500))
        net.run()
        assert len(agents["h2_0"].store) == 1
        assert agents["h2_0"].decoder.decoded == 1

    def test_query_engine_backed_by_same_store(self):
        net = build_linear(2, 1)
        agents = deploy_hosts(net)
        net.hosts["h1_0"].send(make_udp("h1_0", "h2_0", 1, 9, 700))
        net.run()
        res = agents["h2_0"].query.top_k_flows(1)
        assert res.payload[0].bytes == 700


class TestTriggerManagement:
    def test_watch_flow_alerts_on_drop(self):
        net = build_linear(2, 4)
        agents = deploy_hosts(net)
        alerts = []
        sender, _ = open_tcp_flow(net.sim, net.hosts["h1_0"],
                                  net.hosts["h2_0"], sport=1, dport=2,
                                  total_bytes=None)
        sender.start()
        trig = agents["h2_0"].watch_flow(sender.flow, alerts.append)
        net.run(until=0.005)
        net.switches["S1"].clear_routes()  # kill the path mid-flow
        net.run(until=0.015)
        trig.stop()
        sender.stop()
        assert len(alerts) >= 1
        assert alerts[0].host == "h2_0"
        # tuples restricted by the host clock (wired by watch_flow)
        assert alerts[0].tuples[0].epochs is not None

    def test_stop_triggers_idempotent(self):
        net = build_linear(2, 1)
        agents = deploy_hosts(net)
        trig = agents["h2_0"].watch_flow(
            make_udp("h1_0", "h2_0", 1, 9, 100).flow, lambda a: None)
        trig.stop()
        trig.stop()
