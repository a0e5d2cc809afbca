"""Full VLAN-mode debugging loop on a leaf-spine fabric.

The commodity design (§4.1.3) on the other clos topology the paper
names: leaf-spine.  The leaf→spine link pins cross-leaf paths, so the
double-tag embedding plus CherryPick reconstruction must carry the
whole §5.1 loop, end to end.
"""

import pytest

from repro import SwitchPointerDeployment
from repro.analyzer import diagnose_contention
from repro.core.headers import VlanDoubleTag
from repro.simnet.packet import PRIO_HIGH, PRIO_LOW, make_udp
from repro.simnet.queues import StrictPriorityQueue
from repro.simnet.tcp import open_tcp_flow
from repro.simnet.topology import build_leaf_spine
from repro.simnet.traffic import UdpCbrSource, UdpSink


@pytest.fixture(scope="module")
def diagnosed():
    def qf():
        return StrictPriorityQueue(levels=3,
                                   capacity_bytes=4 * 1024 * 1024)
    # single spine: cross-leaf paths share the spine trunks, so the
    # victim and aggressor collide deterministically
    net = build_leaf_spine(n_leaves=2, n_spines=1, hosts_per_leaf=4,
                           queue_factory=qf)
    deploy = SwitchPointerDeployment(net, alpha_ms=10, k=3,
                                     epsilon_ms=1, delta_ms=2)
    sim = net.sim
    src, dst = net.hosts["h0_0"], net.hosts["h1_0"]
    sender, _ = open_tcp_flow(sim, src, dst, sport=100, dport=200,
                              total_bytes=None, priority=PRIO_LOW,
                              min_rto=0.010)
    sender.start()
    trigger = deploy.watch_flow(sender.flow)
    UdpSink(net.hosts["h1_1"], 7000)
    UdpCbrSource(sim, net.hosts["h0_1"], "h1_1", sport=7000, dport=7000,
                 rate_bps=1e9, priority=PRIO_HIGH, start=0.015,
                 duration=0.002)
    net.run(until=0.050)
    sender.stop()
    trigger.stop()
    return net, deploy, sender


class TestLeafSpineVlanLoop:
    def test_vlan_tag_reaches_destination(self, diagnosed):
        net, deploy, sender = diagnosed
        caught = []
        net.hosts["h1_2"].sniffers.append(
            lambda h, p, t: caught.append(p.telemetry))
        net.hosts["h0_2"].send(make_udp("h0_2", "h1_2", 5, 9, 400))
        net.run(until=net.sim.now + 0.001)
        assert caught and isinstance(caught[0], VlanDoubleTag)

    def test_record_path_is_leaf_spine_leaf(self, diagnosed):
        net, deploy, sender = diagnosed
        rec = deploy.host_agents["h1_0"].store.get(sender.flow)
        assert rec.switch_path == ("leaf0", "spine0", "leaf1")

    def test_alert_and_diagnosis(self, diagnosed):
        net, deploy, sender = diagnosed
        alerts = deploy.alerts()
        assert alerts
        verdict = diagnose_contention(deploy.analyzer, alerts[0])
        assert verdict.problem == "priority-contention"
        assert "h0_1" in {c.flow.src for c in verdict.culprits}
