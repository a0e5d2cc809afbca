"""Full debugging loop on a fat-tree with the VLAN double tag.

§4.1.3: on a fat-tree one aggregate-core link pins the whole 5-hop
inter-pod path (CherryPick), so the commodity design's one (linkID,
epochID) tag is enough for the destination to rebuild every hop.  This
runs the complete §5.1-style diagnosis on a k=4 fat-tree.
"""

import pytest

from repro import SwitchPointerDeployment
from repro.analyzer import diagnose_contention
from repro.simnet.packet import PRIO_HIGH, PRIO_LOW
from repro.simnet.queues import StrictPriorityQueue
from repro.simnet.tcp import open_tcp_flow
from repro.simnet.topology import build_fat_tree
from repro.simnet.traffic import UdpCbrSource, UdpSink
from repro.simnet.packet import FlowKey, PROTO_TCP, PROTO_UDP, _flow_hash


def predict_path(net, flow: FlowKey) -> list[str]:
    """Replicate the switches' deterministic ECMP walk for ``flow``."""
    here = net.hosts[flow.src].nic.peer_node
    path = []
    while here.name in net.switches:
        path.append(here.name)
        candidates = here.routes_for(flow.dst)
        out = candidates[_flow_hash(flow) % len(candidates)]
        here = out.peer_node
    return path


def shares_interswitch_link(a: list[str], b: list[str]) -> bool:
    la = set(zip(a, a[1:]))
    lb = set(zip(b, b[1:]))
    return bool(la & lb)


@pytest.fixture(scope="module")
def diagnosed():
    def qf():
        return StrictPriorityQueue(levels=3,
                                   capacity_bytes=4 * 1024 * 1024)
    net = build_fat_tree(4, queue_factory=qf)
    deploy = SwitchPointerDeployment(net, alpha_ms=10, k=3,
                                     epsilon_ms=1, delta_ms=2)
    sim = net.sim
    # victim: low-priority TCP across pods
    src, dst = net.hosts["h0_0_0"], net.hosts["h2_0_0"]
    victim_key = FlowKey(src.name, dst.name, 100, 200, PROTO_TCP)
    victim_path = predict_path(net, victim_key)
    # pick an aggressor sport whose ECMP walk shares a trunk link with
    # the victim (distinct src/dst pair, as in the paper's workloads)
    sport = next(
        p for p in range(7000, 7200)
        if shares_interswitch_link(
            victim_path,
            predict_path(net, FlowKey("h0_0_1", "h2_0_1", p, p,
                                      PROTO_UDP))))

    tags = []
    dst.sniffers.append(lambda host, pkt, now: tags.append(pkt.telemetry))
    sender, receiver = open_tcp_flow(sim, src, dst, sport=100, dport=200,
                                     total_bytes=None, priority=PRIO_LOW,
                                     min_rto=0.010)
    sender.start()
    trigger = deploy.watch_flow(sender.flow)
    UdpSink(net.hosts["h2_0_1"], sport)
    UdpCbrSource(sim, net.hosts["h0_0_1"], "h2_0_1", sport=sport,
                 dport=sport, rate_bps=1e9, priority=PRIO_HIGH,
                 start=0.020, duration=0.003)
    net.run(until=0.060)
    sender.stop()
    trigger.stop()
    return net, deploy, sender, victim_path, tags


class TestFatTreeVlanLoop:
    def test_victim_record_has_five_hop_path(self, diagnosed):
        net, deploy, sender, victim_path, tags = diagnosed
        rec = deploy.host_agents["h2_0_0"].store.get(sender.flow)
        assert rec is not None
        assert list(rec.switch_path) == victim_path  # the hops it really took
        assert len(rec.switch_path) == 5
        assert rec.switch_path[0] == "edge0_0"

    def test_one_aggregate_core_link_pins_the_path(self, diagnosed):
        """CherryPick's 5-hop pin: every data packet of the victim
        carries the link from its source pod's aggregate to the core."""
        net, deploy, sender, victim_path, tags = diagnosed
        links = {tag.link_id for tag in tags if tag is not None}
        assert len(links) == 1
        link = net.link_by_vlan(links.pop())
        assert set(link.endpoints) == set(victim_path[1:3])
        assert victim_path[1].startswith("agg0_")
        assert victim_path[2].startswith("core")

    def test_alert_fired_with_full_path(self, diagnosed):
        net, deploy, sender, _, _ = diagnosed
        alerts = deploy.alerts()
        assert alerts
        assert len(alerts[0].switch_path) == 5

    def test_diagnosis_finds_the_burst(self, diagnosed):
        net, deploy, sender, _, _ = diagnosed
        verdict = diagnose_contention(deploy.analyzer,
                                      deploy.alerts()[0])
        assert verdict.problem == "priority-contention"
        culprit_flows = {c.flow.src for c in verdict.culprits}
        assert "h0_0_1" in culprit_flows

    def test_contention_localized_to_shared_hops(self, diagnosed):
        """The aggressor shares only some of the victim's five hops;
        culprit attributions must stay on the victim's path."""
        net, deploy, sender, _, _ = diagnosed
        verdict = diagnose_contention(deploy.analyzer,
                                      deploy.alerts()[0])
        victim_path = set(deploy.alerts()[0].switch_path)
        for c in verdict.culprits:
            assert c.switch in victim_path

    def test_every_path_switch_pointer_names_victim_dst(self, diagnosed):
        net, deploy, sender, _, _ = diagnosed
        rec = deploy.host_agents["h2_0_0"].store.get(sender.flow)
        for sw in rec.switch_path:
            rng = rec.epochs_at(sw)
            hosts = deploy.analyzer.hosts_for(sw, rng, level=None)
            assert "h2_0_0" in hosts
