"""Failure injection and long-horizon edge cases.

The paper's robustness arguments, made executable:

* §4.1.2: "temporary failures of end-hosts do not impact the
  correctness since the bits corresponding to those end-hosts will
  simply remain unused."
* §4.1.3: the epochID travels as 12 bits; long-running systems wrap
  every 4096 epochs and the decoder must unwrap correctly.
* §4.1.1: "misconfiguration of k and α values may result in longer
  diagnosis time ... but does not result in correctness violation."
* Loss on the victim's own path must not corrupt the telemetry of
  packets that did arrive.
"""

import pytest

from repro import SwitchPointerDeployment
from repro.core.epoch import EpochRange
from repro.simnet.engine import Simulator
from repro.simnet.packet import make_udp
from repro.simnet.queues import DropTailFIFO
from repro.simnet.topology import Network, build_linear
from repro.switchd.agent import RecycledEpochError


class TestHostFailures:
    def test_dead_host_bits_simply_unused(self):
        """Traffic to a dead host still updates pointers; nothing else
        breaks, and live hosts decode normally."""
        net = build_linear(2, 3)
        deploy = SwitchPointerDeployment(net, alpha_ms=10, k=2,
                                         epsilon_ms=1, delta_ms=2)
        # 'kill' h2_1: it receives but its agent is gone
        dead = net.hosts["h2_1"]
        dead.sniffers.clear()
        net.hosts["h1_0"].send(make_udp("h1_0", "h2_0", 1, 9, 400))
        net.hosts["h1_1"].send(make_udp("h1_1", "h2_1", 2, 9, 400))
        net.run()
        hosts = deploy.analyzer.hosts_for("S1", EpochRange(0, 0))
        # the directory still names both (switch-side view is intact)
        assert hosts == ["h2_0", "h2_1"]
        # consulting hosts skips nothing fatal: the dead host just has
        # no records
        results, _ = deploy.analyzer.consult_hosts(
            hosts, lambda agent: agent.query.all_flows())
        assert len(results["h2_0"].payload) == 1
        assert results["h2_1"].payload == []

    def test_unknown_destination_does_not_poison_pointer(self):
        """A destination outside the MPHF key set maps to *some* slot;
        queries for real hosts remain sound (no crash, no missing
        entries)."""
        net = build_linear(2, 2)
        deploy = SwitchPointerDeployment(net, alpha_ms=10, k=2,
                                         epsilon_ms=1, delta_ms=2)
        s1 = net.switches["S1"]
        # route for a ghost host via S2's side, then traffic to it
        iface = net.link_between("S1", "S2").iface_of(s1)
        s1.set_routes("ghost", (iface,))
        net.switches["S2"].set_routes(
            "ghost", (net.link_between("h2_0", "S2").iface_of(
                net.switches["S2"]),))
        net.hosts["h1_0"].send(make_udp("h1_0", "ghost", 1, 9, 400))
        net.hosts["h1_0"].send(make_udp("h1_0", "h2_0", 1, 10, 400))
        net.run()
        hosts = deploy.analyzer.hosts_for("S1", EpochRange(0, 0))
        assert "h2_0" in hosts  # the legit destination is never lost


class TestEpochWraparound:
    def test_vlan_epoch_tag_wraps_and_unwraps(self):
        """Run with the clock started past 4096 epochs (~41 s at
        α=10 ms): the 12-bit tag wraps; decode must still recover the
        absolute epoch."""
        start = 4100 * 0.010 + 0.0012  # epoch 4100 (tag 4100-4096=4)
        sim = Simulator(start_time=start)
        net = Network(sim)
        s1 = net.add_switch("S1")
        a, b = net.add_host("a"), net.add_host("b")
        net.connect(a, s1)
        net.connect(b, s1)
        net.compute_routes()
        deploy = SwitchPointerDeployment(net, alpha_ms=10, k=2,
                                         epsilon_ms=1, delta_ms=2)
        a.send(make_udp("a", "b", 1, 9, 400))
        net.run()
        rec = next(iter(deploy.host_agents["b"].store))
        rng = rec.epochs_at("S1")
        assert 4100 in rng          # absolute epoch recovered
        # and the pointer is queryable at the absolute epoch
        hosts = deploy.analyzer.hosts_for("S1", EpochRange(4100, 4100))
        assert hosts == ["b"]


class TestMisconfiguration:
    def test_tiny_alpha_still_correct_just_slower(self, flush_all_tops):
        """α too small recycles pointers fast (the §4.1.1 warning) —
        recent windows stay correct, old ones fall back to offline."""
        net = build_linear(2, 2)
        deploy = SwitchPointerDeployment(net, alpha_ms=2, k=2,
                                         epsilon_ms=1, delta_ms=2)
        net.hosts["h1_0"].send(make_udp("h1_0", "h2_0", 1, 9, 400))
        # later traffic in two consecutive epochs reuses both level-1
        # sets, evicting epoch 0 (lazy rotation keeps sets until reuse)
        for t in (0.050, 0.052):
            net.sim.schedule_at(t, lambda: net.hosts["h1_1"].send(
                make_udp("h1_1", "h2_1", 2, 9, 400)))
        net.run()
        flush_all_tops(deploy)
        # level 1 holds alpha one-epoch sets (4 ms at alpha = 2), so the
        # epoch-0 window is long recycled there, and a fixed-level read
        # says so instead of answering "nobody":
        with pytest.raises(RecycledEpochError):
            deploy.switch_agents["S1"].pull(1, 0, 0)
        # the default read still names the host, from the coarser pushes
        assert "h2_0" in deploy.analyzer.hosts_for("S1", EpochRange(0, 0))

    def test_k1_deployment_functions(self, flush_all_tops):
        """Degenerate single-level hierarchy: push-only, still sound."""
        net = build_linear(2, 2)
        deploy = SwitchPointerDeployment(net, alpha_ms=10, k=1,
                                         epsilon_ms=1, delta_ms=2)
        net.hosts["h1_0"].send(make_udp("h1_0", "h2_0", 1, 9, 400))
        net.run()
        flush_all_tops(deploy)
        agent = deploy.switch_agents["S1"]
        assert [s.slots() for s in agent.pushed_history] == [
            [deploy.directory.slot_of("h2_0")]]
        assert deploy.analyzer.hosts_for("S1", EpochRange(0, 0)) == ["h2_0"]


class TestLossyPath:
    def test_drops_do_not_corrupt_surviving_telemetry(self):
        """With a starved 1-packet queue many packets drop; every packet
        that *does* arrive decodes to the true path and a covering
        epoch range."""
        def qf():
            return DropTailFIFO(capacity_bytes=3000)
        net = build_linear(3, 1, queue_factory=qf)
        deploy = SwitchPointerDeployment(net, alpha_ms=10, k=2,
                                         epsilon_ms=1, delta_ms=2)
        for i in range(200):
            net.sim.schedule_at(i * 1e-5, lambda: net.hosts["h1_0"].send(
                make_udp("h1_0", "h3_0", 1, 9, 1400)))
        net.run()
        agent = deploy.host_agents["h3_0"]
        rec = next(iter(agent.store))
        assert rec.switch_path == ("S1", "S2", "S3")
        assert agent.decoder.undecodable == 0
        # some drops must actually have happened for this test to bite
        # (with the shallow queues they occur at the sender's NIC)
        dropped = sum(iface.queue.stats.dropped
                      for link in net.links
                      for iface in (link.iface_a, link.iface_b))
        assert dropped > 0
