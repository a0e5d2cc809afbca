"""Integration tests for deployment wiring, fat-tree decode, skew, offline
path."""

import pytest

from repro import SwitchPointerDeployment
from repro.core.epoch import EpochRange
from repro.core.mphf import HostDirectory
from repro.core.sizing import store_memory_bits
from repro.simnet.packet import make_udp
from repro.simnet.topology import build_fat_tree, build_linear
from repro.switchd.agent import RecycledEpochError


class TestDeploymentWiring:
    def test_every_switch_and_host_instrumented(self):
        net = build_linear(3, 2)
        deploy = SwitchPointerDeployment(net)
        assert set(deploy.datapaths) == set(net.switches)
        assert set(deploy.switch_agents) == set(net.switches)
        assert set(deploy.host_agents) == set(net.hosts)

    def test_defaults_follow_paper_example(self):
        net = build_linear(2, 1)
        deploy = SwitchPointerDeployment(net)
        assert deploy.alpha_ms == 10
        assert deploy.k == 3
        assert deploy.epsilon_ms == 10   # ε = α
        assert deploy.delta_ms == 20     # Δ = 2α

    def test_total_pointer_memory_matches_formula(self):
        net = build_linear(3, 2)
        deploy = SwitchPointerDeployment(net, alpha_ms=10, k=3)
        expected = 3 * store_memory_bits(len(net.hosts), 10, 3)
        assert deploy.total_pointer_memory_bits() == expected


class TestVlanOnFatTree:
    def test_deployment_decodes_everywhere(self):
        """One aggregate-core link pins a 5-hop inter-pod path (§4.1.3):
        the destination decodes every hop from the one tag."""
        net = build_fat_tree(4)
        deploy = SwitchPointerDeployment(net, epsilon_ms=1, delta_ms=2)
        src, dst = "h0_0_0", "h3_1_1"
        for _ in range(3):
            net.hosts[src].send(make_udp(src, dst, 1, 9, 500))
        net.run()
        rec = deploy.host_agents[dst].store.get(
            next(iter(deploy.host_agents[dst].store)).flow)
        assert len(rec.switch_path) == 5
        # every traversed switch's pointer names the destination
        for sw in rec.switch_path:
            hosts = deploy.analyzer.hosts_for(sw, EpochRange(0, 0))
            assert dst in hosts


class TestClockSkew:
    def test_skewed_deployment_still_covers_truth(self):
        skews = {"S1": 0.004, "S2": -0.004, "S3": 0.002}
        net = build_linear(3, 1)
        deploy = SwitchPointerDeployment(
            net, alpha_ms=10, epsilon_ms=10, delta_ms=20,
            skew_of=lambda n: skews.get(n, 0.0))
        send_at = 0.0499
        net.sim.schedule(send_at, lambda: net.hosts["h1_0"].send(
            make_udp("h1_0", "h3_0", 1, 9, 500)))
        net.run()
        rec = next(iter(deploy.host_agents["h3_0"].store))
        for sw in ("S1", "S2", "S3"):
            clock = deploy.datapaths[sw].clock
            true_epoch = clock.epoch_of(send_at)
            rng = rec.epochs_at(sw)
            assert true_epoch in rng, (sw, true_epoch, (rng.lo, rng.hi))
            # and the pointer at that switch is in the recorded epoch
            hosts = deploy.analyzer.hosts_for(sw, rng)
            assert "h3_0" in hosts


class TestOfflineDiagnosisPath:
    def test_recycled_epochs_still_answerable_from_pushes(self):
        """After live level-1 sets recycle, the pushed top-level history
        must still name the hosts (coarser window — §4.1.1's offline
        path)."""
        net = build_linear(2, 2)
        deploy = SwitchPointerDeployment(net, alpha_ms=4, k=2,
                                         epsilon_ms=1, delta_ms=2)
        sim = net.sim
        net.hosts["h1_0"].send(make_udp("h1_0", "h2_0", 1, 9, 500))
        # advance time far beyond level-1 retention (alpha^2 = 16 ms)
        for t in (0.050, 0.090, 0.130, 0.170):
            sim.schedule(t, lambda: net.hosts["h1_1"].send(
                make_udp("h1_1", "h2_1", 2, 9, 500)))
        net.run()
        # live level-1 window for epoch 0 is long recycled, and a
        # fixed-level read says so instead of answering "nobody"
        agent = deploy.switch_agents["S1"]
        with pytest.raises(RecycledEpochError):
            agent.pull(1, 0, 0)
        # the default read falls back to the pushes and names the host
        assert agent.best_effort_snapshots(0, 0)[1] == "offline"
        assert "h2_0" in deploy.analyzer.hosts_for("S1", EpochRange(0, 0))


class TestDirectoryChurn:
    def test_rebuild_and_rewire(self):
        net = build_linear(2, 2)
        deploy = SwitchPointerDeployment(net, alpha_ms=10, k=2)
        new_dir = HostDirectory(net.host_names)
        deploy.analyzer.directory = new_dir
        # distribute: swap MPHF on every datapath (what the paper's
        # analyzer push does)
        for dp in deploy.datapaths.values():
            dp.mphf = new_dir.mphf
        net.hosts["h1_0"].send(make_udp("h1_0", "h2_0", 1, 9, 500))
        net.run()
        assert deploy.analyzer.hosts_for("S1", EpochRange(0, 0)) == ["h2_0"]

    def test_swap_after_traffic_forgets_old_slots(self):
        """A datapath that already forwarded to a destination must not
        keep using the slot the *old* function gave it: the analyzer
        would decode that bit to a different host under the new one."""
        net = build_linear(2, 8)
        deploy = SwitchPointerDeployment(net, alpha_ms=10, k=2)

        def send():
            net.hosts["h1_0"].send(make_udp("h1_0", "h2_0", 1, 9, 500))

        send()
        net.run()
        assert deploy.analyzer.hosts_for("S1", EpochRange(0, 0)) == ["h2_0"]
        # a second, different function over the same hosts
        new_dir = HostDirectory(net.host_names, bucket_load=1.0)
        assert new_dir.slot_of("h2_0") != deploy.directory.slot_of("h2_0")
        deploy.analyzer.directory = new_dir
        for dp in deploy.datapaths.values():
            dp.mphf = new_dir.mphf
        net.sim.schedule_at(0.050, send)
        net.run()
        assert deploy.analyzer.hosts_for("S1", EpochRange(5, 5)) == ["h2_0"]
