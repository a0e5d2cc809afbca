"""Concrete fault behaviors: partial deployment, agent crash, link
outage — inject and heal, against a live deployment."""

import pytest

from repro.deployment import SwitchPointerDeployment
from repro.faults import (FAULTS, FaultContext, FaultError, FaultPlan,
                          port_blind_hash)
from repro.simnet.packet import PRIO_LOW, PROTO_UDP, FlowKey, _flow_hash, make_udp
from repro.simnet.topology import build_leaf_spine, build_linear
from repro.simnet.traffic import UdpCbrSource, UdpSink


def _deployed_linear(n_switches=4, hosts_per_switch=1):
    net = build_linear(n_switches, hosts_per_switch=hosts_per_switch)
    deploy = SwitchPointerDeployment(net, alpha_ms=10, k=2)
    return net, deploy


class TestPartialDeployment:
    def test_strips_and_restores_instrumentation(self):
        net, deploy = _deployed_linear()
        plan = FaultPlan()
        fault = plan.add_named("partial-deployment", frac=0.5,
                               spare="S1", start=0.001, stop=0.005)
        plan.schedule(FaultContext(net, deploy))
        net.run(until=0.002)
        assert len(fault.removed) == 2
        assert "S1" not in fault.removed
        for name in fault.removed:
            assert name not in deploy.datapaths
            assert name not in deploy.switch_agents
            assert not deploy.analyzer.is_instrumented(name)
        assert deploy.uninstrumented_switches == sorted(fault.removed)
        net.run(until=0.006)
        assert deploy.uninstrumented_switches == []
        assert set(deploy.datapaths) == set(net.switches)

    def test_stripped_switch_records_no_pointers(self):
        net, deploy = _deployed_linear()
        deploy.uninstrument_switch("S2")
        UdpSink(net.hosts["h4_0"], 7)
        UdpCbrSource(net.sim, net.hosts["h1_0"], "h4_0", sport=7,
                     dport=7, rate_bps=1e6, packet_size=500,
                     priority=PRIO_LOW, start=0.0, duration=0.02)
        net.run(until=0.03)
        # instrumented switches processed packets; S2 forwarded but
        # observed nothing
        assert deploy.datapaths["S1"].packets_processed > 0
        assert net.switches["S2"].forwarded > 0

    def test_analyzer_falls_back_to_all_hosts(self):
        from repro.core.epoch import EpochRange
        net, deploy = _deployed_linear()
        deploy.uninstrument_switch("S3")
        hosts = deploy.analyzer.hosts_for("S3", EpochRange(0, 5))
        assert hosts == sorted(net.hosts)

    def test_analyzer_still_raises_for_nonexistent_switch(self):
        # the host-only fallback is for *uninstrumented* switches; a
        # typo'd name must not come back as a plausible all-hosts list
        from repro.core.epoch import EpochRange
        _net, deploy = _deployed_linear()
        with pytest.raises(KeyError):
            deploy.analyzer.hosts_for("S99", EpochRange(0, 5))

    def test_clock_skew_heals_across_concurrent_stripping(self):
        # a partial-deployment fault removes switches from the
        # deployment between the skew fault's inject and heal; their
        # clocks must still be restored on heal
        net, deploy = _deployed_linear()
        clocks_before = {n: dp.clock.skew_s
                         for n, dp in deploy.datapaths.items()}
        plan = FaultPlan()
        plan.add_named("clock-skew", skew_ms=3.0, start=0.001,
                       stop=0.010)
        plan.add_named("partial-deployment", frac=0.5, spare="S1",
                       start=0.002)
        plan.schedule(FaultContext(net, deploy))
        net.run(until=0.012)
        stripped = deploy.uninstrumented_switches
        assert stripped                      # the composition happened
        for name, (dp, _agent) in deploy._stripped.items():
            assert dp.clock.skew_s == clocks_before[name]
        for name, dp in deploy.datapaths.items():
            assert dp.clock.skew_s == clocks_before[name]

    def test_unknown_spare_rejected(self):
        net, deploy = _deployed_linear()
        fault = FAULTS.get("partial-deployment")(frac=0.5, spare="S9")
        with pytest.raises(FaultError, match="unknown switch"):
            fault.inject(FaultContext(net, deploy))

    def test_bad_frac_rejected(self):
        with pytest.raises(FaultError, match="frac"):
            FAULTS.get("partial-deployment")(frac=1.5)

    def test_double_uninstrument_rejected(self):
        _net, deploy = _deployed_linear()
        deploy.uninstrument_switch("S2")
        with pytest.raises(ValueError, match="already"):
            deploy.uninstrument_switch("S2")


class TestAgentCrash:
    def _traffic(self, net, duration=0.03):
        UdpSink(net.hosts["h2_0"], 7)
        UdpCbrSource(net.sim, net.hosts["h1_0"], "h2_0", sport=7,
                     dport=7, rate_bps=2e6, packet_size=500,
                     priority=PRIO_LOW, start=0.0, duration=duration)

    def test_crash_loses_records_and_stops_sniffing(self):
        net = build_linear(2, hosts_per_switch=1)
        deploy = SwitchPointerDeployment(net, alpha_ms=10, k=2)
        self._traffic(net)
        plan = FaultPlan()
        fault = plan.add_named("agent-crash", host="h2_0", start=0.015)
        plan.schedule(FaultContext(net, deploy))
        net.run(until=0.035)
        agent = deploy.host_agents["h2_0"]
        assert fault.records_lost > 0
        assert not agent.alive
        assert len(agent.store) == 0    # nothing sniffed since the crash

    def test_restart_resumes_with_empty_table(self):
        net = build_linear(2, hosts_per_switch=1)
        deploy = SwitchPointerDeployment(net, alpha_ms=10, k=2)
        self._traffic(net, duration=0.04)
        plan = FaultPlan()
        plan.add_named("agent-crash", host="h2_0", start=0.015,
                       stop=0.020)
        plan.schedule(FaultContext(net, deploy))
        net.run(until=0.045)
        agent = deploy.host_agents["h2_0"]
        assert agent.alive
        # post-restart traffic repopulated the table
        assert len(agent.store) == 1

    def test_crash_is_idempotent(self):
        net = build_linear(2, hosts_per_switch=1)
        deploy = SwitchPointerDeployment(net, alpha_ms=10, k=2)
        agent = deploy.host_agents["h2_0"]
        agent.crash()
        assert agent.crash() == 0
        agent.restart()
        agent.restart()                      # no double re-attach
        assert len(agent.host.sniffers) == len(agent._sniffers)


class TestLinkDown:
    def test_outage_reroutes_and_heal_restores(self):
        net = build_leaf_spine(n_leaves=2, n_spines=2, hosts_per_leaf=1)
        plan = FaultPlan()
        plan.add_named("link-down", a="leaf0", b="spine0",
                       start=0.005, stop=0.020, reconverge_delay=0.0)
        plan.schedule(FaultContext(net))
        net.run(until=0.010)
        link = net.link_between("leaf0", "spine0")
        assert not link.up
        # forwarding at leaf0 has converged onto spine1 only
        routes = net.switches["leaf0"].routes_for("h1_0")
        assert len(routes) == 1
        net.run(until=0.025)
        assert link.up
        assert len(net.switches["leaf0"].routes_for("h1_0")) == 2


class TestEcmpPolarizationGroundTruth:
    @pytest.fixture
    def fabric(self):
        net = build_leaf_spine(2, 2, 2)
        fault = FAULTS.get("ecmp-polarization")(switch="leaf0")
        return net, fault, FaultContext(net)

    def test_expected_egress_names_a_spine(self, fabric):
        _, fault, ctx = fabric
        flow = FlowKey("h0_0", "h1_0", 1000, 2000, PROTO_UDP)
        assert fault.expected_egress(ctx, flow) in ("spine0", "spine1")

    def test_installed_hash_memoizes_for_itself_and_heals(self, fabric):
        """Each injection's hash keeps its own memo per host pair (gone
        with the heal): flows of one pair share an entry.  Packets still
        carry their healthy hash, which the switch overrides only while
        the blind one is installed, and a hash stacked on top survives
        the polarization's heal."""
        net, fault, ctx = fabric
        sw = net.switches["leaf0"]
        fault.inject(ctx)
        blind = sw.ecmp_hash
        seen = []
        sw.pipeline.append(lambda s, p, i, o: seen.append((p, o)))
        for sport in (5, 6, 7):
            net.hosts["h0_0"].send(make_udp("h0_0", "h1_0", sport, 9, 500))
        net.run()
        key = FlowKey("h0_0", "h1_0", 5, 9, PROTO_UDP)
        assert dict(blind) == {("h0_0", "h1_0", PROTO_UDP):
                               port_blind_hash(key)}
        candidates = sw.routes_for("h1_0")
        assert len(seen) == 3
        for pkt, out in seen:
            assert pkt.ecmp == _flow_hash(pkt.flow)
            assert out is candidates[port_blind_hash(key) % len(candidates)]
        fault.heal(ctx)
        assert sw.ecmp_hash is None
        fault.inject(ctx)
        assert sw.ecmp_hash is not blind and len(sw.ecmp_hash) == 0
        sw.ecmp_hash = stacked = lambda flow: 0
        fault.heal(ctx)
        assert sw.ecmp_hash is stacked

    @pytest.mark.parametrize("dst", ["h1_0", "nowhere"],
                             ids=["access_link_down", "unknown_host"])
    def test_expected_egress_without_a_route_is_a_fault_error(
            self, fabric, dst):
        net, fault, ctx = fabric
        net.set_link_state("leaf1", "h1_0", up=False)
        flow = FlowKey("h0_0", dst, 1000, 2000, PROTO_UDP)
        with pytest.raises(FaultError, match=f"'leaf0'.*{dst!r}"):
            fault.expected_egress(ctx, flow)
