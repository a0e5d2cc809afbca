"""FaultPlan composition edge cases: same-switch faults, ordering,
late-scheduled faults, and lifecycle bookkeeping."""

import pytest

from repro.deployment import SwitchPointerDeployment
from repro.faults import (ACTIVE, FAULTS, FaultContext, FaultError,
                          FaultPlan, HEALED, PENDING)
from repro.simnet.packet import PROTO_UDP, FlowKey, Packet
from repro.simnet.topology import build_leaf_spine, build_linear


def _ctx(net, deploy=None):
    return FaultContext(net, deploy)


class TestSameSwitchComposition:
    """Two faults on one switch must compose and unwind cleanly."""

    def test_drop_and_polarization_coexist_on_one_switch(self):
        net = build_leaf_spine(n_leaves=2, n_spines=2, hosts_per_leaf=1)
        sw = net.switches["leaf0"]
        victim = FlowKey("h0_0", "h1_0", 5, 5, PROTO_UDP)
        plan = FaultPlan()
        plan.add_named("silent-drop", switch="leaf0", flows=(victim,),
                       start=0.001, stop=0.003)
        plan.add_named("ecmp-polarization", switch="leaf0",
                       start=0.001, stop=0.003)
        plan.schedule(_ctx(net))
        net.run(until=0.002)
        assert sw.drop_filter is not None and sw.ecmp_hash is not None
        assert sw.drop_filter(Packet(flow=victim, size=100))
        net.run(until=0.004)
        # both healed: the switch is back to its pristine hooks
        assert sw.drop_filter is None and sw.ecmp_hash is None
        assert all(f.state == HEALED for f in plan)

    def test_overlapping_drops_heal_in_any_order(self):
        """A(1..3ms) and B(2..4ms) on one switch: healing A mid-chain
        must not disable B, and healing B must not resurrect A."""
        net = build_linear(2, hosts_per_switch=1)
        sw = net.switches["S1"]
        fa = FlowKey("h1_0", "h2_0", 1, 1, PROTO_UDP)
        fb = FlowKey("h1_0", "h2_0", 2, 2, PROTO_UDP)
        plan = FaultPlan()
        plan.add_named("silent-drop", switch="S1", flows=(fa,),
                       start=0.001, stop=0.003)
        plan.add_named("silent-drop", switch="S1", flows=(fb,),
                       start=0.002, stop=0.004)
        plan.schedule(_ctx(net))
        net.run(until=0.0035)       # A healed, B still active
        assert not sw.drop_filter(Packet(flow=fa, size=100))
        assert sw.drop_filter(Packet(flow=fb, size=100))
        net.run(until=0.005)        # both healed
        if sw.drop_filter is not None:   # inert residue is allowed
            assert not sw.drop_filter(Packet(flow=fa, size=100))
            assert not sw.drop_filter(Packet(flow=fb, size=100))

    def test_two_drop_faults_chain_their_filters(self):
        net = build_linear(2, hosts_per_switch=1)
        sw = net.switches["S1"]
        f1 = FlowKey("h1_0", "h2_0", 1, 1, PROTO_UDP)
        f2 = FlowKey("h1_0", "h2_0", 2, 2, PROTO_UDP)
        survivor = FlowKey("h1_0", "h2_0", 3, 3, PROTO_UDP)
        plan = FaultPlan()
        plan.add_named("silent-drop", switch="S1", flows=(f1,),
                       start=0.001)
        plan.add_named("silent-drop", switch="S1", flows=(f2,),
                       start=0.002, stop=0.004)
        plan.schedule(_ctx(net))
        net.run(until=0.003)
        # while both are active, both slices drop, bystanders pass
        assert sw.drop_filter(Packet(flow=f1, size=100))
        assert sw.drop_filter(Packet(flow=f2, size=100))
        assert not sw.drop_filter(Packet(flow=survivor, size=100))
        net.run(until=0.005)
        # the second fault healed: the first fault's filter is intact
        assert sw.drop_filter(Packet(flow=f1, size=100))
        assert not sw.drop_filter(Packet(flow=f2, size=100))


class TestOrdering:
    def test_heal_before_inject_rejected_on_mutated_plan(self):
        """A plan whose fault was mutated into stop<=start after
        construction still refuses to schedule it."""
        net = build_linear(2, hosts_per_switch=1)
        plan = FaultPlan()
        fault = plan.add_named("silent-drop", switch="S1",
                               start=0.010, stop=0.020)
        fault.p["stop"] = 0.005     # sneak past the constructor check
        with pytest.raises(FaultError, match="heal scheduled before"):
            plan.schedule(_ctx(net))

    def test_double_injection_rejected(self):
        net = build_linear(2, hosts_per_switch=1)
        fault = FAULTS.get("silent-drop")(switch="S1", start=0.001)
        plan = FaultPlan([fault])
        plan.schedule(_ctx(net))
        net.run(until=0.002)
        with pytest.raises(FaultError, match="injected twice"):
            fault._fire_inject(_ctx(net))

    def test_heal_without_inject_rejected(self):
        net = build_linear(2, hosts_per_switch=1)
        fault = FAULTS.get("silent-drop")(switch="S1", start=0.010)
        with pytest.raises(FaultError, match="must be active"):
            fault._fire_heal(_ctx(net))


class TestLateFault:
    """A fault scheduled after the run (and diagnosis) window ends."""

    def test_fault_past_run_end_stays_pending(self):
        net = build_linear(2, hosts_per_switch=1)
        plan = FaultPlan()
        plan.add_named("silent-drop", switch="S1", start=0.050)
        plan.schedule(_ctx(net))
        net.run(until=0.010)        # "diagnosis" would happen here
        assert [(f.spec.name, f.state) for f in plan.faults] == [
            ("silent-drop", "pending")]
        assert net.switches["S1"].drop_filter is None

    def test_pending_fault_fires_if_the_run_continues(self):
        net = build_linear(2, hosts_per_switch=1)
        plan = FaultPlan()
        fault = plan.add_named("silent-drop", switch="S1", start=0.050)
        plan.schedule(_ctx(net))
        net.run(until=0.010)
        assert fault.state == PENDING
        net.run(until=0.060)
        assert fault.state == ACTIVE
        assert net.switches["S1"].drop_filter is not None


class TestPlanBookkeeping:
    def test_schedule_twice_rejected(self):
        net = build_linear(2, hosts_per_switch=1)
        plan = FaultPlan()
        plan.add_named("silent-drop", switch="S1", start=0.001)
        plan.schedule(_ctx(net))
        with pytest.raises(FaultError, match="already scheduled"):
            plan.schedule(_ctx(net))

    def test_add_after_schedule_rejected(self):
        net = build_linear(2, hosts_per_switch=1)
        plan = FaultPlan()
        plan.add_named("silent-drop", switch="S1", start=0.001)
        plan.schedule(_ctx(net))
        with pytest.raises(FaultError, match="already-scheduled"):
            plan.add_named("silent-drop", switch="S2", start=0.002)

    def test_status_reports_every_fault(self):
        plan = FaultPlan()
        plan.add_named("silent-drop", switch="S1", start=0.001)
        plan.add_named("link-down", a="S1", b="S2", start=0.002)
        lines = plan.status()
        assert len(lines) == 2
        assert "silent-drop" in lines[0] and "link-down" in lines[1]

    def test_unknown_switch_fails_at_schedule_not_fire_time(self):
        net = build_linear(2, hosts_per_switch=1)
        plan = FaultPlan()
        plan.add_named("silent-drop", switch="S99", start=0.001)
        with pytest.raises(FaultError, match="unknown switch"):
            plan.schedule(_ctx(net))

    def test_deployment_requiring_fault_without_deployment(self):
        net = build_linear(2, hosts_per_switch=1)
        plan = FaultPlan()
        plan.add_named("clock-skew", skew_ms=2.0, start=0.001)
        plan.schedule(_ctx(net, deploy=None))
        with pytest.raises(FaultError, match="needs an instrumented"):
            net.run(until=0.002)

    def test_clock_skew_heals_to_original_offsets(self):
        net = build_linear(2, hosts_per_switch=1)
        deploy = SwitchPointerDeployment(net, alpha_ms=10, k=2)
        before = {n: dp.clock.skew_s
                  for n, dp in deploy.datapaths.items()}
        plan = FaultPlan()
        plan.add_named("clock-skew", skew_ms=3.0, start=0.001,
                       stop=0.005)
        plan.schedule(_ctx(net, deploy))
        net.run(until=0.002)
        skews = {n: dp.clock.skew_s for n, dp in deploy.datapaths.items()}
        assert any(abs(s) > 0 for s in skews.values())
        assert all(abs(s) <= 3e-3 for s in skews.values())
        net.run(until=0.006)
        after = {n: dp.clock.skew_s for n, dp in deploy.datapaths.items()}
        assert after == before
