"""Unit tests for the extended debugging apps (§2.4 use cases)."""

import pytest

from repro import SwitchPointerDeployment
from repro.analyzer.netdebug import (_is_shortest, check_path_conformance,
                                     localize_packet_drops)
from repro.core.epoch import EpochRange
from repro.simnet.packet import FlowKey, PROTO_UDP, make_udp
from repro.simnet.topology import build_linear


def blackhole_after(net, switch_name: str) -> None:
    """Make a switch drop everything toward far destinations."""
    net.switches[switch_name].clear_routes()


class TestDropLocalization:
    def run_blackhole(self, fail_switch):
        net = build_linear(4, 1)
        deploy = SwitchPointerDeployment(net, alpha_ms=10, k=2,
                                         epsilon_ms=1, delta_ms=2)
        src, dst = "h1_0", "h4_0"
        # healthy phase: epochs 0-1
        for t in (0.001, 0.011):
            net.sim.schedule_at(t, lambda: net.hosts[src].send(
                make_udp(src, dst, 1, 9, 400)))
        # fault at 20 ms, then more traffic in epochs 2-4
        net.sim.schedule_at(0.020, lambda: blackhole_after(net,
                                                           fail_switch))
        for t in (0.025, 0.035, 0.045):
            net.sim.schedule_at(t, lambda: net.hosts[src].send(
                make_udp(src, dst, 1, 9, 400)))
        net.run()
        flow = FlowKey(src, dst, 1, 9, PROTO_UDP)
        return deploy, flow

    def test_cut_found_at_failed_switch(self):
        deploy, flow = self.run_blackhole("S3")
        loc = localize_packet_drops(
            deploy.analyzer, flow, ["S1", "S2", "S3", "S4"],
            EpochRange(2, 4))
        assert loc.localized
        # S3 dropped: S1, S2 kept forwarding; S3's pointer has the bit
        # only if it forwarded — routes cleared, so it did not
        assert loc.suspect_hop == ("S2", "S3")
        assert "S1" in loc.forwarding and "S2" in loc.forwarding
        assert "S3" in loc.silent and "S4" in loc.silent

    def test_cut_at_first_hop(self):
        deploy, flow = self.run_blackhole("S1")
        loc = localize_packet_drops(
            deploy.analyzer, flow, ["S1", "S2", "S3", "S4"],
            EpochRange(2, 4))
        assert loc.localized
        assert loc.suspect_hop == ("h1_0", "S1")
        assert loc.forwarding == []

    def test_healthy_window_not_localized(self):
        deploy, flow = self.run_blackhole("S3")
        loc = localize_packet_drops(
            deploy.analyzer, flow, ["S1", "S2", "S3", "S4"],
            EpochRange(0, 1))
        assert not loc.localized
        assert loc.silent == []

    def test_breakdown_charges_pointer_pulls(self):
        deploy, flow = self.run_blackhole("S3")
        loc = localize_packet_drops(
            deploy.analyzer, flow, ["S1", "S2", "S3", "S4"],
            EpochRange(2, 4))
        per = deploy.analyzer.rpc.model.pointer_pull_s
        assert loc.breakdown.parts["pointer_retrieval"] == \
            pytest.approx(4 * per)


class TestPathConformance:
    def test_all_conformant_on_clean_network(self):
        net = build_linear(3, 2)
        deploy = SwitchPointerDeployment(net, alpha_ms=10, k=2,
                                         epsilon_ms=1, delta_ms=2)
        net.hosts["h1_0"].send(make_udp("h1_0", "h3_0", 1, 9, 400))
        net.hosts["h2_0"].send(make_udp("h2_0", "h3_1", 2, 9, 400))
        net.run()
        report = check_path_conformance(deploy.analyzer)
        assert report.flows_checked == 2
        assert report.violations == []

    def test_off_policy_pin_detected(self):
        net = build_linear(3, 1)
        deploy = SwitchPointerDeployment(net, alpha_ms=10, k=2,
                                         epsilon_ms=1, delta_ms=2)
        net.hosts["h1_0"].send(make_udp("h1_0", "h3_0", 1, 9, 400))
        net.run()
        flow = FlowKey("h1_0", "h3_0", 1, 9, PROTO_UDP)
        # policy says this flow must avoid S2 (impossible here) —
        # conformance must flag it
        report = check_path_conformance(
            deploy.analyzer,
            expected_paths={flow: ["S1", "S9", "S3"]})
        assert report.violations
        assert report.violations[0].kind == "off-policy"

    def test_loop_detected_from_forged_record(self):
        """A record whose trajectory repeats a switch is flagged."""
        net = build_linear(3, 1)
        deploy = SwitchPointerDeployment(net, alpha_ms=10, k=2,
                                         epsilon_ms=1, delta_ms=2)
        net.hosts["h1_0"].send(make_udp("h1_0", "h3_0", 1, 9, 400))
        net.run()
        agent = deploy.host_agents["h3_0"]
        rec = next(iter(agent.store))
        rec.switch_path = ["S1", "S2", "S1", "S2", "S3"]  # loop
        report = check_path_conformance(deploy.analyzer)
        kinds = {v.kind for v in report.violations}
        assert "loop" in kinds

    def test_non_shortest_flagged(self):
        net = build_linear(3, 1)
        deploy = SwitchPointerDeployment(net, alpha_ms=10, k=2,
                                         epsilon_ms=1, delta_ms=2)
        net.hosts["h1_0"].send(make_udp("h1_0", "h2_0", 1, 9, 400))
        net.run()
        agent = deploy.host_agents["h2_0"]
        rec = next(iter(agent.store))
        rec.switch_path = ["S1", "S3", "S2"]  # detour, loop-free
        report = check_path_conformance(deploy.analyzer)
        kinds = {v.kind for v in report.violations}
        assert "non-shortest" in kinds

    def test_scoped_to_named_hosts(self):
        net = build_linear(2, 2)
        deploy = SwitchPointerDeployment(net, alpha_ms=10, k=2,
                                         epsilon_ms=1, delta_ms=2)
        net.hosts["h1_0"].send(make_udp("h1_0", "h2_0", 1, 9, 400))
        net.hosts["h1_1"].send(make_udp("h1_1", "h2_1", 2, 9, 400))
        net.run()
        report = check_path_conformance(deploy.analyzer,
                                        hosts=["h2_0"])
        assert report.flows_checked == 1

    def test_unknown_or_unreachable_endpoint_reads_as_non_shortest(self):
        """A record naming a decommissioned or islanded host has no
        shortest path to conform to — a violation, not a crash."""
        net = build_linear(3, 1)
        net.add_host("island")
        cache = {}
        for src, dst in (("h1_0", "nope"), ("nope", "h3_0"),
                         ("h1_0", "island"), ("island", "h3_0")):
            flow = FlowKey(src, dst, 1, 9, PROTO_UDP)
            assert not _is_shortest(net, flow, ["S1", "S2", "S3"], cache)
            assert cache[src, dst] is None
        good = FlowKey("h1_0", "h3_0", 1, 9, PROTO_UDP)
        assert _is_shortest(net, good, ["S1", "S2", "S3"], cache)

    def test_unrelated_error_inside_the_search_propagates(self,
                                                          monkeypatch):
        """Only ``NoPathError`` means "no shortest path"; the sweep used
        to swallow every exception and report a routing violation."""
        net = build_linear(3, 1)
        deploy = SwitchPointerDeployment(net, alpha_ms=10, k=2,
                                         epsilon_ms=1, delta_ms=2)
        net.hosts["h1_0"].send(make_udp("h1_0", "h3_0", 1, 9, 400))
        net.run()

        def broken(a, b):
            raise RuntimeError("search blew up")

        monkeypatch.setattr(net, "attach_paths", broken)
        with pytest.raises(RuntimeError, match="search blew up"):
            check_path_conformance(deploy.analyzer)
