"""Unit tests for the four §5 debugging applications.

These run against small live scenarios (the integration suite covers the
paper's full workloads; here the focus is verdict logic and breakdown
accounting).
"""

from types import SimpleNamespace

import pytest

from repro.analyzer.apps import (_switch_neighbors, diagnose_cascade,
                                 diagnose_contention,
                                 diagnose_load_imbalance,
                                 diagnose_red_lights)
from repro.core.epoch import EpochRange
from repro.simnet.packet import PROTO_UDP
from tests.simnet.test_shortest_paths_equiv import EVERY_FABRIC


@pytest.fixture(scope="module")
def contention_priority(scenario_of):
    return scenario_of("contention", m_flows=4)


@pytest.fixture(scope="module")
def contention_fifo(scenario_of):
    return scenario_of("contention", m_flows=4, discipline="fifo")


class TestDiagnoseContention:
    def test_classifies_priority_contention(self, contention_priority):
        res = contention_priority
        assert res.deployment.alerts(), "trigger must have fired"
        verdict = diagnose_contention(res.deployment.analyzer,
                                      res.deployment.alerts()[0])
        assert verdict.problem == "priority-contention"

    def test_culprits_are_the_burst_flows(self, contention_priority):
        res = contention_priority
        verdict = diagnose_contention(res.deployment.analyzer,
                                      res.deployment.alerts()[0])
        culprit_srcs = {c.flow.src for c in verdict.culprits}
        expected = {f"h1_{j}" for j in range(1, 5)}
        assert expected <= culprit_srcs

    def test_culprit_metadata(self, contention_priority):
        res = contention_priority
        verdict = diagnose_contention(res.deployment.analyzer,
                                      res.deployment.alerts()[0])
        udp_culprits = [c for c in verdict.culprits
                        if c.flow.proto == PROTO_UDP]
        assert udp_culprits
        for c in udp_culprits:
            assert c.priority > 0          # high-priority UDP
            assert c.bytes > 0
            assert c.shared_epochs is not None

    def test_breakdown_has_fig7_phases(self, contention_priority):
        res = contention_priority
        verdict = diagnose_contention(res.deployment.analyzer,
                                      res.deployment.alerts()[0])
        parts = verdict.breakdown.parts
        for phase in ("problem_detection", "alert_to_analyzer",
                      "pointer_retrieval", "diagnosis"):
            assert phase in parts, phase
        # §5: whole loop well under 100 ms
        assert verdict.total_time_s < 0.100

    def test_classifies_microburst_without_priorities(self,
                                                      contention_fifo):
        res = contention_fifo
        assert res.deployment.alerts()
        verdict = diagnose_contention(res.deployment.analyzer,
                                      res.deployment.alerts()[0])
        assert verdict.problem == "microburst-contention"

    def test_hosts_consulted_excludes_victim_destination(
            self, contention_priority):
        res = contention_priority
        verdict = diagnose_contention(res.deployment.analyzer,
                                      res.deployment.alerts()[0])
        assert res.victim.dst not in verdict.hosts_consulted


class TestDiagnoseRedLights:
    @pytest.fixture(scope="class")
    def result(self, scenario_of):
        return scenario_of("red-lights")

    def test_finds_culprits_at_both_switches(self, result):
        assert result.deployment.alerts()
        verdict = diagnose_red_lights(result.deployment.analyzer,
                                      result.deployment.alerts()[0])
        by_switch = {}
        for c in verdict.culprits:
            by_switch.setdefault(c.switch, set()).add(c.flow.src)
        assert "B" in by_switch.get("S1", set())
        assert "C" in by_switch.get("S2", set())

    def test_culprits_share_epochs_with_victim(self, result):
        verdict = diagnose_red_lights(result.deployment.analyzer,
                                      result.deployment.alerts()[0])
        assert all(c.shared_epochs is not None for c in verdict.culprits)

    def test_throughput_drops_at_each_switch(self, result):
        """The Fig 3 signal itself: dips at S1 and (deeper) at S2."""
        b1_lo, b_len = result.p["first_burst"], result.p["burst_duration"]
        b2_lo = result.second_burst
        s1_min = min(g for t, g in result.tput_s1.series()
                     if b1_lo <= t <= b1_lo + 2 * b_len)
        s2_min = min(g for t, g in result.tput_s2.series()
                     if b1_lo <= t <= b2_lo + 2 * b_len)
        assert s1_min < 0.6   # degraded at S1
        assert s2_min <= s1_min  # cumulative at S2


class TestDiagnoseCascade:
    @pytest.fixture(scope="class")
    def cascaded(self, scenario_of):
        return scenario_of("cascades", cascaded=True)

    def test_full_chain_recovered(self, cascaded):
        assert cascaded.deployment.alerts()
        verdict = diagnose_cascade(cascaded.deployment.analyzer,
                                   cascaded.deployment.alerts()[0])
        assert verdict.cascade_chain == [cascaded.flow_ce,
                                         cascaded.src_af.flow,
                                         cascaded.src_bd.flow]

    def test_chain_priorities_ascend(self, cascaded):
        verdict = diagnose_cascade(cascaded.deployment.analyzer,
                                   cascaded.deployment.alerts()[0])
        prios = [c.priority for c in verdict.culprits]
        assert prios == sorted(prios)

    def test_no_cascade_baseline_finishes_earlier(self, scenario_of):
        base = scenario_of("cascades", cascaded=False)
        casc = scenario_of("cascades", cascaded=True)
        base_done = base.ce_app.completed_at
        casc_done = casc.ce_app.completed_at
        assert base_done is not None and casc_done is not None
        assert casc_done > base_done + 0.004


class TestDiagnoseLoadImbalance:
    @pytest.fixture(scope="class")
    def result(self, scenario_of):
        return scenario_of("load-imbalance", n_servers=8)

    def test_detects_clean_separation(self, result):
        verdict = diagnose_load_imbalance(
            result.deployment.analyzer, "S1",
            epochs=EpochRange(0, result.last_epoch))
        assert verdict.imbalanced
        assert "SPA" in verdict.distribution
        assert "SPB" in verdict.distribution

    def test_distribution_split_matches_threshold(self, result):
        verdict = diagnose_load_imbalance(
            result.deployment.analyzer, "S1",
            epochs=EpochRange(0, result.last_epoch))
        assert all(s < 1_000_000
                   for s in verdict.distribution["SPA"])
        assert all(s >= 900_000
                   for s in verdict.distribution["SPB"])

    def test_consults_only_receivers(self, result):
        verdict = diagnose_load_imbalance(
            result.deployment.analyzer, "S1",
            epochs=EpochRange(0, result.last_epoch))
        assert all(h.startswith("rx") for h in verdict.hosts_consulted)
        assert len(verdict.hosts_consulted) == 8

    def test_healthy_ecmp_not_flagged(self, scenario_of):
        res = scenario_of("load-imbalance", n_servers=8)
        # remove the malfunction and replay fresh traffic: new scenario
        # without override
        net = res.network
        net.switches["S1"].forwarding_override = None
        from repro.simnet.traffic import UdpCbrSource
        for i in range(8):
            UdpCbrSource(net.sim, net.hosts[f"tx{i}"], f"rx{i}",
                         sport=7001, dport=7000, rate_bps=2e9,
                         start=net.sim.now + 0.001, duration=0.004)
        net.run(until=net.sim.now + 0.010)
        last = res.deployment.datapaths["S1"].clock.epoch_of(net.sim.now)
        verdict = diagnose_load_imbalance(
            res.deployment.analyzer, "S1", epochs=EpochRange(0, last))
        # ECMP mixes sizes across both spines: no clean separation
        assert not verdict.imbalanced


@pytest.mark.parametrize("build", EVERY_FABRIC)
def test_switch_neighbors_are_physical_adjacency(build):
    """The adjacency read names the same peers as a scan of every link,
    and a peer whose link is down is still named (the flapped egress
    must stay visible to the link-flap census)."""
    net = build()
    analyzer = SimpleNamespace(network=net)
    for switch, node in net.switches.items():
        scanned = {link.peer_of(node).name for link in net.links
                   if node in (link.a, link.b)
                   and link.peer_of(node).name in net.switches}
        assert _switch_neighbors(analyzer, switch) == scanned
    for link in net.links:
        if link.a.name in net.switches and link.b.name in net.switches:
            link.set_down()
            assert link.b.name in _switch_neighbors(analyzer, link.a.name)
            assert link.a.name in _switch_neighbors(analyzer, link.b.name)
            link.set_up()
