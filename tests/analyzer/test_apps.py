"""Unit tests for the four §5 debugging applications.

These run against small live scenarios (the integration suite covers the
paper's full workloads; here the focus is verdict logic and breakdown
accounting).
"""

import pytest

from repro.analyzer.apps import (diagnose_cascade, diagnose_contention,
                                 diagnose_load_imbalance,
                                 diagnose_red_lights)
from repro.core.epoch import EpochRange


@pytest.fixture(scope="module")
def contention_priority(payload_of):
    return payload_of("contention", m_flows=4)


@pytest.fixture(scope="module")
def contention_fifo(payload_of):
    return payload_of("contention", m_flows=4, discipline="fifo")


class TestDiagnoseContention:
    def test_classifies_priority_contention(self, contention_priority):
        res = contention_priority
        assert res.alerts, "trigger must have fired"
        verdict = diagnose_contention(res.deployment.analyzer,
                                      res.alerts[0])
        assert verdict.problem == "priority-contention"

    def test_culprits_are_the_burst_flows(self, contention_priority):
        res = contention_priority
        verdict = diagnose_contention(res.deployment.analyzer,
                                      res.alerts[0])
        culprit_srcs = {c.flow.src for c in verdict.culprits}
        expected = {f"h1_{j}" for j in range(1, 5)}
        assert expected <= culprit_srcs

    def test_culprit_metadata(self, contention_priority):
        res = contention_priority
        verdict = diagnose_contention(res.deployment.analyzer,
                                      res.alerts[0])
        udp_culprits = [c for c in verdict.culprits
                        if c.flow.is_udp]
        assert udp_culprits
        for c in udp_culprits:
            assert c.priority > 0          # high-priority UDP
            assert c.bytes > 0
            assert c.shared_epochs is not None

    def test_breakdown_has_fig7_phases(self, contention_priority):
        res = contention_priority
        verdict = diagnose_contention(res.deployment.analyzer,
                                      res.alerts[0])
        parts = verdict.breakdown.parts
        for phase in ("problem_detection", "alert_to_analyzer",
                      "pointer_retrieval", "diagnosis"):
            assert phase in parts, phase
        # §5: whole loop well under 100 ms
        assert verdict.total_time_s < 0.100

    def test_classifies_microburst_without_priorities(self,
                                                      contention_fifo):
        res = contention_fifo
        assert res.alerts
        verdict = diagnose_contention(res.deployment.analyzer,
                                      res.alerts[0])
        assert verdict.problem == "microburst-contention"

    def test_hosts_consulted_excludes_victim_destination(
            self, contention_priority):
        res = contention_priority
        verdict = diagnose_contention(res.deployment.analyzer,
                                      res.alerts[0])
        assert res.victim.dst not in verdict.hosts_consulted


class TestDiagnoseRedLights:
    @pytest.fixture(scope="class")
    def result(self, payload_of):
        return payload_of("red-lights")

    def test_finds_culprits_at_both_switches(self, result):
        assert result.alerts
        verdict = diagnose_red_lights(result.deployment.analyzer,
                                      result.alerts[0])
        by_switch = {}
        for c in verdict.culprits:
            by_switch.setdefault(c.switch, set()).add(c.flow.src)
        assert "B" in by_switch.get("S1", set())
        assert "C" in by_switch.get("S2", set())

    def test_culprits_share_epochs_with_victim(self, result):
        verdict = diagnose_red_lights(result.deployment.analyzer,
                                      result.alerts[0])
        assert all(c.shared_epochs is not None for c in verdict.culprits)

    def test_throughput_drops_at_each_switch(self, result):
        """The Fig 3 signal itself: dips at S1 and (deeper) at S2."""
        b1_lo, b1_len = result.burst1
        b2_lo, b2_len = result.burst2
        s1_min = min(g for t, g in result.tput_at_s1.series()
                     if b1_lo <= t <= b1_lo + 2 * b1_len)
        s2_min = min(g for t, g in result.tput_at_s2.series()
                     if b1_lo <= t <= b2_lo + 2 * b2_len)
        assert s1_min < 0.6   # degraded at S1
        assert s2_min <= s1_min  # cumulative at S2


class TestDiagnoseCascade:
    @pytest.fixture(scope="class")
    def cascaded(self, payload_of):
        return payload_of("cascades", cascaded=True)

    def test_full_chain_recovered(self, cascaded):
        assert cascaded.alerts
        verdict = diagnose_cascade(cascaded.deployment.analyzer,
                                   cascaded.alerts[0])
        assert verdict.cascade_chain == [cascaded.flow_ce,
                                         cascaded.flow_af,
                                         cascaded.flow_bd]

    def test_chain_priorities_ascend(self, cascaded):
        verdict = diagnose_cascade(cascaded.deployment.analyzer,
                                   cascaded.alerts[0])
        prios = [c.priority for c in verdict.culprits]
        assert prios == sorted(prios)

    def test_no_cascade_baseline_finishes_earlier(self, payload_of):
        base = payload_of("cascades", cascaded=False)
        casc = payload_of("cascades", cascaded=True)
        assert base.ce_completed_at is not None
        assert casc.ce_completed_at is not None
        assert casc.ce_completed_at > base.ce_completed_at + 0.004

    def test_depth_limit_respected(self, cascaded):
        verdict = diagnose_cascade(cascaded.deployment.analyzer,
                                   cascaded.alerts[0], max_depth=1)
        assert len(verdict.cascade_chain) <= 2


class TestDiagnoseLoadImbalance:
    @pytest.fixture(scope="class")
    def result(self, payload_of):
        return payload_of("load-imbalance", n_servers=8)

    def test_detects_clean_separation(self, result):
        verdict = diagnose_load_imbalance(
            result.deployment.analyzer, result.suspect_switch,
            epochs=EpochRange(0, result.last_epoch))
        assert verdict.imbalanced
        assert result.small_egress in verdict.distribution
        assert result.large_egress in verdict.distribution

    def test_distribution_split_matches_threshold(self, result):
        verdict = diagnose_load_imbalance(
            result.deployment.analyzer, result.suspect_switch,
            epochs=EpochRange(0, result.last_epoch))
        assert all(s < 1_000_000
                   for s in verdict.distribution[result.small_egress])
        assert all(s >= 900_000
                   for s in verdict.distribution[result.large_egress])

    def test_consults_only_receivers(self, result):
        verdict = diagnose_load_imbalance(
            result.deployment.analyzer, result.suspect_switch,
            epochs=EpochRange(0, result.last_epoch))
        assert all(h.startswith("rx") for h in verdict.hosts_consulted)
        assert len(verdict.hosts_consulted) == 8

    def test_healthy_ecmp_not_flagged(self, payload_of):
        res = payload_of("load-imbalance", n_servers=8)
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
