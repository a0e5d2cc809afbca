"""Tests for the scenario builders themselves (parameters, topology,
invariants) — the experiment definitions must be trustworthy since
examples, tests, and benchmarks all share them."""

import pytest

from repro.scenarios import (ScenarioError, build_cascades_network,
                             build_load_imbalance_network,
                             build_red_lights_network, run_scenario)


class TestContentionScenario:
    def test_invalid_discipline_rejected(self):
        with pytest.raises(ValueError):
            run_scenario("contention", m_flows=2, discipline="wfq")

    @pytest.mark.parametrize("name", ["contention", "microburst"])
    def test_negative_burst_size_rejected(self, name):
        # refused by the knob contract, before any MPHF is built over
        # zero keys
        with pytest.raises(ScenarioError, match="knob 'm_flows' of"):
            run_scenario(name, m_flows=-1)

    def test_burst_flows_have_distinct_pairs(self, scenario_of):
        res = scenario_of("contention", m_flows=4, duration=0.030,
                         burst_start=0.005, watch=False)
        # m+1 sender/receiver pairs exist; victim uses pair 0
        assert res.victim.src == "h1_0" and res.victim.dst == "h2_0"
        assert len(res.network.hosts) == 2 * (4 + 1)

    def test_result_metrics_present(self, scenario_of):
        res = scenario_of("contention", m_flows=2, duration=0.030,
                         burst_start=0.005, watch=False)
        assert res.starvation_ms() >= 0
        assert res.max_gap_ms() > 0
        assert res.tput.total_bytes > 0

    def test_no_watch_means_no_alerts(self):
        result = run_scenario("contention", m_flows=2, duration=0.030,
                              watch=False)
        assert result.deployment.alerts() == []
        assert result.verdicts == []


class TestRedLightsTopology:
    def test_fig1b_placement(self):
        net = build_red_lights_network()
        # A,B on S1; C,D on S2; E,F on S3
        for host, sw in (("A", "S1"), ("B", "S1"), ("C", "S2"),
                         ("D", "S2"), ("E", "S3"), ("F", "S3")):
            assert net.link_between(host, sw) is not None
        # A->F path crosses all three switches
        assert net.shortest_paths("A", "F") == [
            ["A", "S1", "S2", "S3", "F"]]


class TestCascadesTopology:
    def test_reroute_variant_bypasses_trunk(self):
        net = build_cascades_network(reroute_bd=True)
        paths = net.shortest_paths("B", "D")
        assert paths == [["B", "S1b", "S2", "D"]]

    def test_direct_variant_uses_trunk(self):
        net = build_cascades_network(reroute_bd=False)
        paths = net.shortest_paths("B", "D")
        assert paths == [["B", "S1", "S2", "D"]]


class TestLoadImbalanceScenario:
    def test_needs_two_servers(self):
        with pytest.raises(ScenarioError, match="knob 'n_servers' of"):
            run_scenario("load-imbalance", n_servers=1)

    def test_two_egress_candidates_at_s1(self):
        net = build_load_imbalance_network(4)
        s1 = net.switches["S1"]
        routes = s1.routes_for("rx0")
        assert len(routes) == 2  # SPA and SPB (ECMP set)

    def test_malfunction_splits_cleanly(self, scenario_of):
        res = scenario_of("load-imbalance", n_servers=6)
        s1 = res.network.switches["S1"]
        spa = res.network.link_between("S1", "SPA").iface_of(s1)
        spb = res.network.link_between("S1", "SPB").iface_of(s1)
        # both egresses carried traffic, split by the override
        assert spa.tx_bytes > 0 and spb.tx_bytes > 0
        # small flows sum < large flows sum per construction
        assert spa.tx_bytes < spb.tx_bytes

    def test_detection_via_interface_counters(self, scenario_of):
        """§5.4: 'detected by monitoring interface byte counts per
        second' — the per-port counters show persistent skew."""
        res = scenario_of("load-imbalance", n_servers=6)
        s1 = res.network.switches["S1"]
        spa = res.network.link_between("S1", "SPA").iface_of(s1)
        spb = res.network.link_between("S1", "SPB").iface_of(s1)
        skew = spb.tx_bytes / max(1, spa.tx_bytes)
        assert skew > 1.5  # clearly detectable imbalance
