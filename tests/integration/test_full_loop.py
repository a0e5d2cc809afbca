"""Integration: the complete §3 walkthrough on each §5 application.

Every test here runs the entire system — traffic through the simulated
fabric, per-switch pointer maintenance + header embedding, destination
decoding, trigger, alert, analyzer pointer retrieval, host consultation,
verdict — exactly the loop the paper's example narrates.
"""

import pytest

from repro import SwitchPointerDeployment
from repro.analyzer.apps import diagnose_cascade
from repro.scenarios import run_scenario
from repro.simnet import WorkloadGenerator, WorkloadSpec
from repro.simnet.packet import PROTO_UDP
from repro.simnet.topology import build_leaf_spine


class TestTooMuchTraffic:
    @pytest.mark.parametrize("m", [1, 4, 8])
    def test_priority_contention_end_to_end(self, m):
        res = run_scenario("contention", m_flows=m)
        assert res.verdicts, f"no alert for m={m}"
        verdict = res.verdicts[0]
        assert verdict.problem == "priority-contention"
        udp_culprits = {c.flow.src for c in verdict.culprits
                        if c.flow.proto == PROTO_UDP}
        assert {f"h1_{j}" for j in range(1, m + 1)} <= udp_culprits

    def test_starvation_grows_with_burst_size(self, payload_of):
        """Fig 2(a): larger m, longer victim starvation."""
        starvation = {}
        for m in (2, 8, 16):
            res = payload_of("contention", m_flows=m, watch=False)
            starvation[m] = res.starvation_ms()
        assert starvation[2] < starvation[8] < starvation[16]
        # m bursts of 1 ms each need ~m ms to drain at line rate
        assert starvation[16] > 8.0

    def test_interarrival_grows_with_burst_size(self, payload_of):
        gaps = {}
        for m in (1, 4, 8):
            res = payload_of("contention", m_flows=m, watch=False)
            gaps[m] = res.max_gap_ms()
        assert gaps[1] < gaps[4] < gaps[8]
        assert gaps[8] == pytest.approx(8.0, rel=0.3)

    def test_fifo_microburst_smaller_gap_inflation(self, payload_of):
        """Fig 2(b): FIFO spreads the pain; inter-arrival inflation is
        far milder than under strict priority."""
        prio = payload_of("contention", m_flows=8, watch=False)
        fifo = payload_of("contention", m_flows=8, discipline="fifo",
                          watch=False)
        assert fifo.max_gap_ms() < prio.max_gap_ms() / 4

    def test_large_burst_causes_timeout(self, payload_of):
        """§2.1: 'may, at the extreme, lead to TCP timeout'."""
        res = payload_of("contention", m_flows=16, watch=False)
        assert res.tcp_timeouts >= 1


class TestTooManyRedLights:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario("red-lights")

    def test_cumulative_degradation_across_switches(self, result):
        res = result.payload
        b1, d1 = res.burst1
        window = (b1, res.burst2[0] + res.burst2[1] + 0.001)
        s1_min = min(g for t, g in res.tput_at_s1.series()
                     if window[0] <= t <= window[1])
        s2_min = min(g for t, g in res.tput_at_s2.series()
                     if window[0] <= t <= window[1])
        dst_min = min(g for t, g in res.tput_at_dst.series()
                      if window[0] <= t <= window[1])
        assert s2_min <= s1_min
        assert dst_min <= s1_min

    def test_spatial_correlation_diagnosis(self, result):
        assert result.verdicts
        verdict = result.verdicts[0]
        switches_with_culprits = {c.switch for c in verdict.culprits}
        assert {"S1", "S2"} <= switches_with_culprits
        # the two UDP flows are attributed to the right switches
        srcs = {(c.switch, c.flow.src) for c in verdict.culprits}
        assert ("S1", "B") in srcs
        assert ("S2", "C") in srcs

    def test_alert_names_full_path(self, result):
        alert = result.payload.alerts[0]
        assert alert.switch_path == ["S1", "S2", "S3"]


class TestTrafficCascades:
    def test_cascade_chain_via_recursive_reexamination(self):
        result = run_scenario("cascades", cascaded=True)
        assert result.verdicts
        verdict, res = result.verdicts[0], result.payload
        assert verdict.cascade_chain == [res.flow_ce, res.flow_af,
                                         res.flow_bd]
        assert "cascade chain" in verdict.narrative

    def test_without_contention_no_chain_found(self, payload_of):
        res = payload_of("cascades", cascaded=False)
        # even if a completion artifact alert fires, no cascade exists
        if res.alerts:
            verdict = diagnose_cascade(res.deployment.analyzer,
                                       res.alerts[0])
            assert res.flow_bd not in verdict.cascade_chain

    def test_cascade_slows_victim_completion(self, payload_of):
        base = payload_of("cascades", cascaded=False)
        casc = payload_of("cascades", cascaded=True)
        assert casc.ce_completed_at > base.ce_completed_at


class TestLoadImbalance:
    def test_end_to_end_detection(self):
        verdict, = run_scenario("load-imbalance", n_servers=6).verdicts
        assert verdict.imbalanced
        assert len(verdict.hosts_consulted) == 6

    def test_diagnosis_time_scales_with_servers(self):
        """Fig 8: latency grows ~linearly with consulted servers."""
        times = {}
        for n in (4, 16):
            verdict, = run_scenario("load-imbalance",
                                    n_servers=n).verdicts
            times[n] = verdict.total_time_s
        assert times[16] > times[4]
        ratio = (times[16] / times[4])
        assert 2.0 < ratio < 4.5  # dominated by 4x connection setups


class TestRecordsAgreeWithDirectory:
    """Host records, the launched workload and switch pointers describe
    the same traffic on a live leaf-spine fabric."""

    @pytest.fixture(scope="class")
    def fabric(self):
        net = build_leaf_spine(n_leaves=2, n_spines=2, hosts_per_leaf=3,
                               rate_bps=10e9)
        deploy = SwitchPointerDeployment(net, alpha_ms=10, k=3,
                                         epsilon_ms=1, delta_ms=2)
        spec = WorkloadSpec(arrival_rate_per_s=1500, duration_s=0.03,
                            mean_flow_bytes=20_000, flow_rate_bps=2e9,
                            seed=99)
        gen = WorkloadGenerator(net, spec)
        gen.launch()
        net.run(until=0.25)
        results, _ = deploy.analyzer.consult_hosts(
            net.host_names, lambda agent: agent.query.all_flows())
        summaries = [s for res in results.values() for s in res.payload]
        return deploy, gen.flows, summaries

    def test_records_cover_launched_flows(self, fabric):
        _, flows, summaries = fabric
        by_key = {s.flow: s for s in summaries}
        assert flows
        assert set(by_key) == {f.flow for f in flows}
        # whole packets land, so a record never holds less than planned
        for f in flows:
            assert by_key[f.flow].bytes >= f.size_bytes > 0

    def test_paths_follow_the_fabric(self, fabric):
        """Same-rack flows cross their leaf only; cross-rack flows go
        source leaf -> one spine -> destination leaf."""
        _, _, summaries = fabric
        for s in summaries:
            src_leaf = "leaf" + s.flow.src[1:].split("_")[0]
            dst_leaf = "leaf" + s.flow.dst[1:].split("_")[0]
            if src_leaf == dst_leaf:
                assert s.switch_path == [src_leaf]
            else:
                first, spine, last = s.switch_path
                assert (first, last) == (src_leaf, dst_leaf)
                assert spine in ("spine0", "spine1")

    def test_bytes_per_switch_bounded_by_hops(self, fabric):
        _, _, summaries = fabric
        per_switch = {}
        for s in summaries:
            for sw in s.switch_path:
                per_switch[sw] = per_switch.get(sw, 0) + s.bytes
        assert per_switch.get("leaf0", 0) > 0
        assert per_switch.get("leaf1", 0) > 0
        delivered = sum(s.bytes for s in summaries)
        assert sum(per_switch.values()) <= 3 * delivered

    def test_epoch_telemetry_accounts_for_every_byte(self, fabric):
        deploy, _, summaries = fabric
        for agent in deploy.host_agents.built.values():
            for rec in agent.store:
                assert sum(rec.bytes_by_epoch.values()) == rec.bytes
        for s in summaries:
            assert set(s.epoch_ranges) == set(s.switch_path)
            for sw in s.switch_path:
                rng = s.epochs_at(sw)
                assert rng.lo <= rng.hi

    def test_matrix_agrees_with_directory(self, fabric, flush_all_tops):
        """Every (switch, destination) implied by the records must be
        present in that switch's pointer history."""
        deploy, _, summaries = fabric
        flush_all_tops(deploy)
        checked = 0
        for summary in summaries:
            for sw in summary.switch_path:
                rng = summary.epochs_at(sw)
                hosts = deploy.analyzer.hosts_for(sw, rng)
                assert summary.flow.dst in hosts, (sw, summary.flow)
                checked += 1
        assert checked > 0
