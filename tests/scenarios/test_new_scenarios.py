"""Diagnosis-correctness tests for the four extended fault scenarios.

Each test asserts the analyzer reaches the *right* conclusion — the
drop localized to the injected switch, the polarization pinned on the
overloaded egress, the flap pinned on the churned link — not merely
that some verdict exists.
"""

import pytest

from repro.analyzer.apps import diagnose_gray_failure
from repro.scenarios import (GrayFailureScenario, IncastScenario,
                             LinkFlapScenario, PolarizationScenario,
                             run_scenario)


class TestIncast:
    @pytest.fixture(scope="class")
    def result(self):
        return IncastScenario(n_senders=6, duration=0.030,
                              burst_start=0.010).execute()

    def test_classified_as_incast(self, result):
        v = result.verdict("incast")
        assert v is not None, [x.problem for x in result.verdicts]

    def test_convergence_switch_named(self, result):
        v = result.verdict("incast")
        assert v.suspect == "leaf0"  # the receiver's leaf, not the source's

    def test_all_senders_identified_as_culprits(self, result):
        v = result.verdict("incast")
        victim_dst = v.victim.dst
        fan_in_flows = {c.flow for c in v.culprits
                        if c.flow.dst == victim_dst}
        assert len(fan_in_flows) == 6

    def test_collapse_is_real(self, result):
        # the victim actually lost its downlink during the burst
        assert result.measurements["downlink_queue_drops"] > 0
        assert result.measurements["alerts"] >= 1


class TestGrayFailure:
    @pytest.fixture(scope="class")
    def result(self):
        return GrayFailureScenario(n_flows=4).execute()

    def test_localized_to_injected_switch(self, result):
        assert result.verdicts, "no verdicts"
        for v in result.verdicts:
            assert v.problem == "gray-failure"
            assert v.suspect == "S3"

    def test_one_verdict_per_affected_flow(self, result):
        assert len(result.verdicts) == len(result.scenario.affected) == 2

    def test_drops_are_silent(self, result):
        stats = result.switch_stats["S3"]
        assert stats.gray_drops > 0
        assert stats.no_route_drops == 0

    def test_healthy_flows_not_localized(self, result):
        # a healthy flow diagnosed over any victim's silence window:
        # every hop still names its destination, so there is no cut
        analyzer = result.deployment.analyzer
        windows = result.scenario.silence_epochs.values()
        assert None not in windows
        for flow in result.scenario.healthy:
            for window in windows:
                v = diagnose_gray_failure(analyzer, flow,
                                          silence_epochs=window)
                assert v.suspect is None, f"{flow} wrongly localized"

    def test_other_fault_switch_knob(self):
        res = run_scenario("gray-failure", n_flows=2, fault_switch="S2")
        assert res.verdicts[0].suspect == "S2"


class TestPolarization:
    @pytest.fixture(scope="class")
    def result(self):
        return PolarizationScenario(n_flows=8).execute()

    def test_flagged_as_polarized(self, result):
        v = result.verdict("ecmp-polarization")
        assert v is not None and v.imbalanced

    def test_overloaded_egress_named(self, result):
        v = result.verdict("ecmp-polarization")
        bytes_by_spine = result.measurements["spine_tx_bytes"]
        overloaded = max(bytes_by_spine, key=bytes_by_spine.get)
        assert v.suspect == overloaded
        # and the other spine really is idle
        idle = min(bytes_by_spine, key=bytes_by_spine.get)
        assert bytes_by_spine[idle] == 0

    def test_path_nonconformance_corroborates(self, result):
        # flows whose healthy hash pointed at the other spine are
        # off-policy under the polarized hash: half of them, exactly
        v = result.verdict("ecmp-polarization")
        expected_other = sum(
            1 for spine in result.scenario.expected_spine.values()
            if spine != v.suspect)
        assert result.measurements["off_policy_flows"] == expected_other
        assert expected_other == 4  # build pins a 4/4 healthy split

    def test_healthy_control_not_flagged(self):
        res = run_scenario("polarization", n_flows=8, polarized=False)
        v = res.verdict("ecmp-polarization")
        assert v is not None and not v.imbalanced
        assert v.suspect is None
        assert res.measurements["off_policy_flows"] == 0


class TestLinkFlap:
    @pytest.fixture(scope="class")
    def result(self):
        return LinkFlapScenario(n_flows=8).execute()

    def test_flap_localized_to_injected_link(self, result):
        v = result.verdict("link-flap")
        assert v is not None
        assert v.suspect == "S1-SPA"

    def test_churn_happened(self, result):
        assert result.measurements["flaps"] >= 2
        assert result.measurements["down_drops"] > 0

    def test_retransmit_cascade_observed(self, result):
        assert result.measurements["tcp_timeouts"] >= 1

    def test_stats_attribute_outage_losses_to_s1(self, result):
        # packets die at S1's egress into the dead link
        assert result.switch_stats["S1"].link_down_drops > 0
