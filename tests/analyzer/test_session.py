"""Online diagnosis sessions through the gray-failure scenario.

The contract under a fault that races the query window: the verdict
**degrades, it does not error** — the dead host is timed out, named in
``missing_hosts``, and the fault plan reports the race as
``active-during-diagnosis``.
"""

import pytest

from repro.analyzer.apps import diagnose_gray_failure
from repro.analyzer.session import VERDICT_STATES
from repro.scenarios.gray_failure import GrayFailureScenario

# h4_0's agent dies at 100 ms while the CBR sources keep transmitting:
# the same race the README example and the rpc-latency sweep exercise
CRASH_KNOBS = dict(n_flows=2, overrun_ms=250.0,
                   crash_host="h4_0", crash_at=0.1)


@pytest.fixture(scope="module")
def raced():
    """2 ms of extra RPC latency: the crash lands mid-query."""
    return GrayFailureScenario(rpc_latency_ms=2.0, **CRASH_KNOBS).execute()


class TestCompleteVerdicts:
    def test_default_online_run_is_complete(self):
        result = GrayFailureScenario(n_flows=2).execute()
        assert result.verdicts
        assert all(v.status == "complete" for v in result.verdicts)
        assert all(v.missing_hosts == [] for v in result.verdicts)

    def test_latency_and_freshness_surface(self):
        result = GrayFailureScenario(n_flows=2,
                                     overrun_ms=250.0).execute()
        assert result.diagnosis_latency_sim > 0
        assert result.freshness > 0
        summary = "\n".join(result.summary_lines())
        assert "diagnosis latency (sim)" in summary
        assert "freshness" in summary

    def test_offline_mode_costs_no_simulated_time(self):
        result = GrayFailureScenario(n_flows=2).execute(
            with_diagnosis=False)
        scn, sim = result.scenario, result.network.sim
        before = sim.now
        verdicts = [diagnose_gray_failure(
                        result.deployment.analyzer, flow,
                        silence_epochs=scn.silence_epochs[flow])
                    for flow in scn.affected]
        assert sim.now == before
        assert all(v.hosts_consulted == [] for v in verdicts)
        assert any(v.suspect == "S3" for v in verdicts)


class TestCrashRacesTheWindow:
    def test_verdict_degrades_and_names_the_gap(self, raced):
        assert raced.verdicts
        assert all(v.status == "degraded" for v in raced.verdicts)
        assert all(v.missing_hosts == ["h4_0"] for v in raced.verdicts)

    def test_degraded_still_localizes(self, raced):
        assert any(v.suspect == "S3" for v in raced.verdicts)

    def test_raced_fault_reported_active_during_diagnosis(self, raced):
        plan = raced.measurements["fault_plan"]
        assert any("active-during-diagnosis" in line for line in plan)

    def test_fast_diagnosis_beats_the_crash(self):
        result = GrayFailureScenario(rpc_latency_ms=0.0,
                                     **CRASH_KNOBS).execute()
        assert all(v.status == "complete" for v in result.verdicts)
        plan = result.measurements["fault_plan"]
        assert any("pending" in line for line in plan)


class TestStaleBudget:
    def test_slow_verdict_stamped_stale(self):
        result = GrayFailureScenario(n_flows=2, rpc_latency_ms=2.0,
                                     stale_after_ms=1.0).execute()
        assert result.verdicts
        assert all(v.status == "stale" for v in result.verdicts)

    def test_generous_budget_stays_complete(self):
        result = GrayFailureScenario(n_flows=2, rpc_latency_ms=2.0,
                                     stale_after_ms=10_000.0).execute()
        assert all(v.status == "complete" for v in result.verdicts)

    def test_missing_evidence_outranks_staleness(self):
        result = GrayFailureScenario(rpc_latency_ms=2.0,
                                     stale_after_ms=1.0,
                                     **CRASH_KNOBS).execute()
        assert result.verdicts[-1].status == "degraded"
        assert all(v.status in VERDICT_STATES for v in result.verdicts)
