"""Tests for the automated debugging pipeline."""

import pytest

from repro.analyzer.autodebug import AutoDebugger
from repro.core.epoch import EpochRange
from repro.hostd.triggers import SwitchEpochTuple, VictimAlert
from repro.simnet.packet import FlowKey, PROTO_TCP


def fake_alert(t, flow=None, kind="throughput-drop"):
    flow = flow or FlowKey("a", "b", 1, 2, PROTO_TCP)
    return VictimAlert(flow=flow, host=flow.dst, time=t, kind=kind,
                       tuples=[SwitchEpochTuple(switch="S1",
                                                epochs=EpochRange(0, 1))])


class FakeAnalyzer:
    def __init__(self):
        self.alerts = []

    def ingest_alert(self, alert):
        self.alerts.append(alert)


class TestDeduplication:
    def test_alert_storm_folds_into_one_incident(self):
        auto = AutoDebugger(FakeAnalyzer(), debounce_s=0.020)
        for i in range(5):
            auto.ingest(fake_alert(0.010 + i * 0.005))
        assert len(auto.incidents) == 1
        assert len(auto.incidents[0].alerts) == 5

    def test_gap_beyond_debounce_opens_new_incident(self):
        auto = AutoDebugger(FakeAnalyzer(), debounce_s=0.020)
        auto.ingest(fake_alert(0.010))
        auto.ingest(fake_alert(0.100))
        assert len(auto.incidents) == 2

    def test_different_flows_are_different_incidents(self):
        auto = AutoDebugger(FakeAnalyzer(), debounce_s=1.0)
        auto.ingest(fake_alert(0.010))
        auto.ingest(fake_alert(
            0.011, flow=FlowKey("c", "d", 3, 4, PROTO_TCP)))
        assert len(auto.incidents) == 2

    def test_raw_queue_still_fed(self):
        analyzer = FakeAnalyzer()
        auto = AutoDebugger(analyzer)
        auto.ingest(fake_alert(0.010))
        assert len(analyzer.alerts) == 1

    def test_incident_ids_monotone(self):
        auto = AutoDebugger(FakeAnalyzer(), debounce_s=0.001)
        a = auto.ingest(fake_alert(0.010))
        b = auto.ingest(fake_alert(0.500))
        assert b.incident_id == a.incident_id + 1


class TestDispatch:
    @pytest.fixture(scope="class")
    def contention(self, payload_of):
        return payload_of("contention", m_flows=4)

    def test_contention_incident_diagnosed(self, contention):
        auto = AutoDebugger(contention.deployment.analyzer)
        for alert in contention.alerts:
            auto.ingest(alert)
        incidents = auto.diagnose_all()
        assert incidents
        first = incidents[0]
        assert first.verdict is not None
        assert first.verdict.problem == "priority-contention"

    def test_multi_switch_culprits_escalate_to_red_lights(self,
                                                          contention):
        auto = AutoDebugger(contention.deployment.analyzer,
                            cascade_priorities=False)
        auto.ingest(contention.alerts[0])
        auto.diagnose_all()
        # dumbbell: culprits appear at both S1 and S2 pointer pulls
        assert auto.incidents[0].escalated_to in (None, "red-lights")

    def test_cascade_escalation_end_to_end(self, payload_of):
        res = payload_of("cascades", cascaded=True)
        auto = AutoDebugger(res.deployment.analyzer)
        for alert in res.alerts:
            auto.ingest(alert)
        auto.diagnose_all()
        escalations = {i.escalated_to for i in auto.incidents}
        assert "cascade" in escalations
        cascade_incident = next(i for i in auto.incidents
                                if i.escalated_to == "cascade")
        assert len(cascade_incident.verdict.cascade_chain) == 3

    def test_diagnose_all_idempotent(self, contention):
        auto = AutoDebugger(contention.deployment.analyzer)
        auto.ingest(contention.alerts[0])
        auto.diagnose_all()
        verdict = auto.incidents[0].verdict
        auto.diagnose_all()
        assert auto.incidents[0].verdict is verdict


class TestReporting:
    def test_empty_report(self):
        assert AutoDebugger(FakeAnalyzer()).report() == "no incidents"

    def test_render_contains_essentials(self, payload_of):
        res = payload_of("contention", m_flows=2)
        auto = AutoDebugger(res.deployment.analyzer)
        auto.ingest(res.alerts[0])
        auto.diagnose_all()
        text = auto.report()
        assert "incident #1" in text
        assert "verdict: priority-contention" in text
        assert "culprit" in text
