"""Unit tests for end-host triggers."""

import pytest

from repro.core.epoch import EpochClock, EpochRange
from repro.hostd.records import FlowRecordStore
from repro.hostd.triggers import (ThroughputDropTrigger,
                                  alert_tuples_from_record)
from repro.simnet.engine import Simulator
from repro.simnet.packet import FlowKey, PROTO_TCP, make_tcp

from tests.hostd.eager_records import shaped


def key():
    return FlowKey("a", "b", 1, 2, PROTO_TCP)


def feed(trigger, sim, *, gbps, duration, start=None):
    """Schedule synthetic arrivals at a constant rate."""
    start = sim.now if start is None else start
    pkt_size = 1250
    interval = pkt_size * 8 / (gbps * 1e9)
    t = start
    while t < start + duration:
        pkt = make_tcp(key(), payload=pkt_size - 66)
        pkt.size = pkt_size
        sim.schedule_at(t, trigger.on_packet, pkt, t)
        t += interval


class TestThroughputDropTrigger:
    def make(self, sim, **kw):
        alerts = []
        store = FlowRecordStore("b")
        trig = ThroughputDropTrigger(sim, key(), "b", store,
                                     alerts.append, **kw)
        return trig, alerts

    def test_fires_on_50pct_drop(self):
        sim = Simulator()
        trig, alerts = self.make(sim)
        feed(trig, sim, gbps=1.0, duration=0.005)
        feed(trig, sim, gbps=0.2, duration=0.005, start=0.005)
        sim.run(until=0.012)
        trig.stop()
        assert len(alerts) >= 1
        a = alerts[0]
        assert a.kind == "throughput-drop"
        assert a.drop_ratio > 0.5
        assert a.rate_before_gbps > a.rate_after_gbps

    def test_no_alert_on_steady_traffic(self):
        sim = Simulator()
        trig, alerts = self.make(sim)
        feed(trig, sim, gbps=1.0, duration=0.020)
        sim.run(until=0.019)
        trig.stop()
        assert alerts == []

    def test_no_alert_below_floor(self):
        """A trickle flow dropping to zero is not a 'drastic change'."""
        sim = Simulator()
        trig, alerts = self.make(sim, floor_gbps=0.05)
        feed(trig, sim, gbps=0.01, duration=0.005)
        sim.run(until=0.015)
        trig.stop()
        assert alerts == []

    def test_refractory_suppresses_storm(self):
        sim = Simulator()
        trig, alerts = self.make(sim, refractory=0.050)
        feed(trig, sim, gbps=1.0, duration=0.005)
        # long starvation: many zero windows, one alert
        sim.run(until=0.030)
        trig.stop()
        assert len(alerts) == 1

    def test_gradual_collapse_still_detected(self):
        """Reference decays slowly, so a multi-window slide triggers."""
        sim = Simulator()
        trig, alerts = self.make(sim)
        feed(trig, sim, gbps=1.0, duration=0.005)
        feed(trig, sim, gbps=0.7, duration=0.002, start=0.005)
        feed(trig, sim, gbps=0.3, duration=0.005, start=0.007)
        sim.run(until=0.014)
        trig.stop()
        assert len(alerts) >= 1

    def test_alert_includes_record_tuples(self):
        sim = Simulator()
        alerts = []
        store = FlowRecordStore("b")
        rec = store.record_for(key())
        rec.observe(nbytes=100, t=0.0, priority=0,
                    **shaped({"S1": EpochRange(0, 1),
                              "S2": EpochRange(0, 2)}, 0))
        trig = ThroughputDropTrigger(sim, key(), "b", store, alerts.append)
        feed(trig, sim, gbps=1.0, duration=0.005)
        sim.run(until=0.012)
        trig.stop()
        assert alerts and alerts[0].switch_path == ["S1", "S2"]

    def test_clock_restricts_tuple_ranges(self):
        sim = Simulator()
        alerts = []
        store = FlowRecordStore("b")
        rec = store.record_for(key())
        # record spans a long history: epochs 0..50
        rec.observe(nbytes=100, t=0.0, priority=0,
                    **shaped({"S1": EpochRange(0, 50)}, 0))
        trig = ThroughputDropTrigger(sim, key(), "b", store, alerts.append,
                                     clock=EpochClock(1), slack_epochs=1)
        feed(trig, sim, gbps=1.0, duration=0.005)
        sim.run(until=0.012)
        trig.stop()
        rng = alerts[0].tuples[0].epochs
        assert len(rng) <= 6  # drop window + slack, not all 51 epochs

    def test_invalid_threshold(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ThroughputDropTrigger(sim, key(), "b", FlowRecordStore("b"),
                                  lambda a: None, drop_threshold=1.5)


class TestAlertTuples:
    def test_restrict_intersects(self):
        store = FlowRecordStore("b")
        rec = store.record_for(key())
        rec.observe(nbytes=1, t=0.0, priority=0,
                    **shaped({"S1": EpochRange(0, 10),
                              "S2": EpochRange(5, 20)}, 3))
        tuples = alert_tuples_from_record(rec, restrict=EpochRange(8, 12))
        by_sw = {t.switch: t.epochs for t in tuples}
        assert by_sw["S1"] == EpochRange(8, 10)
        assert by_sw["S2"] == EpochRange(8, 12)

    def test_disjoint_restriction_keeps_recorded_range(self):
        store = FlowRecordStore("b")
        rec = store.record_for(key())
        rec.observe(nbytes=1, t=0.0, priority=0,
                    **shaped({"S1": EpochRange(0, 2)}, 0))
        tuples = alert_tuples_from_record(rec, restrict=EpochRange(90, 95))
        assert tuples[0].epochs == EpochRange(0, 2)
