"""Unit tests for measurement probes."""

import pytest

from repro.simnet.packet import FlowKey, PROTO_UDP, make_udp
from repro.simnet.stats import (InterArrivalProbe, ThroughputProbe,
                                attach_flow_tap, percentile)
from repro.simnet.topology import Network


class TestThroughputProbe:
    def test_bins_by_window(self):
        probe = ThroughputProbe(window=0.001)
        probe.observe(125_000, 0.0005)   # window 0
        probe.observe(125_000, 0.0015)   # window 1
        series = probe.series()
        assert len(series) == 2
        # 125 kB in 1 ms = 1 Gbps
        assert series[0][1] == pytest.approx(1.0)
        assert series[1][1] == pytest.approx(1.0)

    def test_empty_windows_zero_filled(self):
        probe = ThroughputProbe(window=0.001)
        probe.observe(1000, 0.0005)
        probe.observe(1000, 0.0045)
        series = probe.series()
        assert len(series) == 5
        assert series[1][1] == 0.0
        assert series[2][1] == 0.0

    def test_series_until_extends_with_zeros(self):
        probe = ThroughputProbe(window=0.001)
        probe.observe(1000, 0.0005)
        series = probe.series(until=0.005)
        assert len(series) == 5
        assert all(g == 0.0 for _, g in series[1:])

    def test_rate_at(self):
        probe = ThroughputProbe(window=0.001)
        probe.observe(125_000, 0.0023)
        assert probe.rate_at(0.0027) == pytest.approx(1.0)
        assert probe.rate_at(0.0005) == 0.0

    def test_t0_offset(self):
        probe = ThroughputProbe(window=0.001, t0=0.010)
        probe.observe(1000, 0.0105)
        assert probe.series()[0][0] == pytest.approx(0.010)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            ThroughputProbe(window=0)

    def test_empty_series(self):
        assert ThroughputProbe().series() == []


class TestInterArrivalProbe:
    def test_gaps_recorded(self):
        probe = InterArrivalProbe()
        pkt = make_udp("a", "b", 1, 2, 100)
        for t in (0.001, 0.002, 0.005):
            probe.on_packet(pkt, t)
        gaps = [g for _, g in probe.samples]
        assert gaps == pytest.approx([0.001, 0.003])

    def test_max_gap_windows(self):
        probe = InterArrivalProbe()
        pkt = make_udp("a", "b", 1, 2, 100)
        for t in (0.001, 0.002, 0.010, 0.011):
            probe.on_packet(pkt, t)
        assert probe.max_gap_in(0.0, 0.02) == pytest.approx(0.008)
        assert probe.max_gap_in(0.0, 0.005) == pytest.approx(0.001)


class TestFlowTap:
    def test_tap_filters_by_flow(self):
        net = Network()
        s1, s2 = net.add_switch("S1"), net.add_switch("S2")
        net.connect(s1, s2)
        hosts = {}
        for name, sw in (("a", s1), ("b", s2), ("c", s1), ("d", s2)):
            hosts[name] = net.add_host(name)
            net.connect(hosts[name], sw)
        net.compute_routes()
        probe = ThroughputProbe(window=0.001)
        watched = FlowKey("a", "b", 1, 2, PROTO_UDP)
        iface = net.link_between("S1", "S2").iface_of(s1)
        attach_flow_tap(iface, watched, probe)
        hosts["a"].send(make_udp("a", "b", 1, 2, 1000))
        hosts["c"].send(make_udp("c", "d", 3, 4, 1000))
        net.run()
        assert probe.total_bytes == 1000  # only the watched flow


class TestPercentile:
    def test_basic(self):
        data = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        assert percentile(data, 50) == 5
        assert percentile(data, 100) == 10
        assert percentile(data, 10) == 1

    def test_empty(self):
        assert percentile([], 99) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1], 101)
