"""Unit tests for the simplified TCP Reno model."""

import pytest

from repro.simnet.packet import PRIO_HIGH
from repro.simnet.queues import DropTailFIFO, StrictPriorityQueue
from repro.simnet.tcp import open_tcp_flow
from repro.simnet.topology import Network
from repro.simnet.traffic import UdpCbrSource, UdpSink


def small_net(queue_factory=None):
    net = Network()
    s = net.add_switch("S")
    a = net.add_host("a")
    b = net.add_host("b")
    net.connect(a, s, queue_factory=queue_factory)
    net.connect(b, s, queue_factory=queue_factory)
    net.compute_routes()
    return net


class TestBasicTransfer:
    def test_sized_transfer_completes_exactly(self):
        net = small_net()
        sender, receiver = open_tcp_flow(
            net.sim, net.hosts["a"], net.hosts["b"], sport=1, dport=2,
            total_bytes=100_000)
        sender.start()
        net.run(until=1.0)
        assert sender.done
        assert receiver.rcv_next == 100_000
        assert sender.completed_at is not None

    def test_throughput_approaches_line_rate(self):
        net = small_net()
        sender, receiver = open_tcp_flow(
            net.sim, net.hosts["a"], net.hosts["b"], sport=1, dport=2,
            total_bytes=2_000_000)
        sender.start()
        net.run(until=1.0)
        # 2 MB at 1 Gbps is 16 ms on the wire; allow startup slack
        assert sender.completed_at < 0.025

    def test_no_losses_on_clean_path(self):
        net = small_net()
        sender, _ = open_tcp_flow(net.sim, net.hosts["a"], net.hosts["b"],
                                  sport=1, dport=2, total_bytes=500_000)
        sender.start()
        net.run(until=1.0)
        assert sender.retransmits == 0
        assert sender.timeouts == 0

    def test_on_complete_callback(self):
        net = small_net()
        done = []
        sender, _ = open_tcp_flow(net.sim, net.hosts["a"], net.hosts["b"],
                                  sport=1, dport=2, total_bytes=10_000,
                                  on_complete=done.append)
        sender.start()
        net.run(until=1.0)
        assert len(done) == 1
        assert done[0] == sender.completed_at

    def test_start_delay_honored(self):
        net = small_net()
        sender, _ = open_tcp_flow(net.sim, net.hosts["a"], net.hosts["b"],
                                  sport=1, dport=2, total_bytes=10_000)
        sender.start(delay=0.1)
        net.run(until=0.05)
        assert sender.segments_sent == 0
        net.run(until=1.0)
        assert sender.done

    def test_conservation_acked_never_exceeds_sent(self):
        net = small_net()
        sender, receiver = open_tcp_flow(
            net.sim, net.hosts["a"], net.hosts["b"], sport=1, dport=2,
            total_bytes=300_000)
        sender.start()
        net.run(until=1.0)
        assert sender.snd_una <= sender.snd_next
        assert receiver.bytes_received >= receiver.rcv_next


class TestLossRecovery:
    def test_recovers_through_tiny_buffer(self):
        """A shallow queue forces drops; the transfer must still finish."""
        def qf():
            return DropTailFIFO(capacity_bytes=6000)  # ~4 packets
        net = small_net(queue_factory=qf)
        sender, receiver = open_tcp_flow(
            net.sim, net.hosts["a"], net.hosts["b"], sport=1, dport=2,
            total_bytes=1_000_000)
        sender.start()
        net.run(until=2.0)
        assert sender.done, (sender.snd_una, sender.retransmits,
                             sender.timeouts)
        assert receiver.rcv_next == 1_000_000
        assert sender.retransmits > 0  # losses actually happened

    def test_rto_fires_under_total_starvation(self):
        """Strict-priority starvation longer than the RTO must time out."""
        def qf():
            return StrictPriorityQueue(levels=3,
                                       capacity_bytes=16 * 1024 * 1024)
        net = Network()
        s1 = net.add_switch("S1")
        s2 = net.add_switch("S2")
        net.connect(s1, s2, queue_factory=qf)
        for name in ("a", "b", "c", "d"):
            h = net.add_host(name)
            net.connect(h, s1 if name in ("a", "c") else s2,
                        queue_factory=qf)
        net.compute_routes()
        sender, _ = open_tcp_flow(net.sim, net.hosts["a"], net.hosts["b"],
                                  sport=1, dport=2, total_bytes=None,
                                  min_rto=0.010)
        sender.start()
        UdpSink(net.hosts["d"], 7)
        # 30 ms of line-rate high-priority traffic >> min RTO of 10 ms
        UdpCbrSource(net.sim, net.hosts["c"], "d", sport=7, dport=7,
                     rate_bps=1e9, priority=PRIO_HIGH, start=0.005,
                     duration=0.030)
        net.run(until=0.060)
        sender.stop()
        assert sender.timeouts >= 1
        assert sender.timeout_times[0] > 0.005

    def test_cwnd_resets_after_timeout(self):
        def qf():
            return StrictPriorityQueue(levels=3,
                                       capacity_bytes=16 * 1024 * 1024)
        net = small_net(queue_factory=qf)
        sender, _ = open_tcp_flow(net.sim, net.hosts["a"], net.hosts["b"],
                                  sport=1, dport=2, total_bytes=None,
                                  min_rto=0.010)
        sender.start()
        net.run(until=0.002)
        cwnd_before = sender.cwnd
        # blackhole: replace the switch route so data vanishes
        net.switches["S"].clear_routes()
        net.run(until=0.050)
        assert sender.timeouts >= 1
        assert sender.cwnd <= cwnd_before
        assert sender.cwnd == pytest.approx(sender.mss)

    def test_rto_backs_off_exponentially(self):
        net = small_net()
        sender, _ = open_tcp_flow(net.sim, net.hosts["a"], net.hosts["b"],
                                  sport=1, dport=2, total_bytes=None,
                                  min_rto=0.010)
        sender.start()
        net.run(until=0.002)
        net.switches["S"].clear_routes()
        net.run(until=0.200)
        assert sender.timeouts >= 3
        gaps = [b - a for a, b in zip(sender.timeout_times,
                                      sender.timeout_times[1:])]
        assert all(g2 > g1 * 1.5 for g1, g2 in zip(gaps, gaps[1:]))


class TestFlowControlDetails:
    def test_stop_halts_new_data(self):
        net = small_net()
        sender, _ = open_tcp_flow(net.sim, net.hosts["a"], net.hosts["b"],
                                  sport=1, dport=2, total_bytes=None)
        sender.start()
        net.run(until=0.010)
        sender.stop()
        sent_at_stop = sender.segments_sent
        net.run(until=0.050)
        assert sender.segments_sent == sent_at_stop

    def test_priority_carried_on_segments_and_acks(self):
        net = small_net()
        prios = []
        net.hosts["b"].sniffers.append(
            lambda h, p, t: prios.append(p.priority))
        sender, _ = open_tcp_flow(net.sim, net.hosts["a"], net.hosts["b"],
                                  sport=1, dport=2, total_bytes=20_000,
                                  priority=PRIO_HIGH)
        sender.start()
        net.run(until=0.5)
        assert prios and all(p == PRIO_HIGH for p in prios)

    def test_rtt_estimate_converges(self):
        net = small_net()
        sender, _ = open_tcp_flow(net.sim, net.hosts["a"], net.hosts["b"],
                                  sport=1, dport=2, total_bytes=500_000)
        sender.start()
        net.run(until=1.0)
        assert sender.srtt is not None
        # bare path RTT is ~tens of µs; queueing adds up to ~ms
        assert 0 < sender.srtt < 0.01
