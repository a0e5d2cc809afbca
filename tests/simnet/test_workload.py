"""Unit tests for the synthetic workload generator."""

import pytest

from repro.simnet.topology import build_leaf_spine
from repro.simnet.workload import (FlowPlanner, WorkloadGenerator,
                                   WorkloadSpec)


def keys(plan):
    return [plan.key(i) for i in range(len(plan))]


def fabric():
    return build_leaf_spine(n_leaves=2, n_spines=2, hosts_per_leaf=4,
                            rate_bps=10e9)


class TestSpecValidation:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            WorkloadSpec(arrival_rate_per_s=0)

    def test_rejects_infinite_mean_tail(self):
        with pytest.raises(ValueError):
            WorkloadSpec(pareto_shape=0.9)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            WorkloadSpec(min_flow_bytes=100, max_flow_bytes=50)


class TestGeneration:
    def test_deterministic_under_seed(self):
        net1, net2 = fabric(), fabric()
        spec = WorkloadSpec(duration_s=0.02, seed=7)
        flows1 = WorkloadGenerator(net1, spec).plan()
        flows2 = WorkloadGenerator(net2, spec).plan()
        assert keys(flows1) == keys(flows2)
        assert flows1.size == flows2.size and flows1.start == flows2.start

    def test_different_seed_differs(self):
        spec_a = WorkloadSpec(duration_s=0.02, seed=1)
        spec_b = WorkloadSpec(duration_s=0.02, seed=2)
        fa = WorkloadGenerator(fabric(), spec_a).plan()
        fb = WorkloadGenerator(fabric(), spec_b).plan()
        assert fa.size != fb.size

    def test_arrival_count_near_rate(self):
        spec = WorkloadSpec(arrival_rate_per_s=5000, duration_s=0.1,
                            seed=3)
        flows = WorkloadGenerator(fabric(), spec).plan()
        assert 350 < len(flows) < 650  # Poisson(500) +- ~5 sigma

    def test_sizes_within_bounds(self):
        spec = WorkloadSpec(duration_s=0.05, min_flow_bytes=2000,
                            max_flow_bytes=50_000, seed=5)
        flows = WorkloadGenerator(fabric(), spec).plan()
        assert flows
        for size in flows.size:
            assert 2000 <= size <= 50_000

    def test_no_self_flows(self):
        spec = WorkloadSpec(duration_s=0.05, seed=6)
        flows = WorkloadGenerator(fabric(), spec).plan()
        assert all(f.src != f.dst for f in keys(flows))

    def test_sender_receiver_scoping(self):
        net = fabric()
        spec = WorkloadSpec(duration_s=0.05, seed=8)
        gen = WorkloadGenerator(net, spec, senders=["h0_0", "h0_1"],
                                receivers=["h1_0"])
        flows = gen.plan()
        assert {f.src for f in keys(flows)} <= {"h0_0", "h0_1"}
        assert {f.dst for f in keys(flows)} == {"h1_0"}

    def test_traffic_actually_delivered(self):
        net = fabric()
        spec = WorkloadSpec(arrival_rate_per_s=500, duration_s=0.02,
                            mean_flow_bytes=10_000, seed=9)
        gen = WorkloadGenerator(net, spec)
        gen.launch()
        net.run(until=0.2)
        delivered = sum(h.rx_packets for h in net.hosts.values())
        assert gen.flows
        assert delivered >= len(gen.flows)  # every flow landed >= 1 packet


class TestFixedPopulation:
    """The n_flows mode behind the sweep flows= axis."""

    def test_exact_population_size(self):
        spec = WorkloadSpec(n_flows=250, seed=4)
        plan = FlowPlanner(spec, ["a", "b", "c"], ["a", "b", "c"]).plan()
        assert len(plan) == 250

    def test_starts_within_spread_window(self):
        spec = WorkloadSpec(n_flows=100, spread_s=0.02, seed=5)
        plan = FlowPlanner(spec, ["a", "b"], ["a", "b"]).plan(t0=0.5)
        assert all(0.5 <= t <= 0.52 for t in plan.start)

    def test_zero_spread_starts_together(self):
        spec = WorkloadSpec(n_flows=40, spread_s=0.0, seed=6)
        plan = FlowPlanner(spec, ["a", "b"], ["a", "b"]).plan(t0=0.1)
        assert set(plan.start) == {0.1}

    def test_zipf_mix_skews_toward_low_ranks(self):
        hosts = [f"h{i}" for i in range(12)]
        spec = WorkloadSpec(n_flows=3000, mix="zipf", zipf_s=1.1, seed=7)
        plan = FlowPlanner(spec, hosts, hosts).plan()
        srcs = [f.src for f in keys(plan)]
        assert srcs.count("h0") > 4 * srcs.count("h11")

    def test_unique_ports_per_flow(self):
        spec = WorkloadSpec(n_flows=50, seed=8)
        plan = FlowPlanner(spec, ["a", "b"], ["a", "b"]).plan()
        assert len({f.sport for f in keys(plan)}) == 50

    def test_bad_mix_rejected(self):
        with pytest.raises(ValueError, match="mix"):
            WorkloadSpec(mix="bimodal")

    def test_negative_population_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(n_flows=-1)

    def test_sole_self_pair_rejected(self):
        with pytest.raises(ValueError):
            FlowPlanner(WorkloadSpec(n_flows=1), ["a"], ["a"])


class TestBatchedLaunch:
    """The single-emitter materialization path (BackgroundTraffic)."""

    def launch(self, n=120, **kw):
        net = fabric()
        spec = WorkloadSpec(n_flows=n, spread_s=0.01,
                            mean_flow_bytes=4000, min_flow_bytes=300,
                            max_flow_bytes=20_000, packet_size=1000,
                            flow_rate_bps=2e7, seed=10, **kw)
        gen = WorkloadGenerator(net, spec)
        return net, gen, gen.launch()

    def test_every_flow_delivers_at_least_one_packet(self):
        net, gen, bg = self.launch()
        net.run(until=0.2)
        assert bg.n_flows == 120
        assert bg.packets_sent >= 120
        assert bg.delivered >= 120
        # nothing left pending once every flow drained
        assert not bg._heap and bg._started == bg.n_flows

    def test_flows_match_the_plan(self):
        net, gen, bg = self.launch()
        assert gen.flows is bg.plan and len(gen.flows) == 120
        assert gen.size_percentiles()[50] > 0


class TestHeavyTail:
    def test_elephants_carry_most_bytes(self):
        spec = WorkloadSpec(arrival_rate_per_s=20_000, duration_s=0.05,
                            mean_flow_bytes=100_000, pareto_shape=1.2,
                            seed=11)
        gen = WorkloadGenerator(fabric(), spec)
        gen.launch()
        p = gen.size_percentiles((50, 99))
        assert p[99] > 10 * p[50]  # heavy tail
        assert gen.elephant_byte_share(500_000) > 0.3

    def test_percentiles_empty(self):
        gen = WorkloadGenerator(fabric(), WorkloadSpec(seed=1))
        assert gen.size_percentiles() == {50: 0, 90: 0, 99: 0}
