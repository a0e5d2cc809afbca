"""Property: the streaming background emitter sends what the eager one did.

:class:`~repro.simnet.workload.BackgroundTraffic` holds state only for
flows that are sending: one start order over the plan, and a heap of
each live flow's next emission plus the single next pending start.
:class:`EagerEmitter` below is the emitter it replaced, kept as the
oracle: every flow's key, packet size, packets left and spacing in
parallel lists for the whole run, and one ``(t, i)`` heap entry per
flow from the start, each flow's socket bound on its own, and packets
that hash their own key.  For equal plans both must send the same
sequence of ``(time, FlowKey, size, ECMP hash)`` packets and end on
equal ``packets_sent``, ``bytes_sent`` and ``delivered``, while the
streaming emitter binds one port block per distinct receiver and no
socket — across start ties (``spread_s=0``),
Poisson arrivals planned at a clock past zero, flows under 64 B and of
several MB, zipf endpoint mixes and sender/receiver subsets.
"""

import heapq

from hypothesis import Phase, given, settings, strategies as st

from repro.simnet.engine import Simulator
from repro.simnet.packet import HEADER_BYTES, PROTO_UDP, Packet, _flow_hash
from repro.simnet.workload import (MIX_UNIFORM, MIX_ZIPF, BackgroundTraffic,
                                   FlowPlanner, WorkloadSpec)

HOSTS = [f"h{i}" for i in range(10)]

#: a failing example is reported as drawn: shrinking one replays whole
#: simulations for minutes
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


class EagerEmitter:
    """The oracle: the whole population's state up front, one heap entry
    per flow, a flow's entry re-pushed until its last packet."""

    def __init__(self, network, plan, spec):
        self.network = network
        self.sim = network.sim
        self.spec = spec
        self.packets_sent = 0
        self.bytes_sent = 0
        self.delivered = 0
        self.keys = [plan.key(i) for i in range(len(plan))]
        self.psize, self.remaining, self.interval = [], [], []
        self.heap = []
        now = self.sim.now
        for i, key in enumerate(self.keys):
            size = plan.size[i]
            psize = min(spec.packet_size, max(64, size))
            self.psize.append(psize)
            self.remaining.append(max(1, -(-size // psize)))
            self.interval.append(psize * 8 / spec.flow_rate_bps)
            network.hosts[key.dst].bind(PROTO_UDP, key.dport,
                                        self.on_delivery)
            self.heap.append((max(plan.start[i], now), i))
        heapq.heapify(self.heap)
        if self.heap:
            self.sim.call_at(self.heap[0][0], self.pump)

    def on_delivery(self, _pkt, _now):
        self.delivered += 1

    def pump(self, _arg=None):
        heap = self.heap
        cutoff = self.sim.now + 1e-12
        while heap and heap[0][0] <= cutoff:
            t, i = heapq.heappop(heap)
            key, psize = self.keys[i], self.psize[i]
            self.network.hosts[key.src].send(Packet(
                flow=key, size=psize, priority=self.spec.priority,
                payload_bytes=psize - HEADER_BYTES
                if psize > HEADER_BYTES else 0))
            self.packets_sent += 1
            self.bytes_sent += psize
            self.remaining[i] -= 1
            if self.remaining[i] > 0:
                heapq.heappush(heap, (t + self.interval[i], i))
        if heap:
            self.sim.call_at(heap[0][0], self.pump)


class Wire:
    """Stands in for the fabric: logs every packet sent and hands it to
    its destination's socket at once."""

    def __init__(self, t0):
        self.sim = Simulator()
        if t0:
            self.sim.run(until=t0)
        self.sent = []
        self.hosts = {name: WireHost(self, name) for name in HOSTS}


class WireHost:
    def __init__(self, wire, name):
        self.wire = wire
        self.name = name
        self.sockets = {}
        self.blocks = ()

    def bind(self, proto, port, handler):
        assert (proto, port) not in self.sockets
        self.sockets[proto, port] = handler

    def bind_blocks(self, blocks):
        assert not any(p == proto and lo < b_hi and b_lo < hi
                       for p, b_lo, b_hi, _ in self.blocks
                       for proto, lo, hi, _ in blocks)
        self.blocks = self.blocks + blocks if self.blocks else blocks

    def handler_for(self, proto, port):
        handler = self.sockets.get((proto, port))
        if handler is None:
            (handler,) = [h for p, lo, hi, h in self.blocks
                          if p == proto and lo <= port < hi]
        return handler

    def send(self, pkt):
        wire = self.wire
        assert pkt.flow.src == self.name
        wire.sent.append((wire.sim.now, pkt.flow, pkt.size, pkt.priority,
                          pkt.payload_bytes, pkt.ecmp))
        flow = pkt.flow
        wire.hosts[flow.dst].handler_for(flow.proto, flow.dport)(
            pkt, wire.sim.now)


def run(emitter_cls, spec, senders, receivers, t0):
    wire = Wire(t0)
    plan = FlowPlanner(spec, senders, receivers).plan(wire.sim.now)
    emitter = emitter_cls(wire, plan, spec)
    wire.sim.run()
    return wire, emitter


def assert_same_emission(spec, senders=HOSTS, receivers=HOSTS, t0=0.0):
    ref, eager = run(EagerEmitter, spec, senders, receivers, t0)
    wire, streaming = run(BackgroundTraffic, spec, senders, receivers, t0)
    assert wire.sent == ref.sent
    assert (streaming.packets_sent, streaming.bytes_sent,
            streaming.delivered) == (eager.packets_sent, eager.bytes_sent,
                                     eager.delivered)
    assert streaming.packets_sent == len(wire.sent)
    assert streaming.delivered == len(wire.sent)
    assert all(ecmp == _flow_hash(key) for _, key, *_, ecmp in wire.sent)
    # receiving costs one block on each distinct receiver, all of them
    # sharing one tuple, and no socket per flow
    plan = streaming.plan
    block = (PROTO_UDP, plan.base_port, plan.base_port + len(plan))
    receiving = {plan.receivers[d_i] for d_i in plan.dst}
    assert all(host.sockets == {} for host in wire.hosts.values())
    assert all(host.blocks == () for name, host in wire.hosts.items()
               if name not in receiving)
    shared = {id(wire.hosts[name].blocks) for name in receiving}
    assert len(shared) <= 1
    for name in receiving:
        assert [b[:3] for b in wire.hosts[name].blocks] == [block]
    # every flow started and ended: nothing of any flow is left
    assert streaming._started == streaming.n_flows and not streaming._heap
    return wire


sizes = st.sampled_from([
    # (min, mean, max) flow bytes: mice under one minimum-size packet,
    # the scenarios' mix, and multi-MB elephants
    (1, 40, 63), (1, 300, 5_000), (300, 4_000, 80_000),
    (100_000, 1_500_000, 6_000_000)])


@st.composite
def fixed_specs(draw, max_flows=40):
    lo, mean, hi = draw(sizes)
    big = hi > 1_000_000
    return WorkloadSpec(
        n_flows=draw(st.integers(0, 4 if big else max_flows)),
        spread_s=draw(st.sampled_from([0.0, 0.0005, 0.01])),
        mix=draw(st.sampled_from([MIX_UNIFORM, MIX_ZIPF])),
        zipf_s=draw(st.sampled_from([0.5, 1.1, 2.0])),
        min_flow_bytes=lo, mean_flow_bytes=mean, max_flow_bytes=hi,
        packet_size=draw(st.sampled_from([64, 1000, 9000] if not big
                                         else [9000])),
        flow_rate_bps=draw(st.sampled_from([2e7, 1e9])),
        priority=draw(st.integers(0, 7)),
        seed=draw(st.integers(0, 2 ** 31)))


poisson_specs = st.builds(
    WorkloadSpec,
    arrival_rate_per_s=st.sampled_from([500.0, 5_000.0, 20_000.0]),
    duration_s=st.sampled_from([0.001, 0.003]),
    mix=st.sampled_from([MIX_UNIFORM, MIX_ZIPF]),
    mean_flow_bytes=st.sampled_from([2_000, 20_000]),
    min_flow_bytes=st.sampled_from([10, 1_500]),
    max_flow_bytes=st.just(200_000),
    packet_size=st.sampled_from([1000, 9000]),
    flow_rate_bps=st.just(1e9),
    seed=st.integers(0, 2 ** 31))

endpoint_subsets = st.lists(st.sampled_from(HOSTS), unique=True,
                            min_size=2, max_size=len(HOSTS))


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(spec=fixed_specs())
def test_fixed_population_emits_alike(spec):
    assert_same_emission(spec)


@settings(max_examples=15, deadline=None, phases=NO_SHRINK)
@given(spec=fixed_specs(max_flows=60).map(
    lambda s: WorkloadSpec(**{**vars(s), "spread_s": 0.0})))
def test_tied_starts_emit_alike(spec):
    """Every flow starts at once: ties break by flow index."""
    wire = assert_same_emission(spec)
    if spec.n_flows:
        first = wire.sent[:spec.n_flows]
        assert {t for t, *_ in first} == {0.0}
        assert [key.sport for _, key, *_ in first] == sorted(
            key.sport for _, key, *_ in first)


@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
@given(spec=poisson_specs, t0=st.sampled_from([0.0, 0.0025, 0.1]))
def test_poisson_arrivals_after_t0_emit_alike(spec, t0):
    wire = assert_same_emission(spec, t0=t0)
    assert all(t > t0 for t, *_ in wire.sent)


@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
@given(spec=fixed_specs(), senders=endpoint_subsets,
       receivers=endpoint_subsets)
def test_endpoint_subsets_emit_alike(spec, senders, receivers):
    wire = assert_same_emission(spec, senders, receivers)
    assert {key.src for _, key, *_ in wire.sent} <= set(senders)
    assert {key.dst for _, key, *_ in wire.sent} <= set(receivers)


def test_a_flow_under_64_bytes_sends_one_minimum_packet():
    spec = WorkloadSpec(n_flows=5, min_flow_bytes=1, mean_flow_bytes=10,
                        max_flow_bytes=63, seed=3)
    wire = assert_same_emission(spec)
    assert [size for _, _, size, *_ in wire.sent] == [64] * 5
