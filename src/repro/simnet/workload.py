"""Synthetic datacenter workload generation.

The paper's micro-benchmarks use hand-placed flows; the sweep subsystem
additionally needs fabric-scale background *populations* — hundreds to
thousands of concurrent flows per grid point — with the usual
datacenter statistics:

* **heavy-tailed flow sizes** — most flows are mice, most bytes belong
  to elephants (bounded Pareto, as in the Benson/Roy traffic studies
  the paper cites for packet sizes);
* **Poisson flow arrivals** with a configurable rate, *or* a
  fixed-size population (``n_flows``) spread over a start window —
  the mode the ``flows=`` sweep axis drives;
* **uniform or zipf-skewed endpoint selection** over the host set.

Everything is seeded and deterministic.  Generation is split into two
layers so large populations stay cheap:

* :class:`FlowPlanner` produces the flow *plan* (who talks to whom,
  how much, starting when) with **no simulator objects at all**.
  :meth:`FlowPlanner.plan` draws endpoint indices in 4096-wide C-level
  ``random.choices`` batches (sizes are one cheap ``random()`` call
  per flow).  Every attribute consumes its own derived RNG stream, so
  the plan does not depend on draw order: a property test holds it
  equal to a per-flow planner (one draw call per attribute per flow,
  kept under ``tests/`` as the oracle) for equal seeds.
* :class:`BackgroundTraffic` materializes a plan with one heap-driven
  emitter for the *whole* population (flow state lives in parallel
  lists), instead of one :class:`~repro.simnet.traffic.UdpCbrSource`
  object + callback chain per flow — the per-flow Python overhead that
  used to dominate at thousands of flows.

``docs/WORKLOADS.md`` documents the model and how the sweep ``flows=``
axis maps onto it.
"""

from __future__ import annotations

import heapq
import math
import random
import zlib
from dataclasses import dataclass
from typing import Optional, Sequence

from .packet import (DEFAULT_MTU, HEADER_BYTES, PRIO_LOW, PROTO_UDP, FlowKey,
                     Packet)
from .topology import Network
from .traffic import UdpCbrSource, UdpSink

#: Endpoint-mix families (`WorkloadSpec.mix`).
MIX_UNIFORM = "uniform"
MIX_ZIPF = "zipf"
MIXES = (MIX_UNIFORM, MIX_ZIPF)


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of a synthetic workload.

    Two arrival modes:

    * ``n_flows=None`` (default) — Poisson arrivals at
      ``arrival_rate_per_s`` for ``duration_s`` seconds;
    * ``n_flows=N`` — exactly ``N`` flows, their start times uniform
      over ``[t0, t0 + spread_s]`` (``spread_s=0`` starts them all at
      once).  This is the mode the sweep ``flows=`` axis uses.

    ``mix`` selects the endpoint distribution: ``uniform`` over the
    sender/receiver lists, or ``zipf`` with exponent ``zipf_s`` (rank =
    position in the list, so earlier hosts are hotter).
    """

    arrival_rate_per_s: float = 2000.0
    n_flows: Optional[int] = None
    spread_s: float = 0.0
    mix: str = MIX_UNIFORM
    zipf_s: float = 1.1
    mean_flow_bytes: int = 100_000
    pareto_shape: float = 1.2          # <2: heavy tail
    min_flow_bytes: int = 1_500
    max_flow_bytes: int = 10_000_000
    flow_rate_bps: float = 1e9
    packet_size: int = DEFAULT_MTU
    duration_s: float = 0.1
    priority: int = PRIO_LOW
    seed: int = 42

    def __post_init__(self) -> None:
        if self.arrival_rate_per_s <= 0:
            raise ValueError("arrival rate must be positive")
        if self.n_flows is not None and self.n_flows < 0:
            raise ValueError("n_flows must be >= 0")
        if self.spread_s < 0:
            raise ValueError("spread_s must be >= 0")
        if self.mix not in MIXES:
            raise ValueError(
                f"mix must be one of {MIXES}, got {self.mix!r}")
        if self.pareto_shape <= 1.0:
            raise ValueError("pareto shape must exceed 1 (finite mean)")
        if not 0 < self.min_flow_bytes <= self.max_flow_bytes:
            raise ValueError("invalid flow size bounds")
        if self.flow_rate_bps <= 0:
            raise ValueError("flow rate must be positive")
        if self.packet_size < 64:
            raise ValueError("packet size must be >= 64 bytes")


@dataclass(frozen=True)
class PlannedFlow:
    """One flow of a planned population (no simulator objects)."""

    flow: FlowKey
    size_bytes: int
    start: float


@dataclass
class GeneratedFlow:
    """One flow the generator materialized onto the simulator."""

    flow: FlowKey
    size_bytes: int
    start: float
    source: Optional[UdpCbrSource] = None


def _stream(seed: int, label: str) -> random.Random:
    """A derived RNG stream, stable per (seed, attribute label).

    Giving every flow attribute its own stream is what makes the plan
    independent of draw *order* (all sources at once vs one flow at a
    time) — the property the batched :meth:`FlowPlanner.plan` is
    tested against.
    """
    return random.Random(zlib.crc32(f"{seed}/{label}".encode("ascii")))


class FlowPlanner:
    """Plans a :class:`WorkloadSpec` population over endpoint lists.

    Pure planning: the output is a list of :class:`PlannedFlow` — no
    sinks, sources, or simulator state.  Draws are batched because one
    ``random.choices(k=4096)`` call runs the draw loop in C where a
    per-flow draw pays Python call overhead per flow.
    """

    #: endpoint/size draws per batch in :meth:`plan`
    BATCH = 4096

    def __init__(self, spec: WorkloadSpec, senders: list[str],
                 receivers: list[str], *, base_port: int = 40_000):
        if not senders or not receivers:
            raise ValueError("need at least one sender and receiver")
        if len(receivers) == 1 and senders == receivers:
            raise ValueError("sole sender and receiver coincide: "
                             "every pair would be a self-flow")
        self.spec = spec
        self.senders = list(senders)
        self.receivers = list(receivers)
        self.base_port = base_port
        self._src_cum = self._cum_weights(len(self.senders))
        self._dst_cum = self._cum_weights(len(self.receivers))
        self._src_idx = range(len(self.senders))
        self._dst_idx = range(len(self.receivers))

    # -- distributions --------------------------------------------------------

    def _cum_weights(self, n: int) -> Optional[list[float]]:
        """Cumulative zipf weights by list rank (None for uniform)."""
        if self.spec.mix == MIX_UNIFORM:
            return None
        total, cum = 0.0, []
        for rank in range(1, n + 1):
            total += rank ** -self.spec.zipf_s
            cum.append(total)
        return cum

    def _size_of(self, u: float) -> int:
        """Bounded-Pareto flow size from one uniform draw."""
        spec = self.spec
        shape = spec.pareto_shape
        # scale so that the unbounded Pareto mean matches mean_flow_bytes
        scale = spec.mean_flow_bytes * (shape - 1) / shape
        scale = max(scale, spec.min_flow_bytes)
        size = scale / ((1.0 - u) ** (1 / shape))
        return int(min(max(size, spec.min_flow_bytes),
                       spec.max_flow_bytes))

    def _starts(self, t0: float) -> list[float]:
        """Flow start times (the ``arrival`` stream)."""
        spec = self.spec
        rng = _stream(spec.seed, "arrival")
        if spec.n_flows is not None:
            if spec.spread_s == 0:
                return [t0] * spec.n_flows
            return [t0 + rng.random() * spec.spread_s
                    for _ in range(spec.n_flows)]
        starts = []
        t = t0
        end = t0 + spec.duration_s
        while True:
            t += rng.expovariate(spec.arrival_rate_per_s)
            if t >= end:
                break
            starts.append(t)
        return starts

    def _make_flow(self, i: int, s_i: int, d_i: int, size: int,
                   start: float) -> PlannedFlow:
        """Assemble flow ``i`` from its drawn endpoint indices and size."""
        src = self.senders[s_i]
        dst = self.receivers[d_i]
        if src == dst:
            # deterministic self-pair fix-up: step to the next receiver
            # (no extra RNG draw, so stream consumption stays the same
            # however the draws are batched)
            for off in range(1, len(self.receivers) + 1):
                cand = (d_i + off) % len(self.receivers)
                if self.receivers[cand] != src:
                    d_i, dst = cand, self.receivers[cand]
                    break
            else:
                raise ValueError(
                    f"no receiver other than {src!r} available")
        port = self.base_port + i
        return PlannedFlow(
            flow=FlowKey(src, dst, port, port, PROTO_UDP),
            size_bytes=size, start=start)

    # -- planning -------------------------------------------------------------

    def plan(self, t0: float = 0.0) -> list[PlannedFlow]:
        """The population: endpoint draws in ``BATCH``-sized C-level
        ``choices`` calls, size draws a single cheap ``random()`` per
        flow."""
        starts = self._starts(t0)
        n = len(starts)
        rng_src = _stream(self.spec.seed, "src")
        rng_dst = _stream(self.spec.seed, "dst")
        rng_size = _stream(self.spec.seed, "size")
        flows: list[PlannedFlow] = []
        pos = 0
        while pos < n:
            k = min(self.BATCH, n - pos)
            src_is = rng_src.choices(self._src_idx,
                                     cum_weights=self._src_cum, k=k)
            dst_is = rng_dst.choices(self._dst_idx,
                                     cum_weights=self._dst_cum, k=k)
            sizes = [self._size_of(rng_size.random()) for _ in range(k)]
            for j in range(k):
                i = pos + j
                flows.append(self._make_flow(i, src_is[j], dst_is[j],
                                             sizes[j], starts[i]))
            pos += k
        return flows


class BackgroundTraffic:
    """One emitter driving a whole planned population.

    Flow state (remaining packets, per-flow packet size and spacing)
    lives in parallel lists; a single min-heap of ``(next_emit, flow)``
    entries drives one simulator callback for the entire population.
    Compared to one :class:`UdpCbrSource` per flow this removes the
    per-flow object, closure, and scheduler-entry overhead — the
    difference between hundreds and thousands of concurrent flows
    being tractable.

    Sinks are bound once per ``(dst, port)``; deliveries are counted
    on ``self.delivered``.
    """

    def __init__(self, network: Network, plans: list[PlannedFlow],
                 spec: WorkloadSpec):
        self.network = network
        self.sim = network.sim
        self.spec = spec
        self.plans = plans
        self.packets_sent = 0
        self.bytes_sent = 0
        self.delivered = 0
        self._stopped = False
        self._psize: list[int] = []
        self._remaining: list[int] = []
        self._interval: list[float] = []
        self._heap: list[tuple[float, int]] = []
        bound: set[tuple[str, int]] = set()
        now = self.sim.now
        for i, p in enumerate(plans):
            psize = min(spec.packet_size, max(64, p.size_bytes))
            self._psize.append(psize)
            self._remaining.append(max(1, -(-p.size_bytes // psize)))
            self._interval.append(psize * 8 / spec.flow_rate_bps)
            key = (p.flow.dst, p.flow.dport)
            if key not in bound:
                network.hosts[p.flow.dst].bind(PROTO_UDP, p.flow.dport,
                                               self._on_delivery)
                bound.add(key)
            self._heap.append((max(p.start, now), i))
        heapq.heapify(self._heap)
        if self._heap:
            self.sim.call_at(self._heap[0][0], self._pump)

    def _on_delivery(self, _pkt: Packet, _now: float) -> None:
        self.delivered += 1

    def _pump(self, _arg: object = None) -> None:
        """Emit every due packet, then sleep until the next one."""
        if self._stopped:
            return
        heap = self._heap
        now = self.sim.now
        hosts = self.network.hosts
        plans = self.plans
        psizes = self._psize
        remaining = self._remaining
        intervals = self._interval
        priority = self.spec.priority
        pop = heapq.heappop
        push = heapq.heappush
        sent = 0
        nbytes = 0
        cutoff = now + 1e-12
        while heap and heap[0][0] <= cutoff:
            t, i = pop(heap)
            key = plans[i].flow
            psize = psizes[i]
            # direct construction with the planned FlowKey — make_udp
            # minus the per-packet 5-tuple rebuild
            pkt = Packet(flow=key, size=psize, priority=priority,
                         payload_bytes=psize - HEADER_BYTES
                         if psize > HEADER_BYTES else 0)
            hosts[key.src].send(pkt)
            sent += 1
            nbytes += psize
            remaining[i] -= 1
            if remaining[i] > 0:
                push(heap, (t + intervals[i], i))
        self.packets_sent += sent
        self.bytes_sent += nbytes
        if heap:
            self.sim.call_at(heap[0][0], self._pump)

    def stop(self) -> None:
        """Cancel all pending emissions."""
        self._stopped = True
        self._heap.clear()

    @property
    def n_flows(self) -> int:
        return len(self.plans)


class WorkloadGenerator:
    """Schedules a :class:`WorkloadSpec` onto a network's hosts.

    Flows are UDP at a fixed rate with size-derived duration — enough
    to exercise pointers, records, and queries without TCP dynamics
    (use the scenario builders when congestion control matters).

    Two materialization paths:

    * :meth:`schedule` — one :class:`UdpCbrSource`/:class:`UdpSink`
      pair per flow (the historical path, fine for dozens of flows);
    * :meth:`launch` — the batched plan driven by one
      :class:`BackgroundTraffic` emitter (the path sweeps use for
      thousands of flows).

    Both draw from the same :class:`FlowPlanner`, so for equal specs
    they carry the same flow population.
    """

    def __init__(self, network: Network, spec: WorkloadSpec, *,
                 senders: Optional[list[str]] = None,
                 receivers: Optional[list[str]] = None,
                 base_port: int = 40_000):
        self.network = network
        self.spec = spec
        hosts = network.host_names
        self.planner = FlowPlanner(
            spec,
            senders if senders is not None else hosts,
            receivers if receivers is not None else hosts,
            base_port=base_port)
        self.flows: list[GeneratedFlow] = []
        self.traffic: Optional[BackgroundTraffic] = None
        self._sinks: set[tuple[str, int]] = set()

    # -- planning -------------------------------------------------------------

    def plan(self) -> list[PlannedFlow]:
        """The flow plan for this generator (no simulator objects)."""
        return self.planner.plan(self.network.sim.now)

    # -- materialization ------------------------------------------------------

    def schedule(self) -> list[GeneratedFlow]:
        """Materialize the plan one UdpCbrSource per flow."""
        spec = self.spec
        for p in self.plan():
            self._ensure_sink(p.flow.dst, p.flow.dport)
            duration = max(p.size_bytes * 8 / spec.flow_rate_bps, 1e-6)
            source = UdpCbrSource(
                self.network.sim, self.network.hosts[p.flow.src],
                p.flow.dst, sport=p.flow.sport, dport=p.flow.dport,
                rate_bps=spec.flow_rate_bps,
                packet_size=min(spec.packet_size, max(64, p.size_bytes)),
                priority=spec.priority, start=p.start, duration=duration)
            self.flows.append(GeneratedFlow(flow=p.flow,
                                            size_bytes=p.size_bytes,
                                            start=p.start, source=source))
        return self.flows

    def launch(self) -> BackgroundTraffic:
        """Materialize the plan through one batched emitter."""
        plans = self.plan()
        self.traffic = BackgroundTraffic(self.network, plans, self.spec)
        self.flows = [GeneratedFlow(flow=p.flow, size_bytes=p.size_bytes,
                                    start=p.start) for p in plans]
        return self.traffic

    def _ensure_sink(self, host_name: str, port: int) -> None:
        key = (host_name, port)
        if key not in self._sinks:
            UdpSink(self.network.hosts[host_name], port)
            self._sinks.add(key)

    # -- post-run statistics ---------------------------------------------------

    def size_percentiles(
        self, ps: Sequence[int] = (50, 90, 99)
    ) -> dict[int, int]:
        sizes = sorted(f.size_bytes for f in self.flows)
        if not sizes:
            return {p: 0 for p in ps}
        out = {}
        for p in ps:
            rank = max(1, math.ceil(p / 100 * len(sizes)))
            out[p] = sizes[rank - 1]
        return out

    def elephant_byte_share(self, threshold: int = 1_000_000) -> float:
        """Fraction of bytes in flows >= threshold (tail check)."""
        total = sum(f.size_bytes for f in self.flows)
        if total == 0:
            return 0.0
        big = sum(f.size_bytes for f in self.flows
                  if f.size_bytes >= threshold)
        return big / total
