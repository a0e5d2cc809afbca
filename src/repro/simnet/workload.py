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
  how much, starting when) with **no simulator objects at all**: a
  :class:`FlowPlan` is four ``array`` columns (sender index, receiver
  index, size, start), 24 bytes a flow.  :meth:`FlowPlanner.plan`
  draws endpoint indices in 4096-wide C-level ``random.choices``
  batches (sizes are one cheap ``random()`` call per flow).  Every
  attribute consumes its own derived RNG stream, so the plan does not
  depend on draw order: a property test holds it equal to a per-flow
  planner (one draw call per attribute per flow, kept under ``tests/``
  as the oracle) for equal seeds.
* :class:`BackgroundTraffic` materializes a plan with one heap-driven
  emitter for the *whole* population, instead of one
  :class:`~repro.simnet.traffic.UdpCbrSource` object + callback chain
  per flow.  A flow holds state (its ``FlowKey``, ECMP hash, packet
  size, packets left, spacing) only while it sends: from its start to
  its last packet.  Receiving costs one port block per distinct
  receiver (:meth:`~repro.simnet.host.Host.bind_blocks`, one tuple
  shared by them all), not a socket per flow, so a finished flow leaves
  nothing behind.

``docs/WORKLOADS.md`` documents the model and how the sweep ``flows=``
axis maps onto it.
"""

from __future__ import annotations

import heapq
import math
import random
import zlib
from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

from .packet import (DEFAULT_MTU, HEADER_BYTES, PRIO_LOW, PROTO_UDP, FlowKey,
                     Packet, _flow_hash)
from .topology import Network

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


class FlowPlan:
    """A planned population as columns (no simulator objects).

    Flow ``i`` runs from ``senders[src[i]]`` to ``receivers[dst[i]]``
    (never to itself) on UDP port ``base_port + i`` at both ends,
    carries ``size[i]`` bytes and starts at ``start[i]``.  The columns
    are machine-typed arrays; a flow's :class:`FlowKey` is made
    only when the emitter starts it (:meth:`key`).
    """

    __slots__ = ("senders", "receivers", "base_port", "src", "dst", "size",
                 "start")

    def __init__(self, senders: list[str], receivers: list[str],
                 base_port: int, start: array[float]) -> None:
        self.senders = senders
        self.receivers = receivers
        self.base_port = base_port
        self.src: array[int] = array("I")
        self.dst: array[int] = array("I")
        self.size: array[int] = array("q")
        self.start = start

    def __len__(self) -> int:
        return len(self.start)

    def key(self, i: int) -> FlowKey:
        """Flow ``i``'s 5-tuple."""
        port = self.base_port + i
        return FlowKey(self.senders[self.src[i]],
                       self.receivers[self.dst[i]], port, port, PROTO_UDP)


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

    Pure planning: the output is a :class:`FlowPlan` — no sinks,
    sources, or simulator state.  Draws are batched because one
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

    def _starts(self, t0: float) -> array[float]:
        """Flow start times (the ``arrival`` stream), none before ``t0``."""
        spec = self.spec
        rng = _stream(spec.seed, "arrival")
        if spec.n_flows is not None:
            if spec.spread_s == 0:
                return array("d", [t0]) * spec.n_flows
            return array("d", (t0 + rng.random() * spec.spread_s
                               for _ in range(spec.n_flows)))
        starts = array("d")
        t = t0
        end = t0 + spec.duration_s
        while True:
            t += rng.expovariate(spec.arrival_rate_per_s)
            if t >= end:
                break
            starts.append(t)
        return starts

    def _other_receiver(self, d_i: int, src: str) -> int:
        """The deterministic self-pair fix-up: the first receiver after
        ``d_i`` that is not ``src`` (no extra RNG draw, so stream
        consumption stays the same however the draws are batched)."""
        receivers = self.receivers
        for off in range(1, len(receivers) + 1):
            cand = (d_i + off) % len(receivers)
            if receivers[cand] != src:
                return cand
        raise ValueError(f"no receiver other than {src!r} available")

    # -- planning -------------------------------------------------------------

    def plan(self, t0: float = 0.0) -> FlowPlan:
        """The population: endpoint draws in ``BATCH``-sized C-level
        ``choices`` calls, size draws a single cheap ``random()`` per
        flow."""
        plan = FlowPlan(self.senders, self.receivers, self.base_port,
                        self._starts(t0))
        n = len(plan)
        rng_src = _stream(self.spec.seed, "src")
        rng_dst = _stream(self.spec.seed, "dst")
        rng_size = _stream(self.spec.seed, "size")
        senders, receivers = self.senders, self.receivers
        pos = 0
        while pos < n:
            k = min(self.BATCH, n - pos)
            src_is = rng_src.choices(self._src_idx,
                                     cum_weights=self._src_cum, k=k)
            dst_is = rng_dst.choices(self._dst_idx,
                                     cum_weights=self._dst_cum, k=k)
            plan.src.extend(src_is)
            plan.dst.extend(
                d_i if receivers[d_i] != senders[s_i]
                else self._other_receiver(d_i, senders[s_i])
                for s_i, d_i in zip(src_is, dst_is))
            plan.size.extend(self._size_of(rng_size.random())
                             for _ in range(k))
            pos += k
        return plan


#: a heap entry of :class:`BackgroundTraffic`: ``(time, flow, key, ECMP
#: hash, packet size, packets left, spacing)``; a pending start has no key
_Entry = tuple[float, int, Optional[FlowKey], int, int, int, float]


class BackgroundTraffic:
    """One emitter driving a whole planned population.

    A single min-heap drives one simulator callback for the entire
    population — no per-flow object, closure or scheduler entry, the
    difference between hundreds and thousands of concurrent flows being
    tractable.  The heap holds each live flow's next emission, whose
    entry carries the flow's whole state, plus the one next pending
    start.  Flows start in ``(start, index)`` order (``_order``, a
    stable sort of the plan's start column), so pops come out exactly
    as from a heap of every flow's ``(t, i)``; popping a start makes
    the flow's key and state and queues the following start, and a
    flow's state goes with its last packet.

    The plan's UDP ports ``[base_port, base_port + n)`` are bound at
    construction as one port block on each distinct receiver, all to
    one handler and in one shared tuple (a conflict with a port already
    bound fails here);
    deliveries are counted on ``self.delivered``.  The plan's starts
    must not precede the simulator's clock.
    """

    def __init__(self, network: Network, plan: FlowPlan,
                 spec: WorkloadSpec) -> None:
        self.network = network
        self.sim = network.sim
        self.spec = spec
        self.plan = plan
        self.packets_sent = 0
        self.bytes_sent = 0
        self.delivered = 0
        hosts = network.hosts
        receivers = plan.receivers
        # one block tuple, shared by every receiver that had none
        blocks = ((PROTO_UDP, plan.base_port, plan.base_port + len(plan),
                   self._on_delivery),)
        for d_i in sorted(set(plan.dst)):
            hosts[receivers[d_i]].bind_blocks(blocks)
        self._order = array("I", sorted(range(len(plan)),
                                        key=plan.start.__getitem__))
        #: flows started so far: ``_order[_started]`` starts next
        self._started = 0
        self._heap: list[_Entry] = []
        self._queue_next_start()
        if self._heap:
            self.sim.call_at(self._heap[0][0], self._pump)

    def _on_delivery(self, _pkt: Packet, _now: float) -> None:
        self.delivered += 1

    def _queue_next_start(self) -> None:
        k = self._started
        if k < len(self._order):
            i = self._order[k]
            heapq.heappush(self._heap, (self.plan.start[i], i, None, 0, 0,
                                        0, 0.0))
            self._started = k + 1

    def _start(self, i: int) -> tuple[FlowKey, int, int, int, float]:
        """Flow ``i`` starts: queue the next start, and make the flow's
        key, ECMP hash, packet size, packet count and spacing."""
        self._queue_next_start()
        spec = self.spec
        size = self.plan.size[i]
        psize = min(spec.packet_size, max(64, size))
        key = self.plan.key(i)
        return (key, _flow_hash(key), psize, max(1, -(-size // psize)),
                psize * 8 / spec.flow_rate_bps)

    def _pump(self, _arg: object = None) -> None:
        """Emit every due packet, then sleep until the next one."""
        heap = self._heap
        now = self.sim.now
        hosts = self.network.hosts
        priority = self.spec.priority
        pop = heapq.heappop
        push = heapq.heappush
        sent = 0
        nbytes = 0
        cutoff = now + 1e-12
        while heap and heap[0][0] <= cutoff:
            t, i, key, ecmp, psize, left, interval = pop(heap)
            if key is None:
                key, ecmp, psize, left, interval = self._start(i)
            # direct construction with the flow's FlowKey and hash —
            # make_udp minus the per-packet 5-tuple rebuild and hashing
            pkt = Packet(flow=key, size=psize, priority=priority,
                         payload_bytes=psize - HEADER_BYTES
                         if psize > HEADER_BYTES else 0, ecmp=ecmp)
            hosts[key.src].send(pkt)
            sent += 1
            nbytes += psize
            if left > 1:
                push(heap, (t + interval, i, key, ecmp, psize, left - 1,
                            interval))
        self.packets_sent += sent
        self.bytes_sent += nbytes
        if heap:
            self.sim.call_at(heap[0][0], self._pump)

    @property
    def n_flows(self) -> int:
        return len(self.plan)


class WorkloadGenerator:
    """Schedules a :class:`WorkloadSpec` onto a network's hosts.

    Flows are UDP at a fixed rate with size-derived duration — enough
    to exercise pointers, records, and queries without TCP dynamics
    (use the scenario builders when congestion control matters).

    :meth:`launch` materializes the :class:`FlowPlanner` plan through
    one :class:`BackgroundTraffic` emitter and keeps the plan in
    :attr:`flows` (empty before) for the post-run statistics.
    """

    def __init__(self, network: Network, spec: WorkloadSpec, *,
                 senders: Optional[list[str]] = None,
                 receivers: Optional[list[str]] = None,
                 base_port: int = 40_000) -> None:
        self.network = network
        self.spec = spec
        hosts = network.host_names
        self.planner = FlowPlanner(
            spec,
            senders if senders is not None else hosts,
            receivers if receivers is not None else hosts,
            base_port=base_port)
        self.flows = FlowPlan(self.planner.senders, self.planner.receivers,
                              base_port, array("d"))
        self.traffic: Optional[BackgroundTraffic] = None

    # -- planning -------------------------------------------------------------

    def plan(self) -> FlowPlan:
        """The flow plan for this generator (no simulator objects)."""
        return self.planner.plan(self.network.sim.now)

    # -- materialization ------------------------------------------------------

    def launch(self) -> BackgroundTraffic:
        """Materialize the plan through one batched emitter."""
        self.flows = self.plan()
        self.traffic = BackgroundTraffic(self.network, self.flows,
                                         self.spec)
        return self.traffic

    # -- post-run statistics ---------------------------------------------------

    def size_percentiles(
        self, ps: Sequence[int] = (50, 90, 99)
    ) -> dict[int, int]:
        sizes = sorted(self.flows.size)
        if not sizes:
            return {p: 0 for p in ps}
        out = {}
        for p in ps:
            rank = max(1, math.ceil(p / 100 * len(sizes)))
            out[p] = sizes[rank - 1]
        return out

    def elephant_byte_share(self, threshold: int = 1_000_000) -> float:
        """Fraction of bytes in flows >= threshold (tail check)."""
        sizes = self.flows.size
        total = sum(sizes)
        if total == 0:
            return 0.0
        return sum(s for s in sizes if s >= threshold) / total
