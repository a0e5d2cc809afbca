"""Constants, queue factories, topology helpers, and the background
traffic-population plumbing shared by the scenario modules."""

from __future__ import annotations

import math
from typing import Iterable, Optional

from ..core.epoch import EpochClock, EpochRange
from ..core.rng import run_stream
from ..faults import parse_spare
from ..simnet.packet import PROTO_UDP, FlowKey, _flow_hash
from ..simnet.queues import DropTailFIFO, StrictPriorityQueue
from ..simnet.topology import Network
from ..simnet.workload import (BackgroundTraffic, WorkloadGenerator,
                               WorkloadSpec)
from .base import Knob, Scenario

#: Pica8-class deep shared buffer (the paper's testbed switch family has
#: multi-MB packet memory; a shallow buffer would clip the starvation
#: episodes that Fig 2 shows at m = 8, 16).
DEEP_BUFFER_BYTES = 4 * 1024 * 1024
GBPS = 1e9


def priority_queue() -> StrictPriorityQueue:
    return StrictPriorityQueue(levels=3, capacity_bytes=DEEP_BUFFER_BYTES)


def fifo_queue() -> DropTailFIFO:
    return DropTailFIFO(capacity_bytes=DEEP_BUFFER_BYTES)


def build_diamond(n_pairs: int, *, trunk_bps: float,
                  host_bps: float) -> Network:
    """S1—{SPA,SPB}—S2 with ``n_pairs`` tx/rx host pairs.

    The two-spine diamond shared by the load-imbalance and link-flap
    scenarios; only the link rates differ between them.  ECMP candidate
    order at S1/S2 follows link creation order: SPA first, then SPB.
    """
    net = Network()
    s1 = net.add_switch("S1")
    spine_a = net.add_switch("SPA")
    spine_b = net.add_switch("SPB")
    s2 = net.add_switch("S2")
    for spine in (spine_a, spine_b):
        net.connect(s1, spine, rate_bps=trunk_bps,
                    queue_factory=fifo_queue)
        net.connect(spine, s2, rate_bps=trunk_bps,
                    queue_factory=fifo_queue)
    for i in range(n_pairs):
        tx = net.add_host(f"tx{i}")
        rx = net.add_host(f"rx{i}")
        net.connect(tx, s1, rate_bps=host_bps, queue_factory=fifo_queue)
        net.connect(rx, s2, rate_bps=host_bps, queue_factory=fifo_queue)
    net.compute_routes()
    return net


def sport_for_side(src: str, dst: str, side: int, *, start: int,
                   n_sides: int = 2, proto: int = PROTO_UDP,
                   dport: Optional[int] = None) -> int:
    """First source port ≥ ``start`` whose healthy 5-tuple hash picks
    ECMP candidate ``side``.

    The scenarios that need a provable baseline split (link-flap,
    polarization, multi-fault) all pin flows to spines by scanning
    source ports against the healthy hash; this is the one copy of
    that invariant.  ``dport`` defaults to mirroring the source port
    (the UDP convention here); TCP callers pass their fixed one.
    """
    sport = start
    while True:
        key = FlowKey(src, dst, sport,
                      sport if dport is None else dport, proto)
        if _flow_hash(key) % n_sides == side:
            return sport
        sport += 1


def background_knobs() -> dict[str, Knob]:
    """The background-population knobs traffic-scale scenarios share.

    ``bg_flows`` is what the scale sweeps' grids vary: the size of
    the synthetic flow population running alongside the scenario's own
    workload (see ``docs/WORKLOADS.md``).
    """
    return {
        "bg_flows": Knob(0, "background workload flows (0 = none; "
                            "the scale sweeps' traffic axis)", minimum=0),
        "bg_mix": Knob("uniform", "background endpoint mix: "
                                  "uniform or zipf"),
        "bg_flow_kb": Knob(4, "mean background flow size "
                              "(KB, bounded Pareto)", minimum=1),
    }


def directory_knobs() -> dict[str, Knob]:
    """The switch-directory backend knobs pointer-bearing scenarios share.

    Each maps onto a :class:`~repro.deployment.SwitchPointerDeployment`
    constructor argument; the ``directory-bits`` sweep varies
    ``directory_bits`` so nightly runs chart diagnosis accuracy (and the
    pointer false-positive rate) against per-set sketch memory — see
    ``docs/DIRECTORIES.md``.
    """
    return {
        "directory_backend": Knob("auto", "switch directory-set backend: "
                                          "exact, bloom, lsh, or auto"),
        "directory_bits": Knob(0, "sketch bit budget per pointer set "
                                  "(0 = saturating, exact-equivalent)"),
        "directory_hashes": Knob(4, "hash probes per sketch insert"),
    }


def fault_knobs() -> dict[str, Knob]:
    """The ambient-fault knobs fault-capable scenarios share.

    Each knob arms one registered fault (``repro.faults``) on top of
    the scenario's own declared fault — the ``skew_ms`` and
    ``deploy_frac`` grids vary them, so nightly runs measure diagnosis
    accuracy under clock skew and partial deployment.
    """
    return {
        "skew_ms": Knob(0.0, "clock-skew fault: max per-device epoch "
                             "clock offset (ms; 0 = synchronized)", minimum=0),
        "deploy_frac": Knob(1.0, "partial-deployment fault: fraction "
                                 "of switches instrumented (<1.0 "
                                 "strips the rest)", minimum=0),
        "deploy_spare": Knob("", "switches never stripped by partial "
                                 "deployment (comma-separated; the "
                                 "path-pinning embedder is always "
                                 "spared)"),
        "crash_host": Knob("", "agent-crash fault: host whose agent "
                               "dies mid-run ('' = none)"),
        "crash_at": Knob(0.0, "when the agent crash fires (s)", minimum=0),
    }


def install_fault_knobs(scenario: Scenario, *,
                        extra_spare: Iterable[str] = ()) -> None:
    """Arm the :func:`fault_knobs` faults a scenario's knobs request.

    Call at the end of ``build()`` (topology and deployment exist, the
    plan is not yet scheduled).  ``extra_spare`` lists switches the
    scenario cannot function without — typically the CherryPick
    embedding hop, without which no host records exist at all — merged
    into the user's ``deploy_spare``.
    """
    p = scenario.p
    if p.get("skew_ms", 0.0) > 0:
        scenario.add_fault("clock-skew", skew_ms=p["skew_ms"],
                           targets="all")
    if p.get("deploy_frac", 1.0) < 1.0:
        spare = list(parse_spare(p.get("deploy_spare", "")))
        spare.extend(s for s in extra_spare if s not in spare)
        scenario.add_fault("partial-deployment", frac=p["deploy_frac"],
                           spare=",".join(spare))
    if p.get("crash_host"):
        scenario.add_fault("agent-crash", host=p["crash_host"],
                           start=p.get("crash_at", 0.0))


def silence_window(scenario: Scenario, clock: EpochClock) -> EpochRange:
    """The epochs, read on ``clock``, that a silent drop starting at the
    ``fault_time`` knob has silenced: the first whole epoch after the
    fault up to now.

    Under the ``skew_ms`` knob (the all-device clock-skew fault) the
    per-device offsets span ±skew_ms, so a switch may run up to
    2·skew_ms ahead of ``clock`` and mark that much more pre-fault
    epoch residue; the lower edge moves up by ``ceil(2·skew_ms/α)``
    epochs so the residue is never misread as forwarding-in-silence.
    """
    p = scenario.p
    first = clock.epoch_of(p["fault_time"])
    if p["fault_time"] > clock.epoch_start(first):
        first += 1          # fault mid-epoch: that epoch is mixed
    if p["skew_ms"] > 0:
        first += math.ceil(2 * p["skew_ms"] / p["alpha_ms"])
    return EpochRange(first, clock.epoch_of(scenario.network.sim.now))


def launch_background(network: Network, p: dict, *, duration: float,
                      exclude: Iterable[str] = (),
                      eligible: Optional[Iterable[str]] = None
                      ) -> Optional[BackgroundTraffic]:
    """Start the ``bg_*``-knob flow population (None when 0 flows).

    Flows are planned in batches and driven by one
    :class:`~repro.simnet.workload.BackgroundTraffic` emitter, start
    uniformly over the first half of ``duration``, and avoid the
    ``exclude`` hosts (e.g. incast's victim receiver, so background
    noise cannot fake fan-in culprits).  ``eligible`` restricts the
    pool further (e.g. link-flap keeps the population off the flapping
    trunk entirely — see the scenario's knob help).  The workload seed
    derives from the seeded run stream (:mod:`repro.core.rng`) — a
    sweep point's recorded seed reproduces the exact population.
    """
    n = p["bg_flows"]
    if n <= 0:
        return None
    banned = set(exclude)
    pool = (network.host_names if eligible is None
            else [h for h in eligible])
    hosts = [h for h in pool if h not in banned]
    if len(hosts) < 2:
        raise ValueError("background workload needs >= 2 eligible hosts")
    mean = p["bg_flow_kb"] * 1024
    spec = WorkloadSpec(
        n_flows=n, spread_s=duration * 0.5, mix=p["bg_mix"],
        mean_flow_bytes=mean, min_flow_bytes=300,
        max_flow_bytes=max(20 * mean, 300), packet_size=1000,
        flow_rate_bps=2e7, seed=run_stream().randrange(2 ** 31))
    gen = WorkloadGenerator(network, spec, senders=hosts,
                            receivers=hosts)
    return gen.launch()
