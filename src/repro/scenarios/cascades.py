"""Fig 4: traffic cascades (chained cross-priority delays)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..analyzer.apps import Verdict, diagnose_cascade
from ..deployment import SwitchPointerDeployment
from ..hostd.triggers import VictimAlert
from ..simnet.packet import PRIO_HIGH, PRIO_LOW, PRIO_MEDIUM, FlowKey
from ..simnet.stats import ThroughputProbe
from ..simnet.topology import Network
from ..simnet.traffic import TcpBulkTransfer, UdpCbrSource, UdpSink
from .base import Knob, Scenario, ScenarioSpec, register
from .common import GBPS, priority_queue


@dataclass
class CascadesResult:
    """Output of one Fig 4 run (with or without the cascade)."""

    cascaded: bool
    deployment: SwitchPointerDeployment
    network: Network
    tput_bd: ThroughputProbe
    tput_af: ThroughputProbe
    tput_ce: ThroughputProbe
    flow_bd: FlowKey
    flow_af: FlowKey
    flow_ce: FlowKey
    ce_completed_at: Optional[float]
    alerts: list[VictimAlert] = field(default_factory=list)


def build_cascades_network(*, reroute_bd: bool) -> Network:
    """Fig 1(c) topology; ``reroute_bd`` gives B a bypass to S2.

    With the bypass (the no-cascade baseline), flow B→D reaches D via
    S1b→S2 without touching the S1→S2 trunk — standing in for "B-D on a
    different path" before the failure reroutes it.
    """
    net = Network()
    s1, s2, s3 = (net.add_switch(n) for n in ("S1", "S2", "S3"))
    net.connect(s1, s2, rate_bps=GBPS, queue_factory=priority_queue)
    net.connect(s2, s3, rate_bps=GBPS, queue_factory=priority_queue)
    placement = {"A": s1, "C": s2, "D": s2, "E": s3, "F": s3}
    if reroute_bd:
        s1b = net.add_switch("S1b")
        net.connect(s1b, s2, rate_bps=GBPS, queue_factory=priority_queue)
        placement["B"] = s1b
    else:
        placement["B"] = s1
    for name, sw in placement.items():
        host = net.add_host(name)
        net.connect(host, sw, rate_bps=GBPS,
                    queue_factory=priority_queue)
    net.compute_routes()
    return net


@register
class CascadesScenario(Scenario):
    """Fig 1(c)/Fig 4: B→D (high) delays A→F (middle) delays C→E (low).

    ``cascaded=False`` reroutes B→D off the S1→S2 trunk, so A→F drains
    on time and C→E finds an idle S2→S3 trunk (Fig 4(a)); with
    ``cascaded=True`` the chain of delays forms (Fig 4(b)).
    """

    spec = ScenarioSpec(
        name="cascades",
        summary="a high-priority flow delays a middle one, which delays "
                "a third (chain)",
        paper_ref="Fig 1(c), Fig 4; §5.3 'traffic cascades'",
        expected_diagnosis="traffic-cascade",
        knobs={
            "cascaded": Knob(True, "True forms the cascade; False "
                                   "reroutes B→D off the trunk"),
            "udp_duration": Knob(0.010, "B→D and A→F source duration (s)"),
            "ce_bytes": Knob(2_000_000, "C→E transfer size (bytes)"),
            "ce_start": Knob(0.012, "C→E start time (s)"),
            "alpha_ms": Knob(10, "epoch duration α (ms)"),
            "k": Knob(3, "pointer hierarchy depth"),
            "epsilon_ms": Knob(1.0, "clock-skew bound ε (ms)"),
            "delta_ms": Knob(2.0, "one-hop-delay bound Δ (ms)"),
        },
        aliases=("fig4",),
        smoke_knobs={"ce_bytes": 500_000},
    )

    def build(self) -> None:
        p = self.p
        net = build_cascades_network(reroute_bd=not p["cascaded"])
        deploy = SwitchPointerDeployment(
            net, alpha_ms=p["alpha_ms"], k=p["k"],
            epsilon_ms=p["epsilon_ms"], delta_ms=p["delta_ms"])
        self.network, self.deployment = net, deploy

        self.tput_bd = ThroughputProbe(window=0.001)
        self.tput_af = ThroughputProbe(window=0.001)
        self.tput_ce = ThroughputProbe(window=0.001)

        UdpSink(net.hosts["D"], 7100, on_packet=self.tput_bd.on_packet)
        UdpSink(net.hosts["F"], 7300, on_packet=self.tput_af.on_packet)

        self.src_bd = UdpCbrSource(
            net.sim, net.hosts["B"], "D", sport=7100, dport=7100,
            rate_bps=GBPS, priority=PRIO_HIGH, start=0.0,
            duration=p["udp_duration"])
        self.src_af = UdpCbrSource(
            net.sim, net.hosts["A"], "F", sport=7300, dport=7300,
            rate_bps=GBPS, priority=PRIO_MEDIUM, start=0.0,
            duration=p["udp_duration"])
        self.ce_app = TcpBulkTransfer(
            net.sim, net.hosts["C"], net.hosts["E"],
            nbytes=p["ce_bytes"], sport=100, dport=200,
            priority=PRIO_LOW, start=p["ce_start"],
            on_payload=self.tput_ce.on_packet)
        self.flow_ce = self.ce_app.sender.flow
        deploy.watch_flow(self.flow_ce, window=0.001)

    def run(self) -> None:
        self.network.run(until=0.080)

    def collect(self) -> dict:
        p = self.p
        self.payload = CascadesResult(
            cascaded=p["cascaded"], deployment=self.deployment,
            network=self.network, tput_bd=self.tput_bd,
            tput_af=self.tput_af, tput_ce=self.tput_ce,
            flow_bd=self.src_bd.flow, flow_af=self.src_af.flow,
            flow_ce=self.flow_ce,
            ce_completed_at=self.ce_app.completed_at,
            alerts=list(self.deployment.alerts()))
        done = self.payload.ce_completed_at
        return {
            "ce_completed_ms": (round(done * 1e3, 2)
                                if done is not None else None),
            "alerts": len(self.payload.alerts),
        }

    def diagnose(self) -> list[Verdict]:
        alerts = self.deployment.alerts()
        if not alerts:
            return []
        return [diagnose_cascade(self.deployment.analyzer, alerts[0])]
