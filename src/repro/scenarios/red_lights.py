"""Fig 3: too many red lights (sequential per-switch contention)."""

from __future__ import annotations

from ..analyzer.apps import Verdict, diagnose_red_lights
from ..deployment import SwitchPointerDeployment
from ..simnet.packet import PRIO_HIGH, PRIO_LOW
from ..simnet.stats import ThroughputProbe, attach_flow_tap
from ..simnet.topology import Network
from ..simnet.traffic import TcpTimedFlow, UdpCbrSource, UdpSink
from .base import Knob, Scenario, ScenarioSpec, register
from .common import GBPS, priority_queue


def build_red_lights_network() -> Network:
    """Fig 1(b): A,B—S1—S2—S3—E,F with C,D on S2."""
    net = Network()
    s1, s2, s3 = (net.add_switch(n) for n in ("S1", "S2", "S3"))
    net.connect(s1, s2, rate_bps=GBPS, queue_factory=priority_queue)
    net.connect(s2, s3, rate_bps=GBPS, queue_factory=priority_queue)
    placement = {"A": s1, "B": s1, "C": s2, "D": s2, "E": s3, "F": s3}
    for name, sw in placement.items():
        host = net.add_host(name)
        net.connect(host, sw, rate_bps=GBPS,
                    queue_factory=priority_queue)
    net.compute_routes()
    return net


@register
class RedLightsScenario(Scenario):
    """Fig 1(b)/Fig 3: sequential 400 µs red lights at S1 then S2.

    Low-priority TCP A→F crosses S1,S2,S3.  High-priority UDP B→D hits
    the S1→S2 trunk for 400 µs; as it ends, UDP C→E hits the S2→S3
    trunk for another 400 µs.  The victim's throughput degrades at S1
    and again, cumulatively, at S2.
    """

    spec = ScenarioSpec(
        name="red-lights",
        summary="back-to-back bursts delay one victim at successive "
                "switches",
        paper_ref="Fig 1(b), Fig 3; §5.2 'too many red lights'",
        expected_diagnosis="too-many-red-lights",
        knobs={
            "burst_duration": Knob(0.0004, "length of each burst (s)"),
            "first_burst": Knob(0.005, "onset of the S1→S2 burst (s)"),
            "tcp_duration": Knob(0.010, "victim TCP flow duration (s)"),
            "alpha_ms": Knob(10, "epoch duration α (ms)"),
            "k": Knob(3, "pointer hierarchy depth"),
            "epsilon_ms": Knob(1.0, "clock-skew bound ε (ms)"),
            "delta_ms": Knob(2.0, "one-hop-delay bound Δ (ms)"),
        },
        aliases=("fig3",),
        smoke_knobs={},
    )

    def build(self) -> None:
        p = self.p
        net = build_red_lights_network()
        deploy = SwitchPointerDeployment(
            net, alpha_ms=p["alpha_ms"], k=p["k"],
            epsilon_ms=p["epsilon_ms"], delta_ms=p["delta_ms"])
        self.network, self.deployment = net, deploy

        self.tput_dst = ThroughputProbe(window=0.0005)
        victim_app = TcpTimedFlow(
            net.sim, net.hosts["A"], net.hosts["F"],
            duration=p["tcp_duration"], sport=100, dport=200,
            priority=PRIO_LOW, on_payload=self.tput_dst.on_packet)
        self.victim = victim_app.sender.flow
        deploy.watch_flow(self.victim, window=0.001)

        self.tput_s1 = ThroughputProbe(window=0.0005)
        self.tput_s2 = ThroughputProbe(window=0.0005)
        attach_flow_tap(net.link_between("S1", "S2").iface_of(
            net.switches["S1"]), self.victim, self.tput_s1)
        attach_flow_tap(net.link_between("S2", "S3").iface_of(
            net.switches["S2"]), self.victim, self.tput_s2)

        UdpSink(net.hosts["D"], 7100)
        UdpSink(net.hosts["E"], 7200)
        self.second_burst = p["first_burst"] + p["burst_duration"]
        UdpCbrSource(net.sim, net.hosts["B"], "D", sport=7100, dport=7100,
                     rate_bps=GBPS, priority=PRIO_HIGH,
                     start=p["first_burst"],
                     duration=p["burst_duration"])
        UdpCbrSource(net.sim, net.hosts["C"], "E", sport=7200, dport=7200,
                     rate_bps=GBPS, priority=PRIO_HIGH,
                     start=self.second_burst,
                     duration=p["burst_duration"])

    def run(self) -> None:
        self.network.run(until=self.p["tcp_duration"] + 0.020)

    def collect(self) -> dict:
        return {
            "alerts": len(self.deployment.alerts()),
            "victim_bytes": self.tput_dst.total_bytes,
        }

    def diagnose(self) -> list[Verdict]:
        alerts = self.deployment.alerts()
        if not alerts:
            return []
        return [diagnose_red_lights(self.deployment.analyzer, alerts[0])]
