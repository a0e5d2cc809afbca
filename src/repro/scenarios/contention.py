"""Fig 2 / Fig 7: too much traffic (priority + microburst contention)."""

from __future__ import annotations

from ..analyzer.apps import Verdict, diagnose_contention
from ..deployment import SwitchPointerDeployment
from ..simnet.packet import PRIO_HIGH, PRIO_LOW
from ..simnet.stats import InterArrivalProbe, ThroughputProbe
from ..simnet.topology import Network
from ..simnet.traffic import TcpTimedFlow, UdpSink, schedule_burst_batches
from .base import Knob, Scenario, ScenarioSpec, register
from .common import GBPS, fifo_queue, priority_queue


def _build_dumbbell(m_flows: int, *, queue_factory) -> Network:
    """S1—S2 trunk; m+1 sender/receiver pairs on opposite sides."""
    net = Network()
    s1 = net.add_switch("S1")
    s2 = net.add_switch("S2")
    net.connect(s1, s2, rate_bps=GBPS, queue_factory=queue_factory)
    for i in range(m_flows + 1):
        a = net.add_host(f"h1_{i}")
        b = net.add_host(f"h2_{i}")
        net.connect(a, s1, rate_bps=GBPS, queue_factory=queue_factory)
        net.connect(b, s2, rate_bps=GBPS, queue_factory=queue_factory)
    net.compute_routes()
    return net


def _contention_knobs(discipline: str) -> dict[str, Knob]:
    return {
        "m_flows": Knob(8, "burst flows contending with the victim",
                        minimum=0),
        "discipline": Knob(discipline, "'priority' or 'fifo' queueing"),
        "duration": Knob(0.100, "victim TCP flow duration (s)"),
        "burst_start": Knob(0.030, "burst onset (s)"),
        "burst_duration": Knob(0.001, "burst length (s)"),
        "alpha_ms": Knob(10, "epoch duration α (ms)"),
        "k": Knob(3, "pointer hierarchy depth"),
        "epsilon_ms": Knob(1.0, "clock-skew bound ε (ms)"),
        "delta_ms": Knob(2.0, "one-hop-delay bound Δ (ms)"),
        "watch": Knob(True, "install the victim throughput trigger"),
    }


@register
class ContentionScenario(Scenario):
    """A victim TCP flow vs an m-flow high-priority UDP burst (Fig 1(a)).

    Topology: dumbbell — senders behind S1, receivers behind S2, all
    burst flows have distinct source-destination pairs and share the
    S1→S2 trunk with the victim.
    """

    spec = ScenarioSpec(
        name="contention",
        summary="priority contention starves a victim TCP flow on a "
                "shared trunk",
        paper_ref="Fig 2(a), Fig 7; §5.1 'too much traffic'",
        expected_diagnosis="priority-contention",
        knobs=_contention_knobs("priority"),
        aliases=("fig2a", "fig7"),
        smoke_knobs={"m_flows": 2, "duration": 0.030, "burst_start": 0.010},
    )

    def build(self) -> None:
        p = self.p
        if p["discipline"] not in ("priority", "fifo"):
            raise ValueError("discipline must be 'priority' or 'fifo'")
        qf = (priority_queue if p["discipline"] == "priority"
              else fifo_queue)
        net = _build_dumbbell(p["m_flows"], queue_factory=qf)
        deploy = SwitchPointerDeployment(
            net, alpha_ms=p["alpha_ms"], k=p["k"],
            epsilon_ms=p["epsilon_ms"], delta_ms=p["delta_ms"])
        self.network, self.deployment = net, deploy

        self.tput = ThroughputProbe(window=0.001)
        self.interarrival = InterArrivalProbe()

        def on_payload(pkt, t):
            self.tput.on_packet(pkt, t)
            self.interarrival.on_packet(pkt, t)

        self.victim_app = TcpTimedFlow(
            net.sim, net.hosts["h1_0"], net.hosts["h2_0"],
            duration=p["duration"], sport=100, dport=200,
            priority=PRIO_LOW, on_payload=on_payload)
        self.victim = self.victim_app.sender.flow
        self.trigger = (deploy.watch_flow(self.victim)
                        if p["watch"] else None)

        burst_prio = (PRIO_HIGH if p["discipline"] == "priority"
                      else PRIO_LOW)
        m = p["m_flows"]
        senders = [net.hosts[f"h1_{j}"] for j in range(1, m + 1)]
        receivers = [f"h2_{j}" for j in range(1, m + 1)]
        for j in range(1, m + 1):
            UdpSink(net.hosts[f"h2_{j}"], 7000)
        schedule_burst_batches(net.sim, senders, receivers,
                               flow_counts=[m],
                               first_start=p["burst_start"],
                               burst_duration=p["burst_duration"],
                               priority=burst_prio)

    def run(self) -> None:
        self.network.run(until=self.p["duration"] + 0.050)
        if self.trigger is not None:
            self.trigger.stop()

    def collect(self) -> dict:
        return {
            "starvation_ms": round(self.starvation_ms(), 2),
            "max_gap_ms": round(self.max_gap_ms(), 3),
            "tcp_timeouts": self.victim_app.sender.timeouts,
            "alerts": len(self.deployment.alerts()),
        }

    def starvation_ms(self) -> float:
        """Length of the post-burst window with ~zero victim throughput."""
        zero = 0.0
        for t, gbps in self.tput.series():
            if t < self.p["burst_start"]:
                continue
            if gbps < 0.02:
                zero += self.tput.window
        return zero * 1000

    def max_gap_ms(self) -> float:
        """Largest victim inter-packet gap around the burst."""
        start = self.p["burst_start"]
        return self.interarrival.max_gap_in(start, start + 0.040) * 1000

    def diagnose(self) -> list[Verdict]:
        alerts = self.deployment.alerts()
        if not alerts:
            return []
        return [diagnose_contention(self.deployment.analyzer, alerts[0])]


@register
class MicroburstScenario(ContentionScenario):
    """Fig 2(b): the same dumbbell, FIFO queues, equal-priority burst."""

    spec = ScenarioSpec(
        name="microburst",
        summary="equal-priority microburst overflows a FIFO trunk queue",
        paper_ref="Fig 2(b); §5.1 'too much traffic'",
        expected_diagnosis="microburst-contention",
        knobs=_contention_knobs("fifo"),
        aliases=("fig2b",),
        smoke_knobs={"m_flows": 2, "duration": 0.030, "burst_start": 0.010},
    )
