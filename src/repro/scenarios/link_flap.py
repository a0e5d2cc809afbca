"""Link flap churn: a trunk link oscillates down/up, driving reroutes.

A flapping transceiver takes one of the two S1→S2 trunks down every few
milliseconds and brings it back shortly after.  Each transition strands
in-flight traffic for the control-plane reconvergence window (packets
sent into the dead link are lost), then reroutes the link's flows onto
the surviving spine — and back again on recovery.  TCP flows pinned to
the flapping side see repeated losses and retransmission timeouts.

Host telemetry exposes the churn without touching the switches: flows
hashed to the flapping spine accumulate epoch ranges at *both* spines
(they were rerouted at least once), while the healthy spine keeps its
stable hash-assigned users.  The egress with zero stable users is the
flapping one.
"""

from __future__ import annotations

from ..analyzer.apps import Verdict, diagnose_link_flap
from ..core.epoch import EpochRange
from ..deployment import SwitchPointerDeployment
from ..simnet.packet import PRIO_LOW, PROTO_TCP, FlowKey
from ..simnet.traffic import TcpTimedFlow, UdpCbrSource, UdpSink
from ..sweep import SweepSpec, register_sweep
from .base import Knob, Scenario, ScenarioSpec, register
from .common import (GBPS, background_knobs, build_diamond, fault_knobs,
                     install_fault_knobs, launch_background,
                     sport_for_side)

#: extra tx/rx pairs added to the diamond when a background population
#: is requested (its endpoints; see the bg_flows knob help)
_BG_PAIRS = 8


@register
class LinkFlapScenario(Scenario):
    """Periodic down/up churn on the S1—SPA trunk of a diamond.

    ``n_flows`` long-lived CBR flows cross the diamond, half hashed to
    each spine (source ports are chosen to pin the split).  A
    ``link-flap`` fault cycles the S1—SPA link;
    routing reconverges ``reconverge_delay`` seconds after each
    transition, so every flap blackholes the SPA-side flows briefly
    before rerouting them onto SPB.
    """

    spec = ScenarioSpec(
        name="link-flap",
        summary="a flapping trunk periodically reroutes its flows and "
                "strands packets in the blackhole window",
        paper_ref="§2.4 extended use case; flap-induced reroute churn "
                  "and cascaded retransmits",
        expected_diagnosis="link-flap (suspect: S1-SPA)",
        knobs={
            "n_flows": Knob(8, "long-lived UDP flows (half per spine)"),
            "duration": Knob(0.060, "total run time (s)"),
            "first_down": Knob(0.012, "first down transition (s)"),
            "down_for": Knob(0.006, "down dwell per flap (s)"),
            "up_for": Knob(0.010, "up dwell per flap (s)"),
            "reconverge_delay": Knob(0.002, "routing convergence lag "
                                            "after each transition (s)"),
            "rate_mbps": Knob(20.0, "per-UDP-flow CBR rate (Mbit/s)"),
            "with_tcp": Knob(True, "add an SPA-pinned TCP flow to "
                                   "observe retransmit cascades"),
            "alpha_ms": Knob(10, "epoch duration α (ms)"),
            "k": Knob(3, "pointer hierarchy depth"),
            **background_knobs(),
            **fault_knobs(),
        },
        smoke_knobs={"n_flows": 4, "duration": 0.045},
        faults=("link-flap",),
    )

    def build(self) -> None:
        p = self.p
        n = p["n_flows"]
        bg_pairs = _BG_PAIRS if p["bg_flows"] > 0 else 0
        net = build_diamond(n + 1 + bg_pairs, trunk_bps=10 * GBPS,
                            host_bps=GBPS)   # pair n: the TCP flow
        deploy = SwitchPointerDeployment(net, alpha_ms=p["alpha_ms"],
                                         k=p["k"])
        self.network, self.deployment = net, deploy

        # ECMP candidate order at S1 follows link creation order:
        # SPA first, then SPB — index 0 is the flapping side.
        self.flapping_side: list[FlowKey] = []
        self.stable_side: list[FlowKey] = []
        rate = p["rate_mbps"] * 1e6
        for i in range(n):
            side = i % 2                 # alternate SPA(0) / SPB(1)
            sport = sport_for_side(f"tx{i}", f"rx{i}", side, start=7000)
            UdpSink(net.hosts[f"rx{i}"], sport)
            src = UdpCbrSource(net.sim, net.hosts[f"tx{i}"], f"rx{i}",
                               sport=sport, dport=sport, rate_bps=rate,
                               packet_size=1000, priority=PRIO_LOW,
                               start=0.001,
                               duration=p["duration"] - 0.005)
            (self.flapping_side if side == 0
             else self.stable_side).append(src.flow)

        self.tcp_app = None
        if p["with_tcp"]:
            # pin the TCP flow to the flapping spine: its losses during
            # each blackhole window drive the retransmit cascade
            sport = sport_for_side(f"tx{n}", f"rx{n}", 0, start=7000,
                                   proto=PROTO_TCP, dport=200)
            self.tcp_app = TcpTimedFlow(
                net.sim, net.hosts[f"tx{n}"], net.hosts[f"rx{n}"],
                duration=p["duration"] - 0.010, sport=sport, dport=200,
                priority=PRIO_LOW)
            self.flapping_side.append(self.tcp_app.sender.flow)

        # the fault, declared through the registry: periodic down/up
        # churn on the S1—SPA trunk from first_down onward
        self.flap_fault = self.add_fault(
            "link-flap", a="S1", b="SPA", down_for=p["down_for"],
            up_for=p["up_for"], start=p["first_down"],
            reconverge_delay=p["reconverge_delay"])
        # ambient stressor knobs; S1 is the diamond's CherryPick
        # embedder (its trunk egress pins every crossing path), so
        # partial deployment always spares it
        install_fault_knobs(self, extra_spare=("S1",))

        # the background flow population (the sweep flows= axis): its
        # endpoints are dedicated tx-side pairs, so every background
        # flow hairpins at S1 and never crosses the flapping trunk —
        # short-lived flows that outlive no flap would otherwise count
        # as *stable* users of the flapped egress and mask the churn
        # signal the diagnosis keys on.  The record tables and the
        # consult fan-out still carry the full population.
        self.background = launch_background(
            net, p, duration=p["duration"],
            eligible=[f"tx{i}" for i in range(n + 1, n + 1 + bg_pairs)])

    def run(self) -> None:
        # the plan's finalize() stops the flapper once this returns
        self.network.run(until=self.p["duration"])

    def collect(self) -> dict:
        bg = self.background
        return {
            "flaps": self.flap_fault.flaps,
            "down_drops": self.network.link_between("S1", "SPA").down_drops,
            "tcp_timeouts": (self.tcp_app.sender.timeouts
                             if self.tcp_app is not None else 0),
            "flow_count": (len(self.flapping_side)
                           + len(self.stable_side)
                           + (bg.n_flows if bg is not None else 0)),
            "bg_packets_delivered": (bg.delivered
                                     if bg is not None else 0),
        }

    def diagnose(self) -> list[Verdict]:
        last_epoch = self.deployment.datapaths["S1"].clock.epoch_of(
            self.network.sim.now)
        return [diagnose_link_flap(self.deployment.analyzer, "S1",
                                   epochs=EpochRange(0, last_epoch))]


register_sweep(SweepSpec(
    scenario="link-flap",
    summary="flapping-trunk localization as the crossing and background "
            "flow populations scale",
    expect_problem="link-flap",
    axes={
        "victims": "n_flows",
        "flows": "bg_flows",
        "mix": "bg_mix",
        "flow_kb": "bg_flow_kb",
        "alpha_ms": "alpha_ms",
        "down_for": "down_for",
    },
    default_grid={"victims": (8, 16, 32), "flows": (0, 200)},
    nightly_grid={"victims": (8, 16), "flows": (0, 200)},
))
