"""ECMP hash polarization: a port-blind hash collapses multipath onto
one egress.

The classic polarization bug: a switch whose ECMP hash ignores the L4
ports (or reuses the exact function of the tier above it) sends every
flow of a host pair down the same spine, no matter how many connections
they open.  Utilization collapses to 1/n of the fabric while the other
spines idle.  The analyzer diagnoses it from host telemetry alone: the
per-egress flow census at the branch switch concentrates on one egress
even though the topology offers several — and the observed trajectories
deviate from the paths a healthy hash would have assigned (path
non-conformance).
"""

from __future__ import annotations

from ..analyzer.apps import Verdict, diagnose_polarization
from ..analyzer.netdebug import check_path_conformance
from ..core.epoch import EpochRange
from ..deployment import SwitchPointerDeployment
from ..simnet.packet import PRIO_LOW, PROTO_UDP, FlowKey
from ..simnet.topology import build_leaf_spine
from ..simnet.traffic import UdpCbrSource, UdpSink
from ..sweep import SweepSpec, register_sweep
from .base import Knob, Scenario, ScenarioSpec, register
from .common import (background_knobs, fault_knobs, install_fault_knobs,
                     launch_background, sport_for_side)


@register
class PolarizationScenario(Scenario):
    """Many connections of one host pair, one (buggy) hashing leaf.

    ``n_flows`` UDP flows run h0_0→h1_0 over a 2-leaf/2-spine fabric,
    with source ports chosen so a *healthy* 5-tuple hash splits them
    evenly across the spines.  With ``polarized=True`` the source leaf
    gets the port-blind hash and every flow lands on one spine.
    """

    spec = ScenarioSpec(
        name="polarization",
        summary="a port-blind ECMP hash sends every flow of a host pair "
                "down one spine",
        paper_ref="§2.4 extended use case; ECMP hash-polarization "
                  "faults in multi-tier clos fabrics",
        expected_diagnosis="ecmp-polarization (suspect: the overloaded "
                           "spine)",
        knobs={
            "n_flows": Knob(8, "parallel connections h0_0→h1_0"),
            "polarized": Knob(True, "install the port-blind hash on "
                                    "leaf0 (False = healthy control)"),
            "duration": Knob(0.030, "per-flow CBR duration (s)"),
            "rate_mbps": Knob(50.0, "per-flow CBR rate (Mbit/s)"),
            "skew_threshold": Knob(0.8, "egress share that counts as "
                                        "polarized"),
            "alpha_ms": Knob(10, "epoch duration α (ms)"),
            "k": Knob(3, "pointer hierarchy depth"),
            **background_knobs(),
            **fault_knobs(),
        },
        aliases=("ecmp-polarization",),
        smoke_knobs={"n_flows": 4, "duration": 0.020},
        faults=("ecmp-polarization",),
    )

    def build(self) -> None:
        p = self.p
        n = p["n_flows"]
        # the background population needs endpoints of its own: grow the
        # fabric (extra leaves + hosts) only when it is requested, so
        # the historical minimal two-leaf shape stays bit-identical
        if p["bg_flows"] > 0:
            net = build_leaf_spine(n_leaves=4, n_spines=2,
                                   hosts_per_leaf=4)
        else:
            net = build_leaf_spine(n_leaves=2, n_spines=2,
                                   hosts_per_leaf=1)
        deploy = SwitchPointerDeployment(net, alpha_ms=p["alpha_ms"],
                                         k=p["k"])
        self.network, self.deployment = net, deploy
        self.branch_switch = "leaf0"
        src, dst = "h0_0", "h1_0"

        # ECMP candidate order at leaf0 follows link creation order:
        # spine0 first, then spine1 (see Network.compute_routes).
        spines = ("spine0", "spine1")

        # Pick source ports whose *healthy* hash alternates spines, so
        # the control run is provably balanced and the polarized run's
        # skew is entirely the bad hash's doing.
        self.flows: list[FlowKey] = []
        self.expected_spine: dict[FlowKey, str] = {}
        sport = 9000
        rate = p["rate_mbps"] * 1e6
        for i in range(n):
            want = i % 2
            sport = sport_for_side(src, dst, want, start=sport)
            flow = FlowKey(src, dst, sport, sport, PROTO_UDP)
            UdpSink(self.network.hosts[dst], sport)
            UdpCbrSource(net.sim, net.hosts[src], dst, sport=sport,
                         dport=sport, rate_bps=rate,
                         packet_size=1500, priority=PRIO_LOW,
                         start=0.0, duration=p["duration"])
            self.flows.append(flow)
            self.expected_spine[flow] = spines[want]
            sport += 1

        if p["polarized"]:
            # the fault, declared through the registry: leaf0's hash
            # goes port-blind at t=0 (before the first packet)
            self.add_fault("ecmp-polarization",
                           switch=self.branch_switch)
        # ambient stressor knobs; leaf0 is both the branch under test
        # and the CherryPick embedder for the victim pair, so partial
        # deployment always spares it
        install_fault_knobs(self, extra_spare=(self.branch_switch,))

        # the background flow population (the sweep flows= axis): kept
        # entirely off the polarized branch — its endpoints exclude
        # every leaf0-attached host, so the per-egress census at leaf0
        # counts only the parallel connections under test and the
        # diagnosis threshold is never diluted by bystander traffic
        self.background = launch_background(
            net, p, duration=p["duration"],
            exclude=[h for h in net.host_names
                     if self.branch_switch in net.adjacency[h]])

    def run(self) -> None:
        self.network.run(until=self.p["duration"] + 0.010)

    def collect(self) -> dict:
        net = self.network
        leaf0 = net.switches["leaf0"]
        spine_bytes = {
            sp: net.link_between("leaf0", sp).iface_of(leaf0).tx_bytes
            for sp in ("spine0", "spine1")}
        # cross-check: observed trajectories vs the healthy assignment
        expected_paths = {
            flow: ["leaf0", spine, "leaf1"]
            for flow, spine in self.expected_spine.items()}
        conformance = check_path_conformance(
            self.deployment.analyzer, expected_paths=expected_paths)
        bg = self.background
        return {
            "spine_tx_bytes": spine_bytes,
            "off_policy_flows": len(conformance.violations),
            "flow_count": len(self.flows) +
                          (bg.n_flows if bg is not None else 0),
            "bg_packets_delivered": (bg.delivered
                                     if bg is not None else 0),
        }

    def diagnose(self) -> list[Verdict]:
        deploy = self.deployment
        last_epoch = deploy.datapaths["leaf0"].clock.epoch_of(
            self.network.sim.now)
        return [diagnose_polarization(
            deploy.analyzer, self.branch_switch,
            epochs=EpochRange(0, last_epoch),
            skew_threshold=self.p["skew_threshold"])]


register_sweep(SweepSpec(
    scenario="polarization",
    summary="port-blind hash skew flagged as connection count and the "
            "background flow population scale",
    expect_problem="ecmp-polarization",
    axes={
        "conns": "n_flows",
        "flows": "bg_flows",
        "mix": "bg_mix",
        "flow_kb": "bg_flow_kb",
        "alpha_ms": "alpha_ms",
        "rate_mbps": "rate_mbps",
    },
    default_grid={"conns": (8, 32, 128), "flows": (0, 200)},
    nightly_grid={"conns": (8, 32), "flows": (0, 200)},
))
