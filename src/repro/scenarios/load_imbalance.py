"""Fig 8 / §5.4: load imbalance (size-split forwarding malfunction)."""

from __future__ import annotations

from ..analyzer.apps import Verdict, diagnose_load_imbalance
from ..core.epoch import EpochRange
from ..deployment import SwitchPointerDeployment
from ..simnet.packet import PRIO_LOW, FlowKey
from ..simnet.topology import Network
from ..simnet.traffic import UdpCbrSource, UdpSink
from .base import Knob, Scenario, ScenarioSpec, register
from .common import GBPS, build_diamond


def build_load_imbalance_network(n_servers: int) -> Network:
    """Senders behind S1; S1 reaches S2 via two spines (two egresses).

    Trunk links are fat (100 Gbps) on purpose: the §5.4 experiment is
    about the *forwarding split*, not congestion — at 96 concurrent
    flows the aggregate must not saturate the spines, or drops would
    blur the received-size separation the diagnosis looks for.
    """
    return build_diamond(n_servers, trunk_bps=100 * GBPS,
                         host_bps=10 * GBPS)


@register
class LoadImbalanceScenario(Scenario):
    """§5.4: a malfunctioning switch splits flows by size across egresses.

    ``n_servers`` flows (alternating small/large), each to a distinct
    receiver — the Fig 8 x-axis is exactly the number of servers holding
    relevant flow records.
    """

    spec = ScenarioSpec(
        name="load-imbalance",
        summary="a misconfigured switch routes small and large flows "
                "out different egresses",
        paper_ref="Fig 8; §5.4 'load imbalance'",
        expected_diagnosis="load-imbalance (imbalanced=True)",
        knobs={
            "n_servers": Knob(8, "sender/receiver pairs (≥ 2)", minimum=2),
            "small_bytes": Knob(500_000, "small flow size (bytes)"),
            "large_bytes": Knob(2_000_000, "large flow size (bytes)"),
            "size_threshold": Knob(1_000_000,
                                   "malfunction split point (bytes)"),
            "alpha_ms": Knob(10, "epoch duration α (ms)"),
            "k": Knob(3, "pointer hierarchy depth"),
        },
        aliases=("fig8",),
        smoke_knobs={"n_servers": 4},
    )

    def build(self) -> None:
        p = self.p
        n = p["n_servers"]
        net = build_load_imbalance_network(n)
        deploy = SwitchPointerDeployment(net, alpha_ms=p["alpha_ms"],
                                         k=p["k"])
        self.network, self.deployment = net, deploy
        s1 = net.switches["S1"]

        self.flow_sizes: dict[FlowKey, int] = {}
        for i in range(n):
            UdpSink(net.hosts[f"rx{i}"], 7000)
            nbytes = (p["small_bytes"] if i % 2 == 0
                      else p["large_bytes"])
            rate = 2 * GBPS
            duration = nbytes * 8 / rate
            src = UdpCbrSource(net.sim, net.hosts[f"tx{i}"], f"rx{i}",
                               sport=7000, dport=7000, rate_bps=rate,
                               packet_size=1500, priority=PRIO_LOW,
                               start=0.0, duration=duration)
            self.flow_sizes[src.flow] = nbytes

        # The malfunction: flows under the threshold exit via spine A,
        # the rest via spine B (the paper's misconfigured interface split).
        iface_a = net.link_between("S1", "SPA").iface_of(s1)
        iface_b = net.link_between("S1", "SPB").iface_of(s1)
        threshold = p["size_threshold"]
        flow_sizes = self.flow_sizes

        def malfunction(pkt, candidates):
            if iface_a not in candidates or iface_b not in candidates:
                return None
            size = flow_sizes.get(pkt.flow)
            if size is None:
                return None
            return iface_a if size < threshold else iface_b

        s1.forwarding_override = malfunction

    def run(self) -> None:
        self.network.run(until=0.050)

    def collect(self) -> dict:
        net = self.network
        self.last_epoch = self.deployment.datapaths["S1"].clock.epoch_of(
            net.sim.now)
        s1 = net.switches["S1"]
        spa = net.link_between("S1", "SPA").iface_of(s1)
        spb = net.link_between("S1", "SPB").iface_of(s1)
        return {
            "spa_tx_bytes": spa.tx_bytes,
            "spb_tx_bytes": spb.tx_bytes,
            "last_epoch": self.last_epoch,
        }

    def diagnose(self) -> list[Verdict]:
        return [diagnose_load_imbalance(
            self.deployment.analyzer, "S1",
            epochs=EpochRange(0, self.last_epoch),
            size_threshold=self.p["size_threshold"])]
