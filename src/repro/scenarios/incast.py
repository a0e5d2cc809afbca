"""Incast microburst: N synchronized senders converge on one receiver.

The classic datacenter fan-in collapse (the workload Laminar-style TCP
studies target): a barrier-synchronized group of senders all answer one
aggregator at the same instant, overflowing the shallow buffer on the
receiver's last-hop downlink.  A long-lived victim flow to the same
receiver collapses with it; the analyzer classifies the event as incast
because every epoch-sharing culprit at the convergence switch targets
the victim's own destination.
"""

from __future__ import annotations

from ..analyzer.apps import Verdict, diagnose_incast
from ..deployment import SwitchPointerDeployment
from ..simnet.packet import PRIO_LOW
from ..simnet.stats import ThroughputProbe
from ..simnet.topology import (Network, build_fat_tree_for_hosts,
                               build_leaf_spine)
from ..simnet.traffic import TcpTimedFlow, UdpCbrSource, UdpSink
from ..experiment import ExperimentSpec, register_experiment
from .base import Knob, Scenario, ScenarioSpec, register
from .common import (GBPS, background_knobs, fault_knobs,
                     install_fault_knobs, launch_background)


@register
class IncastScenario(Scenario):
    """N-to-1 synchronized senders converging on one receiver.

    The receiver sits behind its last-hop switch with default shallow
    (256 KB) FIFO port buffers; the victim TCP flow and all
    ``n_senders`` burst flows originate behind other switches.  At
    ``burst_start`` every sender transmits at line rate simultaneously —
    the receiver's downlink queue overflows and the victim collapses.

    The ``hosts`` knob sizes the fabric for scale sweeps: 0 keeps the
    historical minimal two-leaf topology; any larger count builds a
    leaf-spine (or, with ``fabric=fat-tree``, a multi-pod fat-tree) of
    that many hosts — the active flows stay the same, what scales is the
    population every SwitchPointer layer (directory, pointer stores,
    host agents) has to carry.
    """

    spec = ScenarioSpec(
        name="incast",
        summary="N-to-1 synchronized senders overflow the receiver's "
                "last-hop buffer",
        paper_ref="§2.4 extended use case; incast fan-in collapse "
                  "(PAPERS.md: datacenter TCP incast studies)",
        expected_diagnosis="incast (suspect: the receiver's leaf)",
        knobs={
            "n_senders": Knob(8, "synchronized burst senders"),
            "duration": Knob(0.040, "victim TCP flow duration (s)"),
            "burst_start": Knob(0.015, "synchronized burst onset (s)"),
            "burst_duration": Knob(0.002, "burst length (s)"),
            "min_fan_in": Knob(3, "culprits needed to call it incast"),
            "alpha_ms": Knob(10, "epoch duration α (ms)"),
            "k": Knob(3, "pointer hierarchy depth"),
            "hosts": Knob(0, "total fabric hosts (0 = minimal fabric "
                             "for n_senders)", minimum=0),
            "fabric": Knob("leaf-spine",
                           "fabric family: leaf-spine or fat-tree"),
            "records_per_host": Knob(0, "hostd record-table bound "
                                        "(0 = unbounded)", minimum=0),
            **background_knobs(),
            **fault_knobs(),
        },
        smoke_knobs={"n_senders": 4, "duration": 0.025,
                     "burst_start": 0.008},
    )

    def _build_fabric(self) -> Network:
        """Size the fabric from the ``hosts``/``fabric`` knobs."""
        p = self.p
        n = p["n_senders"]
        want = p["hosts"]
        if p["fabric"] == "fat-tree":
            # the receiver's edge switch absorbs up to hosts_per_edge
            # hosts, which don't count toward the n+1 remote endpoints
            # the workload needs — grow the population until enough
            # hosts land outside that edge (converges in a few steps:
            # each retry adds at least the remaining deficit)
            size = max(want, 2 * (n + 1))
            for _ in range(8):
                net = build_fat_tree_for_hosts(size, rate_bps=GBPS)
                receiver = net.host_names[0]
                peers = net.adjacency
                edge = next(nb for nb in peers[receiver]
                            if nb in net.switches)
                remote = sum(1 for h in net.host_names
                             if h != receiver and edge not in peers[h])
                if remote >= n + 1:
                    break
                size += (n + 1) - remote
        elif p["fabric"] == "leaf-spine":
            if want <= 0:
                # the historical minimal shape: receiver behind leaf0,
                # victim source + senders behind leaf1
                return build_leaf_spine(n_leaves=2, n_spines=2,
                                        hosts_per_leaf=n + 1,
                                        rate_bps=GBPS)
            n_leaves = max(2, min(64, -(-want // 64)))
            per_leaf = max(n + 1, -(-want // n_leaves))
            net = build_leaf_spine(n_leaves=n_leaves,
                                   n_spines=max(2, n_leaves // 4),
                                   hosts_per_leaf=per_leaf,
                                   rate_bps=GBPS)
        else:
            raise ValueError(
                f"fabric must be leaf-spine or fat-tree, "
                f"got {p['fabric']!r}")
        return net

    def build(self) -> None:
        p = self.p
        n = p["n_senders"]
        # default (shallow, 256 KB) FIFO queues: incast needs buffer
        # overflow at the downlink, not priority starvation
        net = self._build_fabric()
        deploy = SwitchPointerDeployment(
            net, alpha_ms=p["alpha_ms"], k=p["k"],
            records_per_host=p["records_per_host"] or None)
        self.network, self.deployment = net, deploy
        self.receiver = net.host_names[0]
        # the receiver's last-hop switch is where the fan-in converges
        peers = net.adjacency
        self.convergence_switch = next(
            nb for nb in peers[self.receiver] if nb in net.switches)
        # victim source + burst senders live behind *other* switches so
        # every flow crosses the fabric into the receiver's downlink
        remote = [h for h in net.host_names
                  if h != self.receiver
                  and self.convergence_switch not in peers[h]]
        if len(remote) < n + 1:
            raise ValueError(
                f"fabric too small: {len(remote)} hosts outside the "
                f"receiver's switch, need {n + 1} "
                f"(n_senders + victim source)")
        victim_src, senders = remote[0], remote[1:n + 1]

        self.tput = ThroughputProbe(window=0.001)
        self.victim_app = TcpTimedFlow(
            net.sim, net.hosts[victim_src], net.hosts[self.receiver],
            duration=p["duration"], sport=100, dport=200,
            priority=PRIO_LOW, on_payload=self.tput.on_packet)
        self.victim = self.victim_app.sender.flow
        self.trigger = deploy.watch_flow(self.victim)

        # the synchronized responders all answer the receiver at once
        for j, sender in enumerate(senders, start=1):
            UdpSink(net.hosts[self.receiver], 7000 + j)
            UdpCbrSource(net.sim, net.hosts[sender], self.receiver,
                         sport=7000 + j, dport=7000 + j, rate_bps=GBPS,
                         priority=PRIO_LOW, start=p["burst_start"],
                         duration=p["burst_duration"])

        # ambient stressor knobs (clock skew, partial deployment, agent
        # crash); the victim path's CherryPick embedder is spared so
        # the collapse stays observable at the receiver
        embedder = deploy.planner.embedding_hop(victim_src,
                                                self.receiver)
        install_fault_knobs(
            self, extra_spare=(embedder,) if embedder else ())

        # the background flow population (the bg_flows knob): kept
        # away from the receiver so none of it can masquerade as a
        # fan-in culprit at the convergence switch
        self.background = launch_background(
            net, p, duration=p["duration"], exclude=(self.receiver,))

    def run(self) -> None:
        self.network.run(until=self.p["duration"] + 0.020)
        self.trigger.stop()

    def collect(self) -> dict:
        p = self.p
        net = self.network
        leaf = net.switches[self.convergence_switch]
        downlink = net.link_between(self.convergence_switch,
                                    self.receiver).iface_of(leaf)
        bg = self.background
        return {
            "alerts": len(self.deployment.alerts()),
            "fabric_hosts": len(net.hosts),
            "fabric_switches": len(net.switches),
            "tcp_timeouts": self.victim_app.sender.timeouts,
            "downlink_queue_drops": downlink.queue.stats.dropped,
            "victim_rate_at_burst_gbps": round(
                self.tput.rate_at(p["burst_start"] + 0.0005), 3),
            # n_senders bursts + the victim + the background population
            "flow_count": p["n_senders"] + 1 +
                          (bg.n_flows if bg is not None else 0),
            "bg_packets_delivered": (bg.delivered
                                     if bg is not None else 0),
        }

    def diagnose(self) -> list[Verdict]:
        alerts = self.deployment.alerts()
        if not alerts:
            return []
        return [diagnose_incast(self.deployment.analyzer, alerts[0],
                                min_fan_in=self.p["min_fan_in"])]


register_experiment(ExperimentSpec(
    scenario="incast",
    summary="fan-in collapse diagnosed at fabric populations from 64 "
            "to 4096 hosts",
    expect_problem="incast",
    grid={"hosts": (64, 256, 1024, 4096)},
    nightly_grid={"hosts": (64, 256, 1024),
                  "fabric": ("leaf-spine", "fat-tree")},
))

register_experiment(ExperimentSpec(
    scenario="incast",
    name="incast-scale",
    summary="fan-in collapse diagnosed under background populations of "
            "hundreds to thousands of concurrent flows",
    expect_problem="incast",
    grid={"hosts": (256,), "bg_flows": (200, 1000, 2000)},
    nightly_grid={"hosts": (64,), "bg_flows": (200, 1000)},
    # the combined top ends of both scale axes ride along as explicit
    # points — the full cross product would not fit the nightly
    # budget, these two points do (see budget_note)
    nightly_points=(
        {"hosts": 4096, "bg_flows": 2000},
        {"hosts": 65536, "bg_flows": 100000},
    ),
    budget_note="measured on 2 shared cores (wall times vary up to "
                "~2.5x between days; peak RSS repeats), Python 3.11, base "
                "seed 1729, two runs (the nightly table inline, then the "
                "cell alone), every packet decoded on arrival, a "
                "host agent built when its host is first touched, a "
                "port's queue built at its first packet, a background "
                "flow's state held only while it sends, a record index "
                "built at its first scan, a flow's ECMP hash carried by "
                "its packets and one shared port block per receiver: "
                "hosts=4096 bg_flows=2000 at 0.62-0.69 s wall (build "
                "0.07-0.09 s, run 0.55-0.59 s, diagnose 0.003 s; 37 MB "
                "peak RSS; 80-switch leaf-spine, 2009 concurrent flows, "
                "1,610 host agents); hosts=65536 bg_flows=100000 at "
                "27.7-31.0 s wall (build 1.7 s, run 26.0-29.2 s, "
                "diagnose 0.06 s; 366-369 MB peak RSS; 64-leaf/16-spine "
                "fabric, 65,536 hosts, 100k background flows, 51,307 "
                "host agents; 1,702,316 events), the whole nightly "
                "table in 39 s. Adding further top-end points must "
                "re-measure and keep the whole nightly run under "
                "~10 min.",
))
