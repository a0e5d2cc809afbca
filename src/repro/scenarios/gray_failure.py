"""Silent packet drop / gray failure: a switch blackholes some flows.

A gray-failing switch keeps its links up and its counters plausible but
silently discards a deterministic slice of the flows crossing it (a
corrupted TCAM entry, a failing ASIC lane).  Nothing alarms on the
switch itself — the paper's directory service localizes the fault from
the *outside*: upstream pointers keep naming the victim's destination
during the silence window, the faulty hop and everything past it never
do, and the boundary of that spatial cut is the suspect.
"""

from __future__ import annotations

from ..analyzer.apps import Verdict, diagnose_gray_failure_online
from ..deployment import SwitchPointerDeployment
from ..rpc.fabric import LatencyModel
from ..simnet.packet import PRIO_LOW, FlowKey
from ..simnet.topology import build_linear
from ..simnet.traffic import UdpCbrSource, UdpSink
from ..sweep import SweepSpec, register_sweep
from .base import Knob, Scenario, ScenarioSpec, register
from .common import (background_knobs, directory_knobs, fault_knobs,
                     install_fault_knobs, launch_background,
                     silence_window)


@register
class GrayFailureScenario(Scenario):
    """Every other flow on a 4-switch chain vanishes at ``fault_switch``.

    ``n_flows`` slow CBR flows run h1_i→h4_i across S1–S4.  At
    ``fault_time`` the fault switch starts silently dropping the
    even-indexed flows (the deterministic slice) while forwarding the
    rest untouched — the defining gray-failure asymmetry.  Diagnosis
    pulls per-epoch pointers along the recorded path for the silence
    window and finds the spatial cut.
    """

    spec = ScenarioSpec(
        name="gray-failure",
        summary="a switch silently drops a deterministic slice of flows "
                "(blackhole localization)",
        paper_ref="§2.4 extended use case; PathDump's blackhole "
                  "use-case catalogue",
        expected_diagnosis="gray-failure (suspect: the injected switch)",
        knobs={
            "n_flows": Knob(4, "concurrent h1_i→h4_i flows (even-indexed "
                               "ones are dropped)", minimum=1),
            "fault_switch": Knob("S3", "the gray-failing switch"),
            "fault_time": Knob(0.020, "when the silent drops begin (s)"),
            "duration": Knob(0.050, "total run time (s)"),
            "rate_mbps": Knob(2.0, "per-flow CBR rate (Mbit/s)"),
            "alpha_ms": Knob(10, "epoch duration α (ms)"),
            "k": Knob(2, "pointer hierarchy depth"),
            "records_per_host": Knob(0, "hostd record-table bound "
                                        "(0 = unbounded)", minimum=0),
            "rpc_latency_ms": Knob(0.0, "extra per-RPC latency charged "
                                        "in simulated time"),
            "stale_after_ms": Knob(0.0, "staleness budget: verdicts "
                                        "taking longer (simulated) are "
                                        "stamped stale (0 = no budget)"),
            "overrun_ms": Knob(0.0, "how long the CBR sources keep "
                                    "transmitting past the run window "
                                    "(online diagnosis then races live "
                                    "ingestion)"),
            **background_knobs(),
            **fault_knobs(),
            **directory_knobs(),
        },
        aliases=("silent-drop",),
        smoke_knobs={"n_flows": 2, "duration": 0.040},
        faults=("silent-drop",),
        verdict_states=("complete", "degraded", "stale"),
    )

    def build(self) -> None:
        p = self.p
        n = p["n_flows"]
        net = build_linear(4, hosts_per_switch=n)
        if p["fault_switch"] not in net.switches:
            raise ValueError(
                f"fault_switch must be one of "
                f"{sorted(net.switches)}, got {p['fault_switch']!r}")
        deploy = SwitchPointerDeployment(
            net, alpha_ms=p["alpha_ms"], k=p["k"], epsilon_ms=1,
            delta_ms=2,
            latency_model=LatencyModel().with_extra(
                p["rpc_latency_ms"] * 1e-3),
            records_per_host=p["records_per_host"] or None,
            directory_backend=p["directory_backend"],
            directory_bits=p["directory_bits"],
            directory_hashes=p["directory_hashes"])
        self.network, self.deployment = net, deploy

        self.affected: list[FlowKey] = []
        self.healthy: list[FlowKey] = []
        rate = p["rate_mbps"] * 1e6
        for i in range(n):
            UdpSink(net.hosts[f"h4_{i}"], 9000 + i)
            src = UdpCbrSource(net.sim, net.hosts[f"h1_{i}"], f"h4_{i}",
                               sport=9000 + i, dport=9000 + i,
                               rate_bps=rate, packet_size=500,
                               priority=PRIO_LOW, start=0.001,
                               duration=p["duration"] - 0.002 +
                                        p["overrun_ms"] * 1e-3)
            (self.affected if i % 2 == 0 else self.healthy).append(src.flow)

        # the fault, declared through the registry: silently drop the
        # even-indexed flow slice at the fault switch from fault_time on
        self.drop_fault = self.add_fault(
            "silent-drop", switch=p["fault_switch"],
            flows=tuple(self.affected), start=p["fault_time"])
        # ambient stressor knobs (clock skew, partial deployment, agent
        # crash).  S1 is the chain's CherryPick embedder: stripping it
        # would erase every host record, so it is always spared.
        install_fault_knobs(self, extra_spare=("S1",))

        # the background flow population (the sweep flows= axis): load
        # on every record table while the blackhole is localized.  The
        # victim destinations are excluded — localization cuts on
        # "which hops stopped naming the destination", so unrelated
        # traffic to the same destination would legitimately erase the
        # cut (the population models *other* tenants' flows)
        self.background = launch_background(
            net, p, duration=p["duration"],
            exclude=[f"h4_{i}" for i in range(n)])

    def run(self) -> None:
        self.network.run(until=self.p["duration"])

    def collect(self) -> dict:
        p = self.p
        net, deploy = self.network, self.deployment
        self.silence_epochs = silence_window(
            self, deploy.datapaths["S1"].clock)
        bg = self.background
        return {
            "gray_drops": net.switches[p["fault_switch"]].gray_drops,
            "silence_epochs": (self.silence_epochs.lo,
                               self.silence_epochs.hi),
            "affected_flows": len(self.affected),
            "uninstrumented_switches": deploy.uninstrumented_switches,
            "flow_count": p["n_flows"] +
                          (bg.n_flows if bg is not None else 0),
            "bg_packets_delivered": (bg.delivered
                                     if bg is not None else 0),
        }

    def diagnose(self) -> list[Verdict]:
        analyzer = self.deployment.analyzer
        # one session per trigger window: RPCs advance the simulated
        # clock, evidence arrives as delta rounds, and a host that dies
        # mid-query degrades the verdict instead of erroring
        stale_ms = self.p["stale_after_ms"]
        session = analyzer.open_session(
            stale_after_s=stale_ms * 1e-3 if stale_ms else None)
        with session:
            return [diagnose_gray_failure_online(
                        analyzer, flow,
                        silence_epochs=self.silence_epochs,
                        session=session)
                    for flow in self.affected]


register_sweep(SweepSpec(
    scenario="gray-failure",
    summary="blackhole localization as the concurrent flow population "
            "(and record tables) scales",
    expect_problem="gray-failure",
    # diagnose_gray_failure_online reports problem="gray-failure" even when
    # localization finds nothing — a point only counts as correct when
    # a verdict names the injected switch
    expect_suspect_knob="fault_switch",
    axes={
        "flows": "bg_flows",
        "victims": "n_flows",
        "records": "records_per_host",
        "alpha_ms": "alpha_ms",
        "mix": "bg_mix",
        "skew_ms": "skew_ms",
    },
    default_grid={"flows": (0, 200, 1000), "victims": (4, 16)},
    nightly_grid={"flows": (0, 200), "victims": (4,)},
))

register_sweep(SweepSpec(
    scenario="gray-failure",
    name="clock-skew",
    summary="blackhole localization accuracy as per-device clock skew "
            "grows toward and past the ε bound",
    expect_problem="gray-failure",
    expect_suspect_knob="fault_switch",
    axes={
        "skew_ms": "skew_ms",
        "victims": "n_flows",
        "alpha_ms": "alpha_ms",
    },
    # α = 10 ms here and offsets span ±skew_ms, so pairwise skew
    # reaches 2·skew_ms: the whole default grid stays within the
    # ε = α bound and must diagnose correctly; pushing the axis past
    # 5.0 charts the degradation curve beyond the bound
    default_grid={"skew_ms": (0.0, 2.0, 5.0)},
    nightly_grid={"skew_ms": (0.0, 2.0)},
))

register_sweep(SweepSpec(
    scenario="gray-failure",
    name="rpc-latency",
    summary="online diagnosis as per-RPC latency stretches the query "
            "window across a mid-diagnosis agent crash",
    expect_problem="gray-failure",
    expect_suspect_knob="fault_switch",
    axes={
        "rpc_ms": "rpc_latency_ms",
        "victims": "n_flows",
        "stale_ms": "stale_after_ms",
    },
    default_grid={"rpc_ms": (0.0, 2.0, 5.0, 10.0, 20.0)},
    nightly_grid={"rpc_ms": (0.0, 2.0)},
    # h4_0's agent dies at 100 ms, with the sources still transmitting:
    # at rpc_ms=0 the diagnosis finishes first (the crash stays
    # pending); beyond that it races the query window — the verdict
    # degrades (missing h4_0), and past ~5.4 ms the path query itself
    # is lost before the crash, so localization fails too
    base_knobs={"n_flows": 2, "overrun_ms": 250.0,
                "crash_host": "h4_0", "crash_at": 0.1},
))

register_sweep(SweepSpec(
    scenario="gray-failure",
    name="directory-bits",
    summary="blackhole localization accuracy and pointer false-positive "
            "rate as the per-set sketch bit budget shrinks",
    expect_problem="gray-failure",
    expect_suspect_knob="fault_switch",
    axes={
        "dir_bits": "directory_bits",
        "backend": "directory_backend",
        "hashes": "directory_hashes",
        "victims": "n_flows",
    },
    # the default topology has 16 hosts, so the exact bitmap costs
    # S = 16 bits per set: dir_bits=0 saturates (bit-identical to
    # exact, FPR 0), and shrinking budgets chart the memory↔accuracy
    # trade — false positives inflate the search radius first, then
    # erase the spatial cut and cost localization itself
    default_grid={"dir_bits": (0, 12, 8, 4, 2)},
    nightly_grid={"dir_bits": (0, 8)},
    base_knobs={"directory_backend": "bloom"},
))

register_sweep(SweepSpec(
    scenario="gray-failure",
    name="partial-deployment",
    summary="blackhole localization with only a fraction of switches "
            "instrumented (host-only evidence elsewhere)",
    expect_problem="gray-failure",
    expect_suspect_knob="fault_switch",
    axes={
        "deploy": "deploy_frac",
        "victims": "n_flows",
        "flows": "bg_flows",
    },
    default_grid={"deploy": (1.0, 0.75, 0.5)},
    nightly_grid={"deploy": (1.0, 0.75)},
    # the fault switch stays instrumented so the nightly points are
    # deterministic: the cut boundary may coarsen across stripped
    # neighbors but still names S3 (the embedder S1 is always spared
    # by the scenario itself)
    base_knobs={"deploy_spare": "S3"},
))
