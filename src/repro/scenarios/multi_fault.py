"""Multi-fault runs: compose registered faults, attribute each one.

The paper's diagnosis walkthroughs assume one clean fault at a time;
real networks break in several places at once.  This scenario composes
any combination of the *diagnosable* registered faults — silent-drop,
ecmp-polarization, link-flap, link-down — through one
:class:`~repro.faults.plan.FaultPlan`, each fault bound to its own
*site* (a disjoint source-leaf → destination-leaf pair with its own
flows) of a shared leaf-spine fabric.  The analyzer then has to
attribute every fault independently: the right problem *and* the right
suspect per site, with the other sites' disturbances live in the same
simulation and the spine tier shared by all of them.

The ``faults`` knob is a ``+``-separated composition
(``silent-drop+ecmp-polarization``); the sweep ``faults=`` axis varies
it, so nightly runs chart diagnosis accuracy as a function of fault
count and mix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analyzer.apps import (Verdict, diagnose_gray_failure,
                             diagnose_link_flap, diagnose_polarization)
from ..core.epoch import EpochRange
from ..faults import FaultContext
from ..simnet.packet import PRIO_LOW, FlowKey
from ..simnet.topology import build_leaf_spine
from ..simnet.traffic import UdpCbrSource, UdpSink
from ..sweep import SweepSpec, register_sweep
from .base import Knob, Scenario, ScenarioError, ScenarioSpec, register
from .common import (directory_knobs, fault_knobs, install_fault_knobs,
                     silence_window, sport_for_side)


@dataclass
class _Site:
    """One fault's private corner of the shared fabric."""

    index: int
    kind: str
    src_leaf: str
    dst_leaf: str
    src_host: str
    dst_host: str
    sport_base: int
    flows: list[FlowKey] = field(default_factory=list)
    #: silent-drop: the dropped slice; link faults: the side-0 flows
    affected: list[FlowKey] = field(default_factory=list)
    #: the element a correct verdict must name
    expected_suspect: str = ""


class _SlotBase:
    """How one fault kind installs itself on a site and is diagnosed."""

    problem: str

    def launch_flows(self, scn: "MultiFaultScenario", site: _Site, *,
                     alternate_sides: bool) -> None:
        """``slot_flows`` CBR flows src_host→dst_host for this site.

        With ``alternate_sides`` the source ports are chosen so the
        healthy ECMP hash splits the flows evenly across the two
        spines (what the link and polarization slots need for a
        provable baseline); otherwise ports are simply consecutive.
        """
        p = scn.p
        net = scn.network
        rate = p["rate_mbps"] * 1e6
        sport = site.sport_base
        for i in range(p["slot_flows"]):
            if alternate_sides:
                sport = sport_for_side(site.src_host, site.dst_host,
                                       i % 2, start=sport)
            UdpSink(net.hosts[site.dst_host], sport)
            src = UdpCbrSource(net.sim, net.hosts[site.src_host],
                               site.dst_host, sport=sport, dport=sport,
                               rate_bps=rate, packet_size=1000,
                               priority=PRIO_LOW, start=0.001,
                               duration=p["duration"] - 0.002)
            site.flows.append(src.flow)
            if i % 2 == 0:
                site.affected.append(src.flow)
            sport += 1

    def last_epoch(self, scn: "MultiFaultScenario", site: _Site) -> int:
        clock = scn.deployment.datapaths[site.src_leaf].clock
        return clock.epoch_of(scn.network.sim.now)

    def install(self, scn: "MultiFaultScenario", site: _Site) -> None:
        raise NotImplementedError

    def diagnose(self, scn: "MultiFaultScenario", site: _Site) -> Verdict:
        raise NotImplementedError


class _SilentDropSlot(_SlotBase):
    problem = "gray-failure"

    def install(self, scn, site):
        # drop localization is destination-granular (the cut is "which
        # hops stopped naming the destination"), so the dropped slice
        # gets its own destination host behind the faulty leaf while
        # the healthy slice keeps the site's other one — the defining
        # gray-failure asymmetry, per site
        p = scn.p
        net = scn.network
        rate = p["rate_mbps"] * 1e6
        healthy_dst = site.dst_host.replace("_0", "_1")
        for i in range(p["slot_flows"]):
            dst = site.dst_host if i % 2 == 0 else healthy_dst
            sport = site.sport_base + i
            UdpSink(net.hosts[dst], sport)
            src = UdpCbrSource(net.sim, net.hosts[site.src_host], dst,
                               sport=sport, dport=sport, rate_bps=rate,
                               packet_size=1000, priority=PRIO_LOW,
                               start=0.001,
                               duration=p["duration"] - 0.002)
            site.flows.append(src.flow)
            if i % 2 == 0:
                site.affected.append(src.flow)
        scn.add_fault("silent-drop", switch=site.dst_leaf,
                      flows=tuple(site.affected),
                      start=scn.p["fault_time"])
        site.expected_suspect = site.dst_leaf

    def diagnose(self, scn, site):
        silence = silence_window(
            scn, scn.deployment.datapaths[site.src_leaf].clock)
        return diagnose_gray_failure(scn.deployment.analyzer,
                                     site.affected[0],
                                     silence_epochs=silence)


class _PolarizationSlot(_SlotBase):
    problem = "ecmp-polarization"

    def install(self, scn, site):
        self.launch_flows(scn, site, alternate_sides=True)
        fault = scn.add_fault("ecmp-polarization",
                              switch=site.src_leaf)
        # every flow shares the (src, dst) pair, so the port-blind
        # hash sends all of them to one spine — which one is resolved
        # against the switch's actual candidate order, not assumed
        site.expected_suspect = fault.expected_egress(
            FaultContext(scn.network), site.flows[0])

    def diagnose(self, scn, site):
        return diagnose_polarization(
            scn.deployment.analyzer, site.src_leaf,
            epochs=EpochRange(0, self.last_epoch(scn, site)))


class _LinkChurnSlot(_SlotBase):
    """Shared by the flap and one-shot-down slots (same telemetry
    signature: side-0 flows detour to the surviving spine)."""

    problem = "link-flap"
    fault_name = "link-flap"

    def install(self, scn, site):
        self.launch_flows(scn, site, alternate_sides=True)
        params = dict(a=site.src_leaf, b="spine0",
                      start=scn.p["fault_time"],
                      reconverge_delay=0.002)
        if self.fault_name == "link-flap":
            params.update(down_for=0.006, up_for=0.010)
        scn.add_fault(self.fault_name, **params)
        site.expected_suspect = f"{site.src_leaf}-spine0"

    def diagnose(self, scn, site):
        return diagnose_link_flap(
            scn.deployment.analyzer, site.src_leaf,
            epochs=EpochRange(0, self.last_epoch(scn, site)))


class _LinkDownSlot(_LinkChurnSlot):
    fault_name = "link-down"


_SLOTS = {
    "silent-drop": _SilentDropSlot(),
    "ecmp-polarization": _PolarizationSlot(),
    "link-flap": _LinkChurnSlot(),
    "link-down": _LinkDownSlot(),
}


@register
class MultiFaultScenario(Scenario):
    """N concurrent faults on disjoint sites of one leaf-spine fabric.

    Site *i* owns leaves ``leaf{2i}``/``leaf{2i+1}`` and the host pair
    behind them; the spine tier is shared, so the faults disturb a
    common substrate while their evidence stays attributable.  The
    diagnose phase runs each fault's analyzer app and a final summary
    verdict (``problem="multi-fault"``) is produced only when *every*
    fault was attributed with the right suspect — which is what the
    sweep counts as a correct point.
    """

    spec = ScenarioSpec(
        name="multi-fault",
        summary="compose registered faults on disjoint sites and check "
                "the analyzer attributes each independently",
        paper_ref="beyond §5: concurrent-fault attribution (ROADMAP "
                  "multi-fault runs; gray-failure studies, PAPERS.md)",
        expected_diagnosis="multi-fault (every composed fault "
                           "attributed: right problem + right suspect "
                           "per site)",
        knobs={
            "faults": Knob("silent-drop+ecmp-polarization",
                           "the composition: '+'-separated registered "
                           "fault names (silent-drop, "
                           "ecmp-polarization, link-flap, link-down)"),
            "slot_flows": Knob(8, "flows per fault site", minimum=1),
            "duration": Knob(0.060, "total run time (s)"),
            "fault_time": Knob(0.020, "when timed faults inject (s)"),
            "rate_mbps": Knob(10.0, "per-flow CBR rate (Mbit/s)"),
            "alpha_ms": Knob(10, "epoch duration α (ms)"),
            "k": Knob(3, "pointer hierarchy depth"),
            **fault_knobs(),
            **directory_knobs(),
        },
        smoke_knobs={"slot_flows": 4, "duration": 0.045},
        faults=("silent-drop", "ecmp-polarization", "link-flap",
                "link-down"),
    )

    def build(self) -> None:
        p = self.p
        kinds = [k.strip() for k in p["faults"].split("+") if k.strip()]
        if not kinds:
            raise ScenarioError("faults must name at least one fault")
        unknown = [k for k in kinds if k not in _SLOTS]
        if unknown:
            raise ScenarioError(
                f"unsupported fault(s) {unknown}; composable: "
                f"{', '.join(sorted(_SLOTS))}")
        net = build_leaf_spine(n_leaves=2 * len(kinds), n_spines=2,
                               hosts_per_leaf=2)
        from ..deployment import SwitchPointerDeployment
        deploy = SwitchPointerDeployment(
            net, alpha_ms=p["alpha_ms"], k=p["k"],
            directory_backend=p["directory_backend"],
            directory_bits=p["directory_bits"],
            directory_hashes=p["directory_hashes"])
        self.network, self.deployment = net, deploy

        self.sites: list[_Site] = []
        for i, kind in enumerate(kinds):
            site = _Site(
                index=i, kind=kind,
                src_leaf=f"leaf{2 * i}", dst_leaf=f"leaf{2 * i + 1}",
                src_host=f"h{2 * i}_0", dst_host=f"h{2 * i + 1}_0",
                sport_base=9000 + 1000 * i)
            _SLOTS[kind].install(self, site)
            self.sites.append(site)

        # ambient stressor knobs; every source leaf is its site's
        # CherryPick embedder, so partial deployment spares them all
        install_fault_knobs(
            self, extra_spare=tuple(s.src_leaf for s in self.sites))

    def run(self) -> None:
        # the plan's finalize() stops any flapper once this returns
        self.network.run(until=self.p["duration"])

    def collect(self) -> dict:
        net = self.network
        gray = sum(sw.gray_drops for sw in net.switches.values())
        down = sum(link.down_drops for link in net.links)
        return {
            "fault_kinds": [s.kind for s in self.sites],
            "gray_drops": gray,
            "down_drops": down,
            "flow_count": sum(len(s.flows) for s in self.sites),
        }

    def diagnose(self) -> list[Verdict]:
        verdicts: list[Verdict] = []
        attributed: list[bool] = []
        for site in self.sites:
            slot = _SLOTS[site.kind]
            v = slot.diagnose(self, site)
            verdicts.append(v)
            attributed.append(v.problem == slot.problem
                              and v.suspect == site.expected_suspect)
        parts = ", ".join(
            f"{s.kind}@site{s.index}: "
            + ("attributed" if ok else "MISSED")
            for s, ok in zip(self.sites, attributed))
        if all(attributed):
            # the roll-up inherits the evidence label: it stands on the
            # per-site verdicts, which stand on the directory answers
            verdicts.append(Verdict(
                problem="multi-fault", victim=None,
                approx=self.deployment.analyzer.directory_approx,
                narrative=(f"all {len(self.sites)} concurrent fault(s) "
                           f"attributed independently — {parts}")))
        return verdicts


register_sweep(SweepSpec(
    scenario="multi-fault",
    summary="diagnosis accuracy as a function of concurrent fault "
            "count and mix (every fault must be attributed)",
    expect_problem="multi-fault",
    axes={
        "faults": "faults",
        "victims": "slot_flows",
        "alpha_ms": "alpha_ms",
    },
    default_grid={"faults": ("silent-drop",
                             "silent-drop+ecmp-polarization",
                             "silent-drop+link-flap",
                             "ecmp-polarization+link-down")},
    nightly_grid={"faults": ("silent-drop+ecmp-polarization",
                             "silent-drop+link-flap")},
))
