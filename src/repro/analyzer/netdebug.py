"""Extended debugging applications (§2.4 / the PathDump use-case list).

The paper notes "many other network monitoring and debugging problems"
solvable with the directory service and cites the PathDump use-case
catalogue.  Two of the most load-bearing ones, built on the same
primitives as the §5 apps:

* :func:`localize_packet_drops` — silent blackhole localization.  A
  victim flow stops arriving; the per-epoch pointers along its path form
  a *spatial cut*: upstream switches kept forwarding to the destination
  (bit set) while switches past the fault did not (bit clear).  The
  faulty hop is the boundary.  :func:`silence_window` reads the epochs
  to cut over from the victim's own destination record.
* :func:`check_path_conformance` — routing-policy validation.  Host
  flow records carry reconstructed trajectories; comparing them against
  the topology's shortest paths flags reroutes, loops, and
  valley-routing without touching any switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.epoch import EpochRange
from ..hostd.records import FlowRecord
from ..rpc.fabric import Breakdown
from ..simnet.packet import FlowKey
from ..simnet.topology import Network, NoPathError
from .analyzer import Analyzer


@dataclass
class DropLocalization:
    """Outcome of blackhole localization for one flow."""

    flow: FlowKey
    #: switches on the path that still forwarded to the destination
    forwarding: list[str] = field(default_factory=list)
    #: switches past the cut that never saw the flow in the window
    silent: list[str] = field(default_factory=list)
    #: (last forwarding switch, first silent switch) — the faulty hop
    suspect_hop: Optional[tuple[str, str]] = None
    breakdown: Breakdown = field(default_factory=Breakdown)


def silence_window(rec: Optional[FlowRecord],
                   now: int) -> Optional[EpochRange]:
    """The first run of closed epochs in which the victim's destination
    record ``rec`` (``bytes_by_epoch``, keyed by embedder-tagged epoch)
    counts no bytes after the flow's first epoch, up to where bytes
    resume or to ``now - 1`` (``now``: the embedder's open epoch).
    None without such a run: a drop that silences no whole epoch
    cannot be cut at α.
    """
    seen = rec.bytes_by_epoch if rec is not None else {}
    closed = range(min(seen, default=now) + 1, now)
    lo = next((e for e in closed if not seen.get(e)), None)
    if lo is None:
        return None
    hi = next((e for e in range(lo, now) if seen.get(e)), now) - 1
    return EpochRange(lo, hi)


def localize_packet_drops(analyzer: Analyzer, flow: FlowKey,
                          switch_path: list[str],
                          epochs: Optional[EpochRange]) -> DropLocalization:
    """Find the hop where ``flow``'s packets silently vanish.

    ``switch_path`` is the flow's known trajectory (from its record,
    before the blackhole), ``epochs`` the window in which the
    destination observed silence (:func:`silence_window`).  Pointers
    are pulled per switch; the first on-path switch whose pointer does
    *not* name the destination in the window marks the downstream side
    of the cut.  With no window nothing is pulled and no hop is named.
    """
    if epochs is None:
        return DropLocalization(flow=flow)
    # uninstrumented switches (partial deployment) have no pointer to
    # pull: they are evidence *gaps*, excluded from the cut computation
    # rather than misread as silent — the boundary is found over the
    # instrumented subsequence, so localization coarsens (the suspect
    # hop may span a gap) but never flips sides
    evidenced = [sw for sw in switch_path if analyzer.is_instrumented(sw)]
    bd = Breakdown()
    bd.add("pointer_retrieval",
           analyzer.rpc.pointer_pull_cost(len(evidenced)))
    forwarding, silent = [], []
    for sw in evidenced:
        hosts = analyzer.hosts_for(sw, epochs)
        if flow.dst in hosts:
            forwarding.append(sw)
        else:
            silent.append(sw)
    suspect: Optional[tuple[str, str]] = None
    for here, nxt in zip(evidenced, evidenced[1:]):
        if here in forwarding and nxt in silent:
            suspect = (here, nxt)
            break
    if suspect is None and forwarding and silent:
        suspect = (forwarding[-1], silent[0])
    if suspect is None and not forwarding and evidenced:
        # nothing forwarded at all: fault is upstream of the first
        # evidenced hop
        suspect = (flow.src, evidenced[0])
    return DropLocalization(flow=flow, forwarding=forwarding,
                            silent=silent, suspect_hop=suspect,
                            breakdown=bd)


@dataclass
class ConformanceViolation:
    """One flow whose observed trajectory breaks policy."""

    flow: FlowKey
    host: str
    observed_path: list[str]
    kind: str          # "loop" | "non-shortest" | "off-policy"
    detail: str = ""


@dataclass
class ConformanceReport:
    """Outcome of a network-wide path-conformance sweep."""

    flows_checked: int = 0
    violations: list[ConformanceViolation] = field(default_factory=list)
    breakdown: Breakdown = field(default_factory=Breakdown)

def check_path_conformance(analyzer: Analyzer, *,
                           hosts: Optional[list[str]] = None,
                           expected_paths: Optional[
                               dict[FlowKey, list[str]]] = None
                           ) -> ConformanceReport:
    """Validate every recorded trajectory against routing policy.

    Default policy: a flow's switch path must be loop-free and one of
    the topology's shortest paths between its endpoints.  Per-flow
    ``expected_paths`` override the default (e.g. a traffic-engineering
    pin); a mismatch there reports ``off-policy``.
    """
    report = ConformanceReport()
    targets = hosts if hosts is not None else sorted(analyzer.host_agents)
    results, bd = analyzer.consult_hosts(
        targets, lambda agent: agent.query.all_flows())
    report.breakdown = bd
    net = analyzer.network
    # many flows share endpoints: compute each pair's shortest-path set
    # once per sweep, not once per flow
    shortest_cache: dict[tuple[str, str], Optional[set[tuple[str, ...]]]]
    shortest_cache = {}
    for host, res in results.items():
        for summary in res.payload:
            report.flows_checked += 1
            path = summary.switch_path
            flow = summary.flow
            if len(set(path)) != len(path):
                report.violations.append(ConformanceViolation(
                    flow=flow, host=host, observed_path=path,
                    kind="loop",
                    detail="switch repeated on path"))
                continue
            if expected_paths and flow in expected_paths:
                if path != expected_paths[flow]:
                    report.violations.append(ConformanceViolation(
                        flow=flow, host=host, observed_path=path,
                        kind="off-policy",
                        detail=f"expected {expected_paths[flow]}"))
                continue
            if not _is_shortest(net, flow, path, shortest_cache):
                report.violations.append(ConformanceViolation(
                    flow=flow, host=host, observed_path=path,
                    kind="non-shortest",
                    detail="trajectory is not a shortest path"))
    return report


def _is_shortest(net: Network, flow: FlowKey, switch_path: list[str],
                 cache: dict[tuple[str, str],
                             Optional[set[tuple[str, ...]]]]) -> bool:
    pair = (flow.src, flow.dst)
    if pair not in cache:
        try:
            cache[pair] = {tuple(p)
                           for p in net.shortest_paths(*pair)}
        except NoPathError:
            cache[pair] = None  # unknown or unreachable: no shortest path
    candidates = cache[pair]
    if candidates is None:
        return False
    observed = (flow.src, *switch_path, flow.dst)
    return observed in candidates
