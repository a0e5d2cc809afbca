"""The SwitchPointer analyzer (§4.3).

The analyzer coordinates switch agents and host agents:

* receives victim alerts from host triggers,
* pulls pointer sets from the switches named in the alert (for the
  epoch ranges the alert carries),
* decodes pointer bits back to end-host names via the
  :class:`repro.core.mphf.HostDirectory` it built and distributed,
* **prunes the search radius** using topology: a host in the pointer is
  only relevant if the suspect switch reaches it through a link the
  victim's path also uses (§4.3 — "filters out irrelevant end-hosts
  ... if the paths ... do not share any path segment of the flow") —
  read off the static topology map (:meth:`Network.tree_path`, one
  first-discovered tree per root switch per ``topology_version``, a
  host's path built at lookup), never searched per host,
* fans out queries to the surviving hosts through the latency-modelled
  RPC fabric.

Every step contributes to a :class:`repro.rpc.fabric.Breakdown`, which
is how the Fig 7/8/12 latency decompositions are produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Iterator, Mapping, Optional,
                    Sequence)

from ..core.epoch import EpochRange
from ..core.mphf import HostDirectory
from ..core.pointer import PointerSnapshot
from ..hostd.agent import HostAgent
from ..hostd.query import FlowSummary, QueryResult
from ..hostd.triggers import VictimAlert
from ..rpc.fabric import Breakdown, RpcFabric
from ..simnet.packet import FlowKey
from ..simnet.topology import Network
from ..switchd.agent import SwitchAgent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .session import DiagnosisSession


@dataclass
class HostsPerSwitch:
    """Pointer-decode result: which hosts hold telemetry for a switch."""

    switch: str
    epochs: EpochRange
    hosts: list[str] = field(default_factory=list)
    pruned: list[str] = field(default_factory=list)


def _links_of(path: Sequence[str]) -> Iterator[frozenset]:
    """The undirected links of a node path, one per hop."""
    return (frozenset(pair) for pair in zip(path, path[1:]))


class Analyzer:
    """Network-wide coordinator."""

    def __init__(self, *, network: Network, directory: HostDirectory,
                 switch_agents: dict[str, SwitchAgent],
                 host_agents: Mapping[str, HostAgent],
                 rpc: Optional[RpcFabric] = None,
                 directory_backend: str = "exact"):
        self.network = network
        self.directory = directory
        self.switch_agents = switch_agents
        self.host_agents = host_agents
        self.rpc = rpc if rpc is not None else RpcFabric()
        #: registry name of the switches' directory backend; anything
        #: but "exact" means pointer answers are supersets and verdicts
        #: built from them carry the ``approx`` evidence label
        self.directory_backend = directory_backend
        self.alerts: list[VictimAlert] = []
        # false-positive accounting for sketch directories: slots a
        # query returned that the shadow truth says were never set,
        # over the negatives each query tested (measurement only —
        # query answers never consult the truth)
        self.dir_queries = 0
        self.dir_approx_queries = 0
        self.dir_false_positive_slots = 0
        self.dir_negative_slots = 0

    # -- alert ingestion -------------------------------------------------------

    def ingest_alert(self, alert: VictimAlert) -> None:
        """Host-trigger sink; keeps the alert queue for the operator."""
        self.alerts.append(alert)

    # -- online diagnosis ------------------------------------------------------

    @property
    def site(self) -> Optional[str]:
        """The switch the analyzer is (notionally) attached at.

        Deterministic — the lexicographically first switch — so the
        topology-path-derived per-hop RPC costs are reproducible.
        """
        return min(self.network.switches) if self.network.switches else None

    def hops_to(self, server: str) -> int:
        """Topology hop count from the analyzer site to ``server``.

        Read off the same first-discovered tree the §4.3 pruning uses.
        Unreachable or unknown servers cost 0 extra — the timeout
        machinery, not wire distance, prices those.
        """
        site = self.site
        if site is None:
            return 0
        path = self.network.tree_path(site, server)
        return len(path) - 1 if path is not None else 0

    def host_responsive(self, host: str) -> bool:
        """Can ``host`` answer an analyzer RPC right now?

        False for crashed agents and for hosts whose access link is
        down — the two conditions under which the RPC fabric times the
        host out and the diagnosis degrades instead of hanging.
        """
        agent = self.host_agents.get(host)
        if agent is None or not agent.alive:
            return False
        node = self.network.hosts.get(host)
        if node is not None and node.nic is not None:
            return node.nic.link.up
        return True

    def ingest_seq(self) -> int:
        """Global decoded-ingest watermark: sum of every host store's
        ``ingested`` counter.  Freshness is measured as the difference
        of this value between trigger and verdict."""
        return sum(agent.store.ingested
                   for agent in self.host_agents.values())

    def open_session(self, *, stale_after_s: Optional[float] = None
                     ) -> "DiagnosisSession":
        """Open an online-diagnosis session (see :mod:`.session`)."""
        from .session import DiagnosisSession
        return DiagnosisSession(self, stale_after_s=stale_after_s)

    # -- pointer retrieval -----------------------------------------------------

    def is_instrumented(self, switch: str) -> bool:
        """Does ``switch`` currently run SwitchPointer?

        False for switches a partial deployment never covered (or an
        instrumentation outage stripped): they publish no pointers, and
        evidence about them must come from end-hosts alone.
        """
        return switch in self.switch_agents

    def hosts_for(self, switch: str, epochs: EpochRange, *,
                  level: Optional[int] = None) -> list[str]:
        """Decode the switch's pointer for ``epochs`` into host names.

        By default the answer comes from the finest hierarchy level
        still covering the window, falling back to the pushed offline
        history (§4.1.1's intended access pattern).  An int ``level``
        reads that level only, and raises
        :class:`~repro.switchd.agent.RecycledEpochError` once it has
        reused any epoch of the window.

        An *uninstrumented* switch (partial deployment) has no pointer
        to decode; the fallback is host-only evidence — every known
        host is a candidate, and the caller's topology pruning / record
        filters do the narrowing the pointer would have done.  A name
        that is no switch at all still raises (a typo must not come
        back as a plausible all-hosts answer).
        """
        agent = self.switch_agents.get(switch)
        if agent is None:
            if switch not in self.network.switches:
                raise KeyError(switch)
            return sorted(self.host_agents)
        if level is None:
            snaps, _source = agent.best_effort_snapshots(epochs.lo,
                                                         epochs.hi)
        else:
            snaps = agent.pull(level, epochs.lo, epochs.hi)
        return self.directory.hosts_of(self._score_slots(snaps))

    def _score_slots(self, snaps: Sequence[PointerSnapshot]) -> set[int]:
        """Union the snapshots' slots, scoring sketches as we go.

        A sketch answer is a superset of the truth (registration
        enforces that); the shadow-truth bitmaps each snapshot carries
        let us count how many of the slots a query *could* have
        wrongly returned actually were (the false-positive rate the
        ``directory-bits`` sweep charts).  The returned answer never
        consults the truth — it is exactly what a real deployment,
        which has no truth bitmap, would act on.
        """
        slots: set[int] = set()
        approx = False
        for snap in snaps:
            slots.update(snap.slots())
            if snap.backend != "exact":
                approx = True
        self.dir_queries += 1
        if approx:
            self.dir_approx_queries += 1
            truth: set[int] = set()
            for snap in snaps:
                truth.update(snap.true_slots())
            n = self.directory.n
            self.dir_false_positive_slots += len(slots - truth)
            self.dir_negative_slots += n - len(truth)
        return slots

    @property
    def directory_approx(self) -> bool:
        """True when switch pointers come from a lossy sketch backend."""
        return self.directory_backend != "exact"

    def directory_stats(self) -> dict[str, float]:
        """Cumulative sketch-accuracy counters (sweep measurements).

        ``fpr`` is false-positive slots over negative slots across all
        pointer queries so far — 0.0 for the exact backend and for
        saturating sketch budgets, rising as ``directory_bits`` shrinks.
        """
        neg = self.dir_negative_slots
        return {
            "queries": float(self.dir_queries),
            "approx_queries": float(self.dir_approx_queries),
            "false_positive_slots": float(self.dir_false_positive_slots),
            "negative_slots": float(neg),
            "fpr": self.dir_false_positive_slots / neg if neg else 0.0,
        }

    def locate_relevant_hosts(self, alert: VictimAlert, *,
                              prune: bool = True
                              ) -> tuple[list[HostsPerSwitch], Breakdown]:
        """The §3 walkthrough: alert → pointers → candidate hosts.

        Returns per-switch host lists and the pointer-retrieval latency.
        ``prune=False`` skips the §4.3 search-radius pruning (the
        pruning ablation).
        """
        bd = Breakdown()
        bd.add("pointer_retrieval",
               self.rpc.pointer_pull_cost(len(alert.tuples)))
        victim_links = self._path_links(alert.flow, alert.switch_path)
        out = []
        for tup in alert.tuples:
            hosts = self.hosts_for(tup.switch, tup.epochs)
            kept, dropped = hosts, []
            if prune:
                kept, dropped = self._prune(tup.switch, hosts,
                                            victim_links)
            out.append(HostsPerSwitch(switch=tup.switch, epochs=tup.epochs,
                                      hosts=kept, pruned=dropped))
        return out, bd

    # -- search-radius pruning (§4.3) ------------------------------------------

    def _path_links(self, flow: FlowKey, switch_path: Sequence[str]
                    ) -> set[frozenset]:
        """Undirected link set of the victim's end-to-end path.

        The alert may name only a subset of on-path switches; gaps
        between consecutive waypoints are filled by shortest paths so
        pruning never sees a disconnected fragment.
        """
        nodes = [flow.src] + [s for s in switch_path] + [flow.dst]
        links: set[frozenset] = set()
        for a, b in zip(nodes, nodes[1:]):
            if a == b:
                continue
            segment = self.network.tree_path(a, b)
            if segment is None:
                continue  # unknown waypoint, or no path between them
            links.update(_links_of(segment))
        return links

    def _prune(self, switch: str, hosts: list[str],
               victim_links: set[frozenset]
               ) -> tuple[list[str], list[str]]:
        """Keep hosts the switch reaches through a victim-path segment.

        A flow destined to host h contended with the victim at ``switch``
        only if it left the switch on a link the victim also used; hosts
        reached via disjoint segments cannot have shared a queue with
        the victim and are dropped from the search radius.
        """
        path_to = self.network.tree_path
        kept, dropped = [], []
        for h in hosts:
            path = path_to(switch, h)
            if path is not None and not victim_links.isdisjoint(
                    _links_of(path)):
                kept.append(h)
            else:
                dropped.append(h)
        return kept, dropped

    # -- host consultation -------------------------------------------------------

    def consult_hosts(self, hosts: Sequence[str],
                      query: Callable[[HostAgent], QueryResult],
                      *, session: Optional["DiagnosisSession"] = None
                      ) -> tuple[dict[str, QueryResult], Breakdown]:
        """Fan a query out to ``hosts`` through the RPC latency model.

        Unresponsive hosts (crashed agent, downed access link) are
        timed out by the fabric and absent from the result dict — a
        partial answer.  When a :class:`DiagnosisSession` is attached,
        the round's outcome (per-host watermarks, missing hosts) is
        recorded on it so the final verdict can be tagged.
        """
        known = [h for h in hosts if h in self.host_agents]

        def execute(server: str) -> QueryResult:
            return query(self.host_agents[server])

        results, bd = self.rpc.fanout_query(known, execute,
                                            responsive=self.host_responsive)
        if session is not None:
            session.note_round(known, results)
        return results, bd

    def contending_flows(self, hosts: Sequence[str], switch: str,
                         epochs: EpochRange, victim: VictimAlert
                         ) -> tuple[list[tuple[str, FlowSummary]], Breakdown]:
        """Summaries of non-victim flows crossing (switch, epochs).

        Returns (host, flow summary) pairs for every flow — other than
        the victim itself — whose record at some consulted host matches
        the (switchID, epochID-range) filter.
        """
        results, bd = self.consult_hosts(
            hosts, lambda agent: agent.query.flows_matching(switch, epochs))
        victim_keys = {victim.flow, victim.flow.reversed()}
        culprits = []
        for host, res in results.items():
            for summary in res.payload:
                if summary.flow in victim_keys:
                    continue  # the victim itself / its own ACK stream
                culprits.append((host, summary))
        return culprits, bd
