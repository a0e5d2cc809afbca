"""PathDump baseline (§6.2, Fig 12).

PathDump [OSDI'16] is the end-host system SwitchPointer builds on.  Its
hosts keep the same flow records, but **switches store nothing**: when
the operator asks a switch-scoped question ("top-100 flows through S"),
the analyzer has no directory and "executes the query from all the
servers in the network" — the exact behaviour Fig 12 compares against.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from ..core.epoch import EpochRange
from ..hostd.agent import HostAgent
from ..hostd.query import FlowSummary, QueryResult
from ..rpc.fabric import Breakdown, RpcFabric


class PathDumpAnalyzer:
    """Query runner that must contact every server."""

    def __init__(self, host_agents: Mapping[str, HostAgent],
                 rpc: Optional[RpcFabric] = None):
        self.host_agents = host_agents
        self.rpc = rpc if rpc is not None else RpcFabric()

    @property
    def all_servers(self) -> list[str]:
        return sorted(self.host_agents)

    def fanout(self, query: Callable[[HostAgent], QueryResult]
               ) -> tuple[dict[str, QueryResult], Breakdown]:
        """Run ``query`` on *all* servers — PathDump has no directory."""

        def execute(server: str) -> QueryResult:
            return query(self.host_agents[server])

        return self.rpc.fanout_query(self.all_servers, execute)

    def top_k_flows(self, k: int, *, switch: str,
                    epochs: Optional[EpochRange] = None
                    ) -> tuple[list[FlowSummary], Breakdown]:
        """The Fig 12 query: global top-k flows through one switch."""
        results, bd = self.fanout(
            lambda agent: agent.query.top_k_flows(k, switch=switch,
                                                  epochs=epochs))
        merged: list[FlowSummary] = []
        for res in results.values():
            merged.extend(res.payload)
        merged.sort(key=lambda s: (-s.bytes, s.flow))
        return merged[:k], bd

    def flow_size_distribution(self, *, switch: str,
                               epochs: Optional[EpochRange] = None
                               ) -> tuple[dict[str, list[int]], Breakdown]:
        """§5.4 diagnosis the PathDump way: ask everyone."""
        results, bd = self.fanout(
            lambda agent: agent.query.flow_size_distribution(
                switch=switch, epochs=epochs))
        merged: dict[str, list[int]] = {}
        for res in results.values():
            for egress, sizes in res.payload.items():
                merged.setdefault(egress, []).extend(sizes)
        return merged, bd


def top_k_with_switchpointer(analyzer, k: int, *, switch: str,
                             epochs: EpochRange,
                             level: Optional[int] = None
                             ) -> tuple[list[FlowSummary], Breakdown]:
    """The same Fig 12 query via SwitchPointer's directory.

    Contacts only the servers the switch's pointer names — the
    comparison half of Fig 12.  ``analyzer`` is a
    :class:`repro.analyzer.analyzer.Analyzer`.
    """
    bd = Breakdown()
    bd.add("pointer_retrieval", analyzer.rpc.pointer_pull_cost(1))
    servers = analyzer.hosts_for(switch, epochs, level=level)
    results, q_bd = analyzer.consult_hosts(
        servers, lambda agent: agent.query.top_k_flows(k, switch=switch,
                                                       epochs=epochs))
    merged: list[FlowSummary] = []
    for res in results.values():
        merged.extend(res.payload)
    merged.sort(key=lambda s: (-s.bytes, s.flow))
    return merged[:k], bd.merged(q_bd)
