"""End-to-end wiring: instrument a simulated network with SwitchPointer.

:class:`SwitchPointerDeployment` is the one-stop constructor the
examples, tests, and benchmarks use: given a :class:`repro.simnet.Network`
it builds the host directory (MPHF), installs a datapath + control-plane
agent on every switch and an analyzer on top — the full system of §3 —
and gives every host a telemetry agent once the host is first touched:
by a packet, a trigger, a fault or a query.  Most hosts of a large
fabric never are, and cost no agent.  Every datapath embeds the one
header, the VLAN double tag, at the link that pins a packet's path.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView
from typing import Callable, Iterator, Optional

from .analyzer.analyzer import Analyzer
from .core.epoch import EpochClock, EpochRangeEstimator
from .core.mphf import HostDirectory
from .core.pointer import HierarchicalPointerStore
from .directory import DIRECTORIES, make_directory_set
from .hostd.agent import HostAgent
from .hostd.triggers import ThroughputDropTrigger, VictimAlert
from .rpc.fabric import LatencyModel, RpcFabric
from .simnet.host import Host
from .simnet.packet import FlowKey, Packet
from .simnet.topology import Network
from .switchd.agent import SwitchAgent
from .switchd.cherrypick import CherryPickPlanner
from .switchd.datapath import SwitchPointerDatapath

#: Default configuration, following the paper's running example:
#: α = 10 ms, k = 3 levels, ε = α, Δ = 2α (§4.2.1).
DEFAULT_ALPHA_MS = 10
DEFAULT_K = 3


class HostAgents(Mapping[str, HostAgent]):
    """Every deployed host's agent, built when the host is first touched.

    Keys, ``len`` and ``in`` answer for every host; ``[name]`` and
    ``get`` build the agent on first access.  ``values`` and ``items``
    yield only the agents that exist: one never built holds zero in
    every counter, so a sum over them reads the same, and reading it
    builds nothing.
    """

    __slots__ = ("_hosts", "_build", "built")

    def __init__(self, hosts: Mapping[str, Host],
                 build: Callable[[Host], HostAgent]):
        self._hosts = hosts
        self._build = build
        #: the agents that exist, in the order they were built
        self.built: dict[str, HostAgent] = {}

    def __getitem__(self, name: str) -> HostAgent:
        agent = self.built.get(name)
        if agent is None:
            agent = self.built[name] = self._build(self._hosts[name])
        return agent

    def __contains__(self, name: object) -> bool:
        return name in self._hosts

    def __iter__(self) -> Iterator[str]:
        return iter(self._hosts)

    def __len__(self) -> int:
        return len(self._hosts)

    def values(self) -> ValuesView[HostAgent]:
        return self.built.values()

    def items(self) -> ItemsView[str, HostAgent]:
        return self.built.items()


class SwitchPointerDeployment:
    """A fully instrumented network.

    Parameters
    ----------
    network:
        The simulated topology (routes must already be computed).
    alpha_ms:
        Epoch duration α — also the hierarchy fan-out (integer, ≥ 2).
    k:
        Hierarchy depth.
    epsilon_ms / delta_ms:
        Skew and one-hop-delay bounds for epoch-range extrapolation;
        default to α and 2α (the paper's example values).
    skew_of:
        Optional callable node-name → clock skew in seconds, to exercise
        the asynchrony handling.  Skews must respect |skew(a)−skew(b)| ≤ ε.
        A host's skew is kept, when it is not 0, until its agent's clock
        is built.
    records_per_host:
        The per-host record-table bound (None = unbounded).
    directory_backend / directory_bits / directory_hashes:
        Which directory-set backend every switch's pointer hierarchy
        builds (:mod:`repro.directory`): ``"exact"``, ``"bloom"``,
        ``"lsh"``, or ``"auto"`` (an alias of ``"exact"``),
        with the per-set bit budget (0 = saturating, exact-equivalent)
        and hash count for the sketches.  Sketches answer with
        *supersets* of the truth — diagnosis can degrade with the bit
        budget, never silently miss evidence.
    """

    def __init__(self, network: Network, *,
                 alpha_ms: int = DEFAULT_ALPHA_MS, k: int = DEFAULT_K,
                 epsilon_ms: Optional[float] = None,
                 delta_ms: Optional[float] = None,
                 skew_of: Optional[Callable[[str], float]] = None,
                 rpc: Optional[RpcFabric] = None,
                 latency_model: Optional[LatencyModel] = None,
                 records_per_host: Optional[int] = None,
                 directory_backend: str = "auto",
                 directory_bits: int = 0,
                 directory_hashes: int = 4):
        self.network = network
        self.alpha_ms = alpha_ms
        self.k = k
        self.epsilon_ms = alpha_ms if epsilon_ms is None else epsilon_ms
        self.delta_ms = 2 * alpha_ms if delta_ms is None else delta_ms
        skew = skew_of if skew_of is not None else (lambda _name: 0.0)

        self.directory = HostDirectory(network.host_names)
        self.directory_backend = DIRECTORIES.get(directory_backend).name
        self.directory_bits = directory_bits
        self.directory_hashes = directory_hashes
        n_slots = self.directory.n
        backend = self.directory_backend
        bits, hashes = directory_bits, directory_hashes

        def _set_factory():
            return make_directory_set(backend, n_slots,
                                      bits=bits, hashes=hashes)

        self._set_factory = _set_factory
        self.planner = CherryPickPlanner(network)
        self.estimator = EpochRangeEstimator(
            alpha_ms=alpha_ms, epsilon_ms=self.epsilon_ms,
            delta_ms=self.delta_ms)

        self.datapaths: dict[str, SwitchPointerDatapath] = {}
        self.switch_agents: dict[str, SwitchAgent] = {}
        for name, sw in network.switches.items():
            clock = EpochClock(alpha_ms, skew_s=skew(name))
            store = HierarchicalPointerStore(self.directory.n,
                                             alpha=alpha_ms, k=k,
                                             set_factory=self._set_factory)
            dp = SwitchPointerDatapath(sw, clock, self.directory.mphf,
                                       store, planner=self.planner)
            self.datapaths[name] = dp
            self.switch_agents[name] = SwitchAgent(name, store)

        self.records_per_host = records_per_host
        #: the skew of each host that has no agent yet, where it is not 0
        self._skews: dict[str, float] = {}
        if skew_of is not None:
            self._skews = {name: s for name in network.hosts
                           if (s := skew_of(name))}
        self.host_agents = HostAgents(network.hosts, self._build_agent)
        untouched = (self._on_first_packet,)  # one tuple every host shares
        for host in network.hosts.values():
            host.add_sniffers(untouched)

        #: stripped-switch stash: name -> (datapath, agent), maintained
        #: by uninstrument_switch/reinstrument_switch
        self._stripped: dict[str, tuple[SwitchPointerDatapath,
                                        SwitchAgent]] = {}

        rpc_fabric = rpc if rpc is not None else RpcFabric(latency_model)
        self.analyzer = Analyzer(
            network=network, directory=self.directory,
            switch_agents=self.switch_agents,
            host_agents=self.host_agents, rpc=rpc_fabric,
            directory_backend=self.directory_backend)

    # -- host agents, built on first touch -------------------------------------

    def _build_agent(self, host: Host) -> HostAgent:
        sniffers = host.sniffers
        agent = HostAgent(
            host, clock=EpochClock(self.alpha_ms,
                                   skew_s=self._skews.pop(host.name, 0.0)),
            planner=self.planner, estimator=self.estimator,
            max_records=self.records_per_host)
        # the decoder the agent appended takes the first-touch hook's place
        first = self._on_first_packet
        if first in sniffers:
            sniffers[sniffers.index(first)] = sniffers.pop()
        return agent

    def _on_first_packet(self, host: Host, pkt: Packet, now: float) -> None:
        """Build the agent of the host this packet is the first to reach,
        and decode the packet; later packets go to the agent's own
        sniffers."""
        self.host_agents[host.name].decoder.on_packet(host, pkt, now)

    def shift_host_skew(self, name: str, delta_s: float) -> None:
        """Move one host's clock by ``delta_s`` seconds (the clock-skew
        fault); a host with no agent yet keeps the shift for its clock."""
        agent = self.host_agents.built.get(name)
        if agent is not None:
            agent.clock.set_skew(agent.clock.skew_s + delta_s)
            return
        skew = self._skews.get(name, 0.0) + delta_s
        if skew:
            self._skews[name] = skew
        else:
            self._skews.pop(name, None)

    # -- partial deployment (the partial-deployment fault) ---------------------

    def uninstrument_switch(self, name: str) -> None:
        """Strip SwitchPointer off one switch: detach the datapath hook
        and withdraw the control-plane agent.

        The analyzer sees the withdrawal immediately (it shares the
        ``switch_agents`` dict) and falls back to host-only evidence for
        this switch.  The stripped objects are stashed so
        :meth:`reinstrument_switch` can restore them exactly.
        """
        if name in self._stripped:
            raise ValueError(f"switch {name!r} is already uninstrumented")
        dp = self.datapaths.pop(name)
        agent = self.switch_agents.pop(name)
        self.network.switches[name].pipeline.remove(dp._hook)
        self._stripped[name] = (dp, agent)

    def reinstrument_switch(self, name: str) -> None:
        """Reinstall a switch stripped by :meth:`uninstrument_switch`."""
        try:
            dp, agent = self._stripped.pop(name)
        except KeyError:
            raise ValueError(
                f"switch {name!r} was not uninstrumented") from None
        self.network.switches[name].pipeline.append(dp._hook)
        self.datapaths[name] = dp
        self.switch_agents[name] = agent

    @property
    def uninstrumented_switches(self) -> list[str]:
        """Switches currently running without SwitchPointer."""
        return sorted(self._stripped)

    # -- conveniences ----------------------------------------------------------

    def watch_flow(self, flow: FlowKey, **kwargs) -> ThroughputDropTrigger:
        """Install the §5.1 throughput trigger at the flow's destination,
        alerting the analyzer."""
        agent = self.host_agents[flow.dst]
        return agent.watch_flow(flow, self.analyzer.ingest_alert, **kwargs)

    def alerts(self) -> list[VictimAlert]:
        return self.analyzer.alerts

    def total_pointer_memory_bits(self) -> int:
        return sum(dp.store.memory_bits for dp in self.datapaths.values())

    def record_stats(self) -> dict[str, int]:
        """Aggregate host record-table counters (sweep measurements)."""
        peak = total = evicted = ingested = 0
        for agent in self.host_agents.values():
            store = agent.store
            peak = max(peak, store.peak_records)
            total += len(store)
            evicted += store.evicted
            ingested += store.ingested
        return {"peak_records": peak, "total_records": total,
                "evicted_records": evicted,
                # the perf ledger reads this key; evicted records are dropped
                "spilled_records": 0,
                "ingested_records": ingested}
