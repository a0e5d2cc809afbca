"""End-to-end wiring: instrument a simulated network with SwitchPointer.

:class:`SwitchPointerDeployment` is the one-stop constructor the
examples, tests, and benchmarks use: given a :class:`repro.simnet.Network`
it builds the host directory (MPHF), installs a datapath + control-plane
agent on every switch, a telemetry agent on every host, and an analyzer
on top — the full system of §3.
"""

from __future__ import annotations

from typing import Callable, Optional

from .analyzer.analyzer import Analyzer
from .core.epoch import EpochClock, EpochRangeEstimator
from .core.mphf import HostDirectory
from .core.pointer import HierarchicalPointerStore
from .directory import DIRECTORIES, make_directory_set
from .hostd.agent import HostAgent
from .hostd.triggers import ThroughputDropTrigger, VictimAlert
from .rpc.fabric import LatencyModel, RpcFabric
from .simnet.packet import FlowKey
from .simnet.topology import Network
from .switchd.agent import SwitchAgent
from .switchd.cherrypick import CherryPickPlanner
from .switchd.datapath import MODE_VLAN, SwitchPointerDatapath
from .switchd.rules import RuleTable

#: Default configuration, following the paper's running example:
#: α = 10 ms, k = 3 levels, ε = α, Δ = 2α (§4.2.1).
DEFAULT_ALPHA_MS = 10
DEFAULT_K = 3


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
    mode:
        Telemetry embedding: ``"vlan"`` (default), ``"int"``, ``"none"``.
    skew_of:
        Optional callable node-name → clock skew in seconds, to exercise
        the asynchrony handling.  Skews must respect |skew(a)−skew(b)| ≤ ε.
    enforce_commodity_limit:
        Refuse α below the 15 ms OpenFlow rule-update floor (off by
        default — the simulated switches are not so constrained).
    records_per_host / ingest_batch:
        Host-agent storage knobs for scale sweeps: the per-host record
        bound (None = unbounded) and the sniffed-packet batch size for
        deferred-eviction ingestion.
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
                 mode: str = MODE_VLAN,
                 skew_of: Optional[Callable[[str], float]] = None,
                 rpc: Optional[RpcFabric] = None,
                 latency_model: Optional[LatencyModel] = None,
                 enforce_commodity_limit: bool = False,
                 records_per_host: Optional[int] = None,
                 ingest_batch: int = 1,
                 directory_backend: str = "auto",
                 directory_bits: int = 0,
                 directory_hashes: int = 4):
        self.network = network
        self.alpha_ms = alpha_ms
        self.k = k
        self.mode = mode
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
        self.rule_tables: dict[str, RuleTable] = {}
        for name, sw in network.switches.items():
            clock = EpochClock(alpha_ms, skew_s=skew(name))
            store = HierarchicalPointerStore(self.directory.n,
                                             alpha=alpha_ms, k=k,
                                             set_factory=self._set_factory)
            dp = SwitchPointerDatapath(sw, clock, self.directory.mphf,
                                       store, planner=self.planner,
                                       mode=mode)
            if mode == MODE_VLAN:
                self.rule_tables[name] = RuleTable(
                    switch_name=name, port_count=max(1, sw.port_count),
                    alpha_ms=float(alpha_ms),
                    enforce_commodity_limit=enforce_commodity_limit)
            self.datapaths[name] = dp
            self.switch_agents[name] = SwitchAgent(name, store)

        self.host_agents: dict[str, HostAgent] = {}
        for name, host in network.hosts.items():
            clock = EpochClock(alpha_ms, skew_s=skew(name))
            self.host_agents[name] = HostAgent(
                host, clock=clock, planner=self.planner,
                estimator=self.estimator,
                max_records=records_per_host,
                ingest_batch=ingest_batch)

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

    def flush_all_tops(self) -> None:
        """Force-push every switch's top-level pointer (end of run)."""
        for dp in self.datapaths.values():
            dp.store.flush_top()

    def total_pointer_memory_bits(self) -> int:
        return sum(dp.store.memory_bits for dp in self.datapaths.values())

    def record_stats(self) -> dict[str, int]:
        """Aggregate host record-table counters (sweep measurements)."""
        peak = total = evicted = spilled = ingested = 0
        for agent in self.host_agents.values():
            # drain any batched-ingest buffer first: hosts the analyzer
            # never queried would otherwise under-report their footprint
            agent.flush_ingest()
            store = agent.store
            peak = max(peak, store.peak_records)
            total += len(store)
            evicted += store.evicted
            spilled += store.spilled
            ingested += store.ingested
        return {"peak_records": peak, "total_records": total,
                "evicted_records": evicted, "spilled_records": spilled,
                "ingested_records": ingested}
