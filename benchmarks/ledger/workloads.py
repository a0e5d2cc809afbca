"""The four workloads, driven through the entry points users call.

Every workload passes *shape* knobs only (``hosts``, ``bg_flows``,
``bg_flow_kb``, ``records_per_host``, ``n_flows``, ``overrun_ms``) and
never an implementation selector (``record_backend``, ``ingest_batch``,
``directory_backend`` ...): the ledger measures what a user gets by
default, and it keeps running when such a selector is deleted.

A workload has four steps; only ``op`` is timed:

``setup(seed)``      once per process, counted in ``setup_s``
``prepare(...)``     the inputs of op *i*, made from the seed
``op(...)``          the work one sample times
``finish(...)``      output checks, the fingerprint, the counters
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro import scenarios
from repro.baselines import pathdump
from repro.core.epoch import EpochClock, EpochRange
from repro.core.rng import seed_run
from repro.rpc.fabric import RpcFabric

from . import expect

WORKLOADS = ("fabric_scale", "traffic_scale", "query_loop",
             "scenario_catalogue")

#: ops measured per second of ``--seconds``: the rep count of a run is a
#: fixed number, the same on both sides of a comparison, sized so that
#: the commit that introduced the ledger spends about ``--seconds`` on it
OPS_PER_SECOND = {"fabric_scale": 0.2, "traffic_scale": 0.3,
                  "query_loop": 9.0, "scenario_catalogue": 0.25}

#: probe() entries that are levels, not running totals: a query batch
#: reports them as they stand, and every other entry as its change
GAUGES = ("core.mphf.keys", "deployment.agents", "core.pointer.memory_bits",
          "hostd.store.records", "hostd.store.peak_records")

QUERIES_PER_BATCH = 100
TOP_K = 100


def op_count(workload: str, seconds: float) -> int:
    return max(2, round(seconds * OPS_PER_SECOND[workload]))


@dataclass
class Outcome:
    """What ``finish`` reports for one op."""

    failures: list[str]
    model_ms: float          # simulated: modelled debugging time
    hosts_share: float       # simulated: hosts consulted / fabric hosts
    fingerprint: str
    counters: dict[str, float]
    #: host-time details measured inside the op (phase and member
    #: seconds, per-query latencies)
    extra: dict[str, Any] = field(default_factory=dict)


def probe(network: Any, deployment: Any) -> dict[str, float]:
    """The simulator's own counters after a run, one flat dict.

    Everything here is simulated, so it repeats exactly for a seed; it
    feeds both the per-layer counts and the determinism fingerprint.
    """
    switches = list(network.switches.values())
    hosts = list(network.hosts.values())
    ifaces = [i for sw in switches for i in sw.interfaces]
    ifaces += [h.nic for h in hosts if h.nic is not None]
    datapaths = list(deployment.datapaths.values())
    agents = list(deployment.switch_agents.values())
    analyzer = deployment.analyzer
    directory = analyzer.directory_stats()
    records = deployment.record_stats()
    return {
        "simnet.engine.events": network.sim.events_processed,
        "simnet.fabric.rx_packets": sum(sw.rx_packets for sw in switches),
        "simnet.fabric.pkt_hops": sum(sw.forwarded for sw in switches),
        "simnet.fabric.switch_drops": sum(
            sw.no_route_drops + sw.gray_drops for sw in switches),
        "simnet.fabric.queue_drops": sum(
            i.queue.stats.dropped + i.dropped_link_down for i in ifaces),
        "simnet.fabric.delivered": sum(h.rx_packets for h in hosts),
        "switchd.datapath.packets": sum(
            dp.packets_processed for dp in datapaths),
        "core.pointer.memory_bits": deployment.total_pointer_memory_bits(),
        "core.mphf.keys": deployment.directory.n,
        "deployment.agents": len(deployment.host_agents) + len(agents),
        "switchd.agent.pulls": sum(a.pull_requests for a in agents),
        "switchd.agent.bytes_pushed": sum(a.bytes_pushed for a in agents),
        "hostd.decoder.packets": sum(
            a.decoder.decoded for a in deployment.host_agents.values()),
        "hostd.store.ingested": records["ingested_records"],
        "hostd.store.records": records["total_records"],
        "hostd.store.peak_records": records["peak_records"],
        "hostd.store.evicted": records["evicted_records"],
        "hostd.store.spilled": records["spilled_records"],
        "hostd.triggers.alerts": len(analyzer.alerts),
        "rpc.fabric.calls": analyzer.rpc.calls,
        "rpc.fabric.timeouts": analyzer.rpc.timeouts,
        "rpc.fabric.attempts_wasted": analyzer.rpc.attempts_wasted,
        "directory.queries": directory["queries"],
        "directory.approx_queries": directory["approx_queries"],
        "directory.false_positive_slots":
            directory["false_positive_slots"],
        "directory.negative_slots": directory["negative_slots"],
    }


def _add(total: dict[str, float], more: dict[str, float]) -> None:
    for key, value in more.items():
        total[key] = total.get(key, 0) + value


def _traced_objects(tracer: Any, counters: dict[str, float]) -> None:
    """Counters of objects only the tracer can see being created."""
    senders = tracer.objects.get("tcp_senders", [])
    background = tracer.objects.get("background", [])
    counters["simnet.tcp.timeouts"] = sum(s.timeouts for s in senders)
    counters["simnet.tcp.retransmits"] = sum(
        s.retransmits for s in senders)
    counters["simnet.workload.flows"] = sum(
        b.n_flows for b in background)
    counters["simnet.workload.packets_emitted"] = sum(
        b.packets_sent for b in background)


class ScenarioWorkload:
    """One op = run these registered scenarios, one after another."""

    def __init__(self, members: list[tuple[str, dict]]):
        self.members = members

    def setup(self, seed: int) -> None:
        for scenario, _knobs in self.members:
            scenarios.REGISTRY.get(scenario)   # raises if unregistered

    def prepare(self, state: None, seed: int, i: int) -> None:
        return None

    def op(self, state: None, inputs: None) -> list[tuple[Any, float]]:
        out = []
        for scenario, knobs in self.members:
            t0 = time.perf_counter()
            result = scenarios.run_scenario(scenario, **knobs)
            out.append((result, time.perf_counter() - t0))
        return out

    def finish(self, state: None, inputs: None,
               raw: list[tuple[Any, float]],
               tracer: Optional[Any]) -> Outcome:
        failures: list[str] = []
        counters: dict[str, float] = {}
        parts: list[Any] = []
        phases: dict[str, float] = {}
        members: dict[str, float] = {}
        model_ms = 0.0
        shares = []
        for (scenario, knobs), (result, wall_s) in zip(self.members, raw):
            failures += expect.check_scenario(scenario, knobs, result)
            members[scenario] = wall_s * 1e3
            _add(phases, result.timings)
            stats = probe(result.network, result.deployment)
            stats["analyzer.session.freshness"] = result.freshness
            _add(counters, stats)
            fabric_hosts = len(result.network.hosts)
            consulted = [len(v.hosts_consulted) for v in result.verdicts]
            if result.verdicts:
                model_ms += 1e3 * statistics.median(
                    v.total_time_s for v in result.verdicts)
                shares.append(statistics.fmean(consulted) / fabric_hosts)
            parts += [scenario, result.sim_time,
                      sorted((name, vars(st)) for name, st
                             in result.switch_stats.items()),
                      sorted(stats.items()),
                      [(expect.verdict_tuples(result)[j], v.hosts_consulted,
                        v.total_time_s)
                       for j, v in enumerate(result.verdicts)]]
        if tracer is not None:
            _traced_objects(tracer, counters)
        return Outcome(
            failures=failures, model_ms=model_ms,
            hosts_share=statistics.fmean(shares) if shares else 0.0,
            fingerprint=expect.fingerprint(parts), counters=counters,
            extra={"phases": phases, "members": members})


@dataclass
class Query:
    kind: str                # "top_k" | "flows"
    switch: str
    epochs: EpochRange
    whole_run: bool


@dataclass
class LoadedFabric:
    """``query_loop``'s set-up: a deployment that has seen its traffic."""

    network: Any
    deployment: Any
    switches: list[str]
    last_epoch: int
    oracle: pathdump.PathDumpAnalyzer
    oracle_answers: dict[tuple[str, int, int], list]


class QueryWorkload:
    """One op = a batch of seeded operator queries on a loaded fabric.

    The RPC fabric stays unbound, so the simulated clock is frozen and
    every batch sees the same records.
    """

    def __init__(self, *, hosts: int, bg_flows: int):
        self.knobs = {"hosts": hosts, "bg_flows": bg_flows}

    def setup(self, seed: int) -> LoadedFabric:
        seed_run(seed)
        result = scenarios.IncastScenario(**self.knobs).execute(
            with_diagnosis=False)
        deployment = result.deployment
        clock = EpochClock(deployment.alpha_ms)
        return LoadedFabric(
            network=result.network, deployment=deployment,
            switches=sorted(result.network.switches),
            last_epoch=clock.epoch_of(result.network.sim.now),
            oracle=pathdump.PathDumpAnalyzer(deployment.host_agents,
                                             rpc=RpcFabric()),
            oracle_answers={})

    def prepare(self, state: LoadedFabric, seed: int,
                i: int) -> tuple[list[Query], dict[str, float]]:
        rng = random.Random(f"query_loop/{seed}/{i}")
        queries = []
        for q in range(QUERIES_PER_BATCH):
            switch = rng.choice(state.switches)
            lo = rng.randint(0, state.last_epoch)
            hi = min(state.last_epoch, lo + rng.randint(0, 3))
            whole_run = q % 20 == 19
            if whole_run:
                lo, hi = 0, state.last_epoch
            kind = "top_k" if rng.random() < 0.5 else "flows"
            queries.append(Query(kind, switch, EpochRange(lo, hi),
                                 whole_run))
        return queries, probe(state.network, state.deployment)

    def op(self, state: LoadedFabric,
           inputs: tuple[list[Query], dict]) -> list[tuple[Any, Any, float]]:
        analyzer = state.deployment.analyzer
        out = []
        for query in inputs[0]:
            t0 = time.perf_counter()
            if query.kind == "top_k":
                answer, breakdown = pathdump.top_k_with_switchpointer(
                    analyzer, TOP_K, switch=query.switch,
                    epochs=query.epochs, level=None)
            else:
                hosts = analyzer.hosts_for(query.switch, query.epochs,
                                           level=None)
                results, breakdown = analyzer.consult_hosts(
                    hosts, lambda agent, q=query: agent.query.flows_matching(
                        q.switch, q.epochs))
                answer = (hosts, results)
            out.append((answer, breakdown, time.perf_counter() - t0))
        return out

    def finish(self, state: LoadedFabric,
               inputs: tuple[list[Query], dict],
               raw: list[tuple[Any, Any, float]],
               tracer: Optional[Any]) -> Outcome:
        queries, before = inputs
        after = probe(state.network, state.deployment)
        counters = {key: after[key] - (0 if key in GAUGES else before[key])
                    for key in after}
        analyzer = state.deployment.analyzer
        failures: list[str] = []
        parts: list[Any] = []
        consulted = []
        for query, (answer, breakdown, _lat) in zip(queries, raw):
            window = (query.epochs.lo, query.epochs.hi)
            if query.kind == "top_k":
                # the entry point returns rows, not whom it asked
                consulted.append(len(analyzer.hosts_for(
                    query.switch, query.epochs, level=None)))
                digest: Any = [(s.flow, s.bytes) for s in answer]
                if query.whole_run:
                    failures += expect.check_top_k(
                        query.switch, window, answer,
                        self._oracle(state, query))
            else:
                hosts, results = answer
                consulted.append(len(hosts))
                digest = sorted(
                    (h, len(r.payload), r.records_scanned)
                    for h, r in results.items())
            parts.append((query.kind, query.switch, window, digest,
                          breakdown.total))
        fabric_hosts = len(state.network.hosts)
        return Outcome(
            failures=failures,
            model_ms=1e3 * statistics.fmean(bd.total for _a, bd, _l in raw),
            hosts_share=statistics.fmean(consulted) / fabric_hosts,
            fingerprint=expect.fingerprint(parts), counters=counters,
            extra={"query_ms": [lat * 1e3 for _a, _b, lat in raw],
                   "empty_queries": sum(1 for n in consulted if n == 0)})

    @staticmethod
    def _oracle(state: LoadedFabric, query: Query) -> list:
        """PathDump's answer; the records are frozen, so one call per
        (switch, window) serves every batch."""
        key = (query.switch, query.epochs.lo, query.epochs.hi)
        if key not in state.oracle_answers:
            state.oracle_answers[key], _bd = state.oracle.top_k_flows(
                TOP_K, switch=query.switch, epochs=query.epochs)
        return state.oracle_answers[key]


def make_workload(name: str, *, toy: bool = False) -> Any:
    """The workload ``name`` at its ledger shape (``toy``: the shapes
    the self-test drives the same code with)."""
    gray = ({"n_flows": 8, "bg_flows": 50, "overrun_ms": 50} if toy else
            {"n_flows": 256, "bg_flows": 2000, "overrun_ms": 50})
    if name == "fabric_scale":
        return ScenarioWorkload([("incast", {
            "hosts": 64 if toy else 16384,
            "bg_flows": 50 if toy else 2000})])
    if name == "traffic_scale":
        return ScenarioWorkload([("incast", {
            "hosts": 64 if toy else 256,
            "bg_flows": 50 if toy else 20000,
            "bg_flow_kb": 4, "records_per_host": 32})])
    if name == "query_loop":
        return QueryWorkload(hosts=64 if toy else 1024,
                             bg_flows=50 if toy else 5000)
    if name == "scenario_catalogue":
        return ScenarioWorkload([
            (scenario, gray if scenario == "gray-failure" else {})
            for scenario in expect.CATALOGUE])
    raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
