"""Property: building a host's agent on first touch changes no output.

A deployment builds a host's agent when a packet, a trigger install, a
fault or a query first reaches the host.  The oracle is the same
deployment with every agent built up front, before any traffic (the way
deployments were wired before agents went lazy).  Both worlds run the
same random workload on a small leaf-spine fabric — UDP and TCP traffic,
triggers installed before and during the run, agent crashes and
restarts, clock skew injected and healed while hosts are still being
touched for the first time, partial deployment, and operator queries —
and must agree on every host's record table, decoder counters and
clock, ``record_stats()``, ``ingest_seq()``, the alerts and the
verdicts.  An agent the lazy world never built must look, in the
oracle, like one that nothing reached.
"""

from contextlib import contextmanager

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.analyzer import diagnose_contention
from repro.core.rng import seed_run
from repro.deployment import SwitchPointerDeployment
from repro.faults.base import FaultContext
from repro.faults.plan import FaultPlan
from repro.scenarios import run_scenario
from repro.simnet.packet import PRIO_HIGH, PRIO_LOW
from repro.simnet.queues import StrictPriorityQueue
from repro.simnet.tcp import open_tcp_flow
from repro.simnet.topology import build_leaf_spine
from repro.simnet.traffic import UdpCbrSource
from tests.hostd.decode_oracle import store_state

ALPHA_MS = 2
END_S = 0.040
#: no shrink phase: every candidate replays two whole simulations, so a
#: failure is reported as generated
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def build_every_agent(deploy):
    for name in deploy.host_agents:
        deploy.host_agents[name]


@contextmanager
def eager_deployments():
    """Every deployment built inside builds all its agents up front."""
    init = SwitchPointerDeployment.__init__

    def eager_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        build_every_agent(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SwitchPointerDeployment, "__init__", eager_init)
        yield


def untouched(agent):
    return (agent.alive and not agent.triggers and agent.store.ingested == 0
            and agent.decoder.decoded == agent.decoder.undecodable == 0)


def host_tables(deploy):
    """Every agent that something reached: its table, counters and
    clock."""
    return {name: (store_state(agent.store), agent.decoder.decoded,
                   agent.decoder.undecodable, agent.alive,
                   agent.clock.skew_s, len(agent.triggers))
            for name, agent in sorted(deploy.host_agents.built.items())
            if not untouched(agent)}


def outputs(deploy, verdicts, answers=()):
    return {"tables": host_tables(deploy),
            "record_stats": deploy.record_stats(),
            "ingest_seq": deploy.analyzer.ingest_seq(),
            "alerts": [repr(a) for a in deploy.alerts()],
            "verdicts": [repr(v) for v in verdicts],
            "answers": list(answers)}


# -- a hand-built fabric ------------------------------------------------------

fabrics = st.tuples(st.integers(2, 3),      # leaves
                    st.integers(1, 2),      # spines
                    st.integers(2, 3))      # hosts per leaf

#: (src, dst, start ms, duration ms, Mb/s, high priority) — host indices
#: are taken modulo the fabric's host count
udp_flows = st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                               st.integers(0, 30), st.integers(1, 10),
                               st.sampled_from([50, 300, 900]),
                               st.booleans()),
                     min_size=1, max_size=10)

times_ms = st.integers(0, 35)
optional = st.none() | st.integers(1, 20)   # ms after start, or never

faults = st.fixed_dictionaries({
    "skew": st.none() | st.tuples(st.sampled_from([0.5, 3.0, 9000.0]),
                                  st.sampled_from(["all", "hosts"]),
                                  times_ms, optional),
    "crash": st.none() | st.tuples(st.integers(0, 8), times_ms, optional),
    "partial": st.none() | st.tuples(times_ms, optional),
    # a second trigger, installed mid-run on a UDP flow's destination
    "late_watch": st.none() | st.tuples(st.integers(0, 9), times_ms),
    # hosts the operator queries after the run
    "queries": st.lists(st.integers(0, 8), max_size=4),
})


def hand_built_world(fabric, flows, plan, *, eager):
    seed_run(11)
    n_leaves, n_spines, per_leaf = fabric

    def qf():
        return StrictPriorityQueue(levels=3, capacity_bytes=256 * 1024)

    net = build_leaf_spine(n_leaves=n_leaves, n_spines=n_spines,
                           hosts_per_leaf=per_leaf, queue_factory=qf)
    deploy = SwitchPointerDeployment(net, alpha_ms=ALPHA_MS, k=3,
                                     epsilon_ms=1, delta_ms=2,
                                     records_per_host=6)
    if eager:
        build_every_agent(deploy)
    names = net.host_names
    sim = net.sim

    # the victim: a TCP flow across the fabric, watched from the start
    victim_src, victim_dst = names[-1], names[0]
    sender, _ = open_tcp_flow(sim, net.hosts[victim_src],
                              net.hosts[victim_dst], sport=100, dport=200,
                              total_bytes=None, priority=PRIO_LOW,
                              min_rto=0.010)
    sender.start()
    triggers = [deploy.watch_flow(sender.flow)]

    keys = []
    for i, (s, d, start, dur, mbps, high) in enumerate(flows):
        src, dst = names[s % len(names)], names[d % len(names)]
        if src == dst:
            continue
        source = UdpCbrSource(sim, net.hosts[src], dst, sport=7000 + i,
                              dport=7000 + i, rate_bps=mbps * 1e6,
                              priority=PRIO_HIGH if high else PRIO_LOW,
                              start=start / 1e3, duration=dur / 1e3)
        keys.append(source.flow)
    if plan["late_watch"] is not None and keys:
        which, at = plan["late_watch"]
        flow = keys[which % len(keys)]
        sim.schedule_at(at / 1e3, lambda: triggers.append(
            deploy.watch_flow(flow)))

    faults = FaultPlan()

    def window(start, after):
        return {"start": start / 1e3,
                "stop": None if after is None else (start + after) / 1e3}

    if plan["skew"] is not None:
        skew_ms, targets, start, after = plan["skew"]
        faults.add_named("clock-skew", skew_ms=skew_ms, targets=targets,
                         **window(start, after))
    if plan["crash"] is not None:
        host, start, after = plan["crash"]
        faults.add_named("agent-crash", host=names[host % len(names)],
                         **window(start, after))
    if plan["partial"] is not None:
        faults.add_named("partial-deployment", frac=0.5,
                         **window(*plan["partial"]))
    faults.schedule(FaultContext(net, deploy))

    net.run(until=END_S)
    sender.stop()
    for trig in triggers:
        trig.stop()

    analyzer = deploy.analyzer
    asked = sorted({names[q % len(names)] for q in plan["queries"]})
    results, bd = analyzer.consult_hosts(
        asked, lambda agent: agent.query.all_flows())
    answers = [(host, repr(results[host].payload))
               for host in sorted(results)] + [bd.total]
    verdicts = [diagnose_contention(analyzer, alert)
                for alert in deploy.alerts()]
    return outputs(deploy, verdicts, answers)


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(fabric=fabrics, flows=udp_flows, plan=faults)
def test_lazy_agents_match_the_eager_oracle(fabric, flows, plan):
    assert (hand_built_world(fabric, flows, plan, eager=False)
            == hand_built_world(fabric, flows, plan, eager=True))


# -- a registered scenario, verdicts included ---------------------------------

incast_knobs = st.fixed_dictionaries({
    "hosts": st.sampled_from([12, 24]),
    "bg_flows": st.integers(0, 40),
    "skew_ms": st.sampled_from([0.0, 2.0]),
    "deploy_frac": st.sampled_from([1.0, 0.5]),
    "crash_host": st.sampled_from(["", "h0_1", "h1_2"]),
    "crash_at": st.sampled_from([0.0, 0.010, 0.030]),
    "records_per_host": st.sampled_from([0, 4]),
})


def incast(knobs):
    seed_run(5)
    result = run_scenario("incast", n_senders=4, duration=0.025,
                          burst_start=0.008, **knobs)
    return outputs(result.deployment, result.verdicts) | {
        "freshness": result.freshness,
        "measurements": repr(sorted(result.measurements.items()))}


@settings(max_examples=8, deadline=None, phases=NO_SHRINK)
@given(knobs=incast_knobs)
def test_incast_verdicts_match_the_eager_oracle(knobs):
    got = incast(knobs)
    with eager_deployments():
        want = incast(knobs)
    assert got == want
