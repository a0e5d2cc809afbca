"""Run workloads in fresh child processes and turn samples into metrics.

One process, one thread, one workload after another: the parent only
spawns a child, waits for it and reads the JSON line it prints.  Host
time (``*_s``, ``*_ms`` wall/cpu, RSS) and simulated time
(``debug_time_model_ms``, ``hosts_consulted_share``, every count) are
never mixed in one number.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parents[2]

#: set-ups measured per untraced run (the measuring child's own plus
#: children that set up and exit); ``setup_s`` is their median
SETUPS_PER_RUN = 3
CHILD_TIMEOUT_S = 170


# -- the child: one workload, one process -----------------------------------

def child(workload: str, seed: int, ops: int, traced: bool, toy: bool,
          spawned_at: float, spans_path: Optional[str]) -> dict:
    """Set the workload up, run ``ops`` ops, report every sample.

    ``spawned_at`` is the parent's ``time.monotonic()`` just before it
    started this process (one clock for all processes on Linux), so
    ``setup_s`` covers interpreter start, imports and the set-up.
    """
    from repro.core.rng import seed_run

    from .trace import Tracer
    from .workloads import make_workload

    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    wl = make_workload(workload, toy=toy)
    state = wl.setup(seed)
    setup_s = time.monotonic() - spawned_at

    samples = []
    query_ms: list[float] = []
    for i in range(ops):
        inputs = wl.prepare(state, seed, i)
        seed_run(seed + i)
        gc.collect()
        sample: dict[str, Any] = {"op": i, "seed": seed + i}
        if tracer is not None:
            tracer.begin_op(i)
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            raw = wl.op(state, inputs)
        except Exception:
            raw = None
            sample["failures"] = [traceback.format_exc(limit=8)]
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.end_op()
        if raw is not None:
            # an op that raised contributes no timing
            outcome = wl.finish(state, inputs, raw, tracer)
            query_ms += outcome.extra.pop("query_ms", [])
            sample.update(
                wall_ms=wall * 1e3, cpu_ms=cpu * 1e3,
                failures=outcome.failures, model_ms=outcome.model_ms,
                hosts_share=outcome.hosts_share,
                fingerprint=outcome.fingerprint,
                counters=outcome.counters, **outcome.extra)
        sample["ok"] = not sample["failures"]
        samples.append(sample)
        del raw, inputs

    report = {
        "workload": workload, "seed": seed, "traced": traced,
        "setup_s": setup_s, "ops": samples, "query_ms": query_ms,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        if spans_path:
            tracer.write_jsonl(spans_path)
        report["trace"] = {
            "self_s": tracer.self_seconds(), "calls": tracer.calls(),
            "counts": tracer.counts, "missing": tracer.missing,
            "spans": len(tracer.spans)}
    return report


def spawn(workload: str, seed: int, ops: int, *, traced: bool = False,
          toy: bool = False, spans_path: Optional[Path] = None) -> dict:
    """Run :func:`child` in a fresh interpreter and wait for it."""
    cmd = [sys.executable, "-m", "benchmarks.ledger", "child",
           "--workload", workload, "--seed", str(seed), "--ops", str(ops),
           "--traced", str(int(traced)), "--toy", str(int(toy)),
           "--spawned-at", repr(time.monotonic())]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.splitlines()[-1])


# -- samples -> metrics -----------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _stat(values: list[float], unit: str, value: Optional[float] = None
          ) -> dict:
    q1, q3 = quartiles(values)
    return {"value": statistics.median(values) if value is None else value,
            "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(measured: dict, setups: list[float]) -> dict[str, dict]:
    """The seven end-to-end metrics of one untraced run.

    Host timings are medians over the ops.  The two simulated metrics
    are exact per op and differ between ops only because each op has its
    own seed, so they are means: the steadier summary of the inputs.
    """
    ops = measured["ops"]
    timed = [s for s in ops if "wall_ms" in s]

    def col(key: str) -> list[float]:
        return [s[key] for s in timed] or [0.0]

    ok = sum(1 for s in ops if s["ok"])
    model = col("model_ms")
    spared = [1.0 - share for share in col("hosts_share")]
    return {
        "setup_s": _stat(setups, "s"),
        "op_wall_ms": _stat(col("wall_ms"), "ms"),
        "op_cpu_ms": _stat(col("cpu_ms"), "ms"),
        "peak_rss_mb": _stat([measured["peak_rss_mb"]], "MB"),
        "ok_share": _stat([float(s["ok"]) for s in ops], "ratio",
                          ok / len(ops)),
        "debug_time_model_ms": _stat(model, "sim_ms",
                                     statistics.fmean(model)),
        "hosts_spared_share": _stat(spared, "ratio",
                                    statistics.fmean(spared)),
    }


def _unit(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"),
                         ("_share", "ratio"), (".fpr", "ratio"),
                         ("_bits", "bit"), ("bytes_pushed", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(untraced: dict, traced: dict) -> dict[str, dict]:
    """Per-layer metrics: self seconds and counts per traced op, phase
    seconds and rates from the untraced ops of the same seeds."""
    from .expect import CATALOGUE

    t_ops = [s for s in traced["ops"] if "wall_ms" in s]
    u_ops = [s for s in untraced["ops"] if "wall_ms" in s]
    n = max(1, len(t_ops))
    trace = traced["trace"]

    def self_s(layer: str, *parts: str) -> float:
        by_part = trace["self_s"].get(layer, {})
        return sum(by_part.get(p, 0.0) for p in parts or by_part) / n

    def calls(layer: str, *parts: str) -> float:
        by_part = trace["calls"].get(layer, {})
        return sum(by_part.get(p, 0) for p in parts or by_part) / n

    def tally(name: str) -> float:
        return trace["counts"].get(name, 0) / n

    def count(name: str) -> float:
        return sum(s["counters"].get(name, 0) for s in t_ops) / n

    def untraced_mean(group: str, key: str) -> float:
        return statistics.fmean(
            s.get(group, {}).get(key, 0.0) for s in u_ops) if u_ops else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    run_s = untraced_mean("phases", "run")
    packets = count("switchd.datapath.packets")
    kept, pruned = tally("analyzer.hosts_kept"), tally("analyzer.hosts_pruned")
    query_ms = sorted(untraced["query_ms"])
    op_total = sum(self_s(layer) for layer in trace["self_s"])
    traced_wall = statistics.median([s["wall_ms"] for s in t_ops] or [0.0])
    untraced_wall = statistics.median(
        [s["wall_ms"] for s in u_ops] or [0.0])

    m: dict[str, float] = {}
    for phase in ("build", "run", "collect", "diagnose"):
        m[f"scenarios.{phase}_s"] = untraced_mean("phases", phase)
    catalogue = untraced["workload"] == "scenario_catalogue"
    for member in CATALOGUE:
        m[f"scenarios.member.{member}.wall_ms"] = (
            untraced_mean("members", member) if catalogue else 0.0)
    m["simnet.topology.build_s"] = self_s("simnet.topology", "build")
    m["simnet.topology.routes_s"] = self_s("simnet.topology", "routes")
    m["simnet.topology.shortest_paths_s"] = self_s(
        "simnet.topology", "shortest_paths")
    m["simnet.topology.shortest_paths_calls"] = calls(
        "simnet.topology", "shortest_paths")
    m["core.mphf.build_s"] = self_s("core.mphf", "build")
    m["core.mphf.keys"] = count("core.mphf.keys")
    m["core.mphf.decode_s"] = self_s("core.mphf", "decode")
    m["core.mphf.decode_slots"] = tally("core.mphf.decode_slots")
    m["deployment.wire_s"] = self_s("deployment", "wire")
    m["deployment.agents"] = count("deployment.agents")
    m["simnet.workload.plan_s"] = self_s("simnet.workload", "plan")
    m["simnet.workload.emit_s"] = self_s("simnet.workload", "self")
    m["simnet.workload.flows"] = count("simnet.workload.flows")
    m["simnet.workload.packets_emitted"] = count(
        "simnet.workload.packets_emitted")
    m["simnet.engine.self_s"] = self_s("simnet.engine")
    m["simnet.engine.events"] = count("simnet.engine.events")
    m["simnet.engine.events_per_s"] = ratio(
        m["simnet.engine.events"], run_s)
    m["simnet.fabric.self_s"] = self_s("simnet.fabric")
    m["simnet.fabric.pkt_hops"] = count("simnet.fabric.pkt_hops")
    m["simnet.fabric.pkt_hops_per_s"] = ratio(
        m["simnet.fabric.pkt_hops"], run_s)
    m["simnet.fabric.queue_drops"] = count("simnet.fabric.queue_drops")
    m["simnet.fabric.delivered"] = count("simnet.fabric.delivered")
    m["simnet.tcp.self_s"] = self_s("simnet.tcp")
    m["simnet.tcp.timeouts"] = count("simnet.tcp.timeouts")
    m["simnet.tcp.retransmits"] = count("simnet.tcp.retransmits")
    m["switchd.datapath.self_s"] = self_s("switchd.datapath")
    m["switchd.datapath.packets"] = packets
    m["switchd.datapath.update_share"] = ratio(
        calls("core.pointer", "update"), packets)
    m["switchd.cherrypick.self_s"] = self_s("switchd.cherrypick")
    m["switchd.cherrypick.plans"] = calls("switchd.cherrypick")
    m["core.pointer.update_s"] = self_s("core.pointer", "update")
    m["core.pointer.snapshot_s"] = self_s(
        "core.pointer", "snapshot", "slots")
    m["core.pointer.snapshots"] = calls("core.pointer", "slots")
    m["core.pointer.memory_bits"] = count("core.pointer.memory_bits")
    m["switchd.agent.pull_s"] = self_s("switchd.agent", "pull")
    m["switchd.agent.pulls"] = count("switchd.agent.pulls")
    m["switchd.agent.bytes_pushed"] = count("switchd.agent.bytes_pushed")
    m["hostd.decoder.self_s"] = self_s("hostd.decoder")
    m["hostd.decoder.packets"] = count("hostd.decoder.packets")
    m["hostd.decoder.packets_per_s"] = ratio(
        m["hostd.decoder.packets"], run_s)
    m["hostd.store.ingest_s"] = self_s("hostd.store", "ingest")
    m["hostd.store.scan_s"] = self_s("hostd.store", "scan")
    for key in ("ingested", "records", "peak_records", "evicted", "spilled"):
        m[f"hostd.store.{key}"] = count(f"hostd.store.{key}")
    m["hostd.query.self_s"] = self_s("hostd.query")
    m["hostd.query.calls"] = calls("hostd.query")
    m["hostd.query.records_scanned"] = tally("hostd.query.records_scanned")
    m["hostd.query.rows_returned"] = tally("hostd.query.rows_returned")
    m["hostd.triggers.alerts"] = count("hostd.triggers.alerts")
    m["rpc.fabric.self_s"] = self_s("rpc.fabric")
    m["rpc.fabric.fanouts"] = calls("rpc.fabric", "fanout")
    m["rpc.fabric.servers_asked"] = tally("rpc.fabric.servers_asked")
    m["rpc.fabric.timeouts"] = count("rpc.fabric.timeouts")
    m["rpc.fabric.attempts_wasted"] = count("rpc.fabric.attempts_wasted")
    m["analyzer.hosts_for_s"] = self_s("analyzer", "hosts_for")
    m["analyzer.prune_s"] = self_s("analyzer", "prune")
    m["analyzer.pruned_share"] = ratio(pruned, kept + pruned)
    m["analyzer.hosts_consulted_share"] = statistics.fmean(
        s["hosts_share"] for s in u_ops) if u_ops else 0.0
    m["analyzer.consult_s"] = self_s("analyzer", "consult")
    m["analyzer.apps_s"] = self_s("analyzer", "apps")
    m["analyzer.query_p50_ms"] = (
        statistics.median(query_ms) if query_ms else 0.0)
    m["analyzer.query_p99_ms"] = (
        query_ms[int(len(query_ms) * 0.99)] if query_ms else 0.0)
    m["analyzer.empty_query_share"] = ratio(
        sum(s.get("empty_queries", 0) for s in u_ops), len(query_ms))
    m["analyzer.session.delta_rounds"] = calls("analyzer.session")
    m["analyzer.session.freshness"] = count("analyzer.session.freshness")
    m["directory.fpr"] = ratio(count("directory.false_positive_slots"),
                               count("directory.negative_slots"))
    m["directory.approx_queries"] = count("directory.approx_queries")
    m["trace.overhead_share"] = ratio(traced_wall, untraced_wall) - 1
    m["trace.unattributed_share"] = ratio(self_s("op"), op_total)
    return {name: {"value": value, "unit": _unit(name)}
            for name, value in m.items()}


# -- one run of one workload ------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool, *,
                 toy: bool = False, ops: Optional[int] = None,
                 spans_path: Optional[Path] = None) -> dict:
    """One run as the contract defines it.

    ``trace=False``: the measuring child plus set-up-only children; the
    seven end-to-end metrics.  ``trace=True``: a third of the ops, once
    untraced and once traced on the same seeds; the per-layer metrics.
    """
    from .workloads import op_count

    n = ops if ops is not None else op_count(workload, seconds)
    if trace:
        n = ops if ops is not None else max(2, round(n / 3))
        children = [spawn(workload, seed, n, toy=toy),
                    spawn(workload, seed, n, traced=True, toy=toy,
                          spans_path=spans_path)]
        metrics = per_layer(*children)
    else:
        children = [spawn(workload, seed, n, toy=toy)]
        children += [spawn(workload, seed, 0, toy=toy)
                     for _ in range(SETUPS_PER_RUN - 1)]
        metrics = end_to_end(children[0], [c["setup_s"] for c in children])
    samples = [s for c in children for s in c["ops"]]
    failures = [f"op {s['op']}: {msg}" for s in samples
                for msg in s["failures"]]
    prints = [[s.get("fingerprint") for s in c["ops"]]
              for c in children if c["ops"]]
    if any(p != prints[0] for p in prints):
        # the traced and the untraced child simulate the same seeds
        failures.append("fingerprints differ between passes: tracing "
                        "changed what was simulated")
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "correct": not failures, "attempted": len(samples),
        "failed": sum(1 for s in samples if not s["ok"]),
        "failures": failures, "metrics": metrics,
        "fingerprints": prints[0] if prints else [],
        "children": children,
    }
