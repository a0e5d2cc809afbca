"""The traced pass: per-layer host time, attributed from outside.

Nothing under ``src/`` knows it is being traced.  :class:`Tracer`
replaces public callables of each layer with timing wrappers — class
attributes named in :data:`TABLE`, the four phase methods of every
registered scenario, every callable found in ``Switch.pipeline`` /
``Host.sniffers`` once a scenario has built its network, every socket
handler handed to ``Host.bind`` and every callback handed to the
simulator's scheduling calls — and removes them all again in
:meth:`Tracer.uninstall`.

A wrapper keeps a parent stack, so a layer's *self time* is its span
minus the spans of the layers it called.  Coarse calls (phases, build
steps, each query, each fan-out) are kept as individual spans — name,
layer, start, end, parent, op — for the JSONL dump; per-packet calls
are only aggregated as calls + self seconds per ``(layer, part, parent
layer)``, never one object per packet.

Names in :data:`TABLE` that no longer exist are skipped and listed in
:attr:`Tracer.missing`: a later change may delete a store backend or a
planner method, and the benchmark must keep running on it.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Any, Callable, Optional

#: layers whose callables are discovered at run time (event callbacks,
#: socket handlers, pipeline hooks, sniffers) are named from the module
#: that defines the callable; longest prefix wins
MODULE_LAYERS = {
    "repro.simnet.engine": "simnet.engine",
    "repro.simnet.topology": "simnet.topology",
    "repro.simnet.workload": "simnet.workload",
    "repro.simnet.traffic": "simnet.workload",
    "repro.simnet.tcp": "simnet.tcp",
    "repro.simnet": "simnet.fabric",       # device, link, queues, host
    "repro.switchd.datapath": "switchd.datapath",
    "repro.switchd.cherrypick": "switchd.cherrypick",
    "repro.switchd": "switchd.agent",
    "repro.hostd.triggers": "hostd.triggers",
    "repro.hostd.query": "hostd.query",
    "repro.hostd.decoder": "hostd.decoder",
    "repro.hostd.agent": "hostd.decoder",  # the sniffer-side buffer
    "repro.hostd": "hostd.store",
    "repro.core.mphf": "core.mphf",
    "repro.core": "core.pointer",
    "repro.directory": "core.pointer",
    "repro.rpc": "rpc.fabric",
    "repro.analyzer.session": "analyzer.session",
    "repro.analyzer": "analyzer",
    "repro.baselines": "analyzer",
    "repro.deployment": "deployment",
    "repro.scenarios": "scenarios",
    "repro.faults": "faults",
}


def layer_of_module(module: Optional[str]) -> str:
    name = module or ""
    while name:
        layer = MODULE_LAYERS.get(name)
        if layer is not None:
            return layer
        name = name.rpartition(".")[0]
    return "other"


# -- tallies: counts taken at the same boundary as the time -----------------

def _tally_len(counter: str) -> Callable:
    def tally(tr: "Tracer", args: tuple, result: Any) -> None:
        tr.count(counter, len(result))
    return tally


def _tally_locate(tr: "Tracer", args: tuple, result: Any) -> None:
    for entry in result[0]:
        tr.count("analyzer.hosts_kept", len(entry.hosts))
        tr.count("analyzer.hosts_pruned", len(entry.pruned))


def _tally_fanout(tr: "Tracer", args: tuple, result: Any) -> None:
    tr.count("rpc.fabric.servers_asked", len(args[1]))


def _tally_query(tr: "Tracer", args: tuple, result: Any) -> None:
    tr.count("hostd.query.records_scanned", result.records_scanned)
    payload = result.payload
    tr.count("hostd.query.rows_returned",
             len(payload) if hasattr(payload, "__len__") else 1)


def _tally_keep(kind: str) -> Callable:
    """Remember the object so the runner can read its counters later."""
    def tally(tr: "Tracer", args: tuple, result: Any) -> None:
        tr.objects.setdefault(kind, []).append(
            args[0] if result is None else result)
    return tally


SPAN, AGG = True, False

#: (module, qualified name, layer, part, keep individual spans, tally)
TABLE: list[tuple[str, str, str, str, bool, Optional[Callable]]] = [
    ("repro.scenarios.base", "Scenario.execute",
     "scenarios", "self", SPAN, None),
    *[("repro.simnet.topology", fn, "simnet.topology", "build", SPAN, None)
      for fn in ("build_star", "build_linear", "build_leaf_spine",
                 "build_fat_tree", "build_fat_tree_for_hosts")],
    ("repro.simnet.topology", "Network.compute_routes",
     "simnet.topology", "routes", SPAN, None),
    ("repro.simnet.topology", "Network.shortest_paths",
     "simnet.topology", "shortest_paths", AGG, None),
    ("repro.core.mphf", "HostDirectory.__init__",
     "core.mphf", "build", SPAN, None),
    ("repro.core.mphf", "HostDirectory.hosts_of",
     "core.mphf", "decode", AGG, _tally_len("core.mphf.decode_slots")),
    ("repro.deployment", "SwitchPointerDeployment.__init__",
     "deployment", "wire", SPAN, None),
    ("repro.simnet.workload", "WorkloadGenerator.launch",
     "simnet.workload", "plan", SPAN, _tally_keep("background")),
    ("repro.simnet.engine", "Simulator.run",
     "simnet.engine", "self", AGG, None),
    ("repro.simnet.device", "Switch.forward",
     "simnet.fabric", "self", AGG, None),
    ("repro.simnet.link", "Interface.send",
     "simnet.fabric", "self", AGG, None),
    ("repro.simnet.host", "Host.receive",
     "simnet.fabric", "self", AGG, None),
    ("repro.simnet.tcp", "TcpSender.__init__",
     "simnet.tcp", "self", AGG, _tally_keep("tcp_senders")),
    *[("repro.switchd.cherrypick", f"CherryPickPlanner.{m}",
       "switchd.cherrypick", "self", AGG, None)
      for m in ("pins_path", "reconstruct_path", "switch_path",
                "embedding_hop")],
    ("repro.core.pointer", "HierarchicalPointerStore.update",
     "core.pointer", "update", AGG, None),
    ("repro.core.pointer", "HierarchicalPointerStore.snapshots_covering",
     "core.pointer", "snapshot", AGG, None),
    ("repro.core.pointer", "PointerSnapshot.slots",
     "core.pointer", "slots", AGG, None),
    *[("repro.switchd.agent", f"SwitchAgent.{m}",
       "switchd.agent", "pull", AGG, None)
      for m in ("pull", "best_effort_snapshots", "offline_snapshots")],
    ("repro.hostd.decoder", "TelemetryDecoder.on_packet",
     "hostd.decoder", "self", AGG, None),
    ("repro.hostd.decoder", "TelemetryDecoder.flush_batch",
     "hostd.decoder", "self", AGG, None),
    ("repro.hostd.triggers", "ThroughputDropTrigger.on_packet",
     "hostd.triggers", "self", AGG, None),
    *[(f"repro.hostd.{module}", f"{cls}.{m}", "hostd.store",
       "scan" if m.endswith("_through") else "ingest", AGG, None)
      for module, cls, methods in (
          ("records", "FlowRecordStore",
           "ingest end_batch scan_through flows_through"),
          ("sharded", "ShardedRecordStore",
           "ingest end_batch scan_through flows_through topk_through"),
          ("columnar", "ColumnarRecordStore",
           "ingest ingest_batch apply_groups end_batch scan_through "
           "flows_through topk_through"))
      for m in methods.split()],
    *[("repro.hostd.query", f"QueryEngine.{m}",
       "hostd.query", "self", AGG, _tally_query)
      for m in ("top_k_flows", "flows_matching", "flow_details",
                "flow_size_distribution", "all_flows")],
    ("repro.analyzer.analyzer", "Analyzer.ingest_alert",
     "hostd.triggers", "alert", AGG, None),
    ("repro.rpc.fabric", "RpcFabric.fanout_query",
     "rpc.fabric", "fanout", SPAN, _tally_fanout),
    ("repro.rpc.fabric", "RpcFabric.pointer_pull_cost",
     "rpc.fabric", "cost", AGG, None),
    ("repro.rpc.fabric", "RpcFabric.alert_cost",
     "rpc.fabric", "cost", AGG, None),
    ("repro.analyzer.analyzer", "Analyzer.hosts_for",
     "analyzer", "hosts_for", SPAN, None),
    ("repro.analyzer.analyzer", "Analyzer.locate_relevant_hosts",
     "analyzer", "prune", SPAN, _tally_locate),
    ("repro.analyzer.analyzer", "Analyzer.consult_hosts",
     "analyzer", "consult", SPAN, None),
    ("repro.baselines.pathdump", "top_k_with_switchpointer",
     "analyzer", "apps", SPAN, None),
    ("repro.analyzer.session", "DiagnosisSession.delta_flows",
     "analyzer.session", "self", SPAN, None),
]

#: every ``diagnose_*`` function of this module is an analyzer app
APPS_MODULE = "repro.analyzer.apps"
PHASES = ("build", "run", "collect", "diagnose")


class _Hook:
    """A timed stand-in for one pipeline hook or sniffer.

    Compares equal to the callable it wraps: the owner of a hook takes
    it out again with ``list.remove(original)`` (partial deployment,
    agent crash), and that has to keep working while traced.
    """

    __slots__ = ("fn", "call")

    def __init__(self, fn: Callable, call: Callable):
        self.fn = fn
        self.call = call

    def __call__(self, *args: Any) -> Any:
        return self.call(*args)

    def __eq__(self, other: object) -> bool:
        return other is self or other == self.fn

    def __hash__(self) -> int:
        return hash(self.fn)


class Tracer:
    """Installs, times and removes the wrappers of one traced process."""

    def __init__(self) -> None:
        #: open frames, innermost last: [layer, seconds in children, span]
        self.stack: list[list] = [["idle", 0.0, -1]]
        #: (layer, part, parent layer) -> [calls, self seconds]
        self.agg: dict[tuple[str, str, str], list] = {}
        self.counts: dict[str, float] = {}
        #: [name, layer, start, end, parent span, op]
        self.spans: list[list] = []
        self.objects: dict[str, list] = {}
        self.op = -1
        self.missing: list[str] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self._layer_cache: dict[Any, str] = {}

    # -- accounting ----------------------------------------------------------

    def count(self, counter: str, n: float) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + n

    def _leave(self, frame: list, layer: str, part: str,
               dur: float) -> None:
        stack = self.stack
        stack.pop()
        parent = stack[-1]
        parent[1] += dur
        key = (layer, part, parent[0])
        cell = self.agg.get(key)
        if cell is None:
            self.agg[key] = [1, dur - frame[1]]
        else:
            cell[0] += 1
            cell[1] += dur - frame[1]

    def timed(self, fn: Callable, layer: str, part: str = "self", *,
              name: Optional[str] = None,
              tally: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a timer; ``name`` keeps each call as a span."""
        stack, spans, leave = self.stack, self.spans, self._leave
        perf = time.perf_counter

        if name is None:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if self.op < 0:
                    return fn(*args, **kwargs)
                frame = [layer, 0.0, stack[-1][2]]
                stack.append(frame)
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(frame, layer, part, perf() - t0)
                if tally is not None:
                    tally(self, args, result)
                return result
        else:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if self.op < 0:
                    return fn(*args, **kwargs)
                span = [name, layer, 0.0, 0.0, stack[-1][2], self.op]
                frame = [layer, 0.0, len(spans)]
                spans.append(span)
                stack.append(frame)
                t0 = span[2] = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = span[3] = perf()
                    leave(frame, layer, part, t1 - t0)
                if tally is not None:
                    tally(self, args, result)
                return result

        wrapper.ledger_layer = layer  # type: ignore[attr-defined]
        return wrapper

    def _layer_of(self, fn: Callable) -> str:
        func = getattr(fn, "__func__", fn)
        layer = self._layer_cache.get(func)
        if layer is None:
            layer = self._layer_cache[func] = (
                getattr(func, "ledger_layer", None)
                or layer_of_module(getattr(func, "__module__", None)))
        return layer

    def _dispatch(self, pair: tuple) -> None:
        """Run one ``call_after``/``call_at`` event under its layer."""
        self._dispatch_handle(pair[0], pair[1:], {})

    def _dispatch_handle(self, fn: Callable, args: tuple,
                         kwargs: dict) -> None:
        """Run one ``schedule``/``schedule_at`` event under its layer."""
        if self.op < 0:
            fn(*args, **kwargs)
            return
        layer = self._layer_of(fn)
        stack = self.stack
        frame = [layer, 0.0, stack[-1][2]]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            fn(*args, **kwargs)
        finally:
            self._leave(frame, layer, "self", time.perf_counter() - t0)

    # -- one op --------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.objects.clear()
        self.spans.append(["op", "op", 0.0, 0.0, -1, op])
        self.stack.append(["op", 0.0, len(self.spans) - 1])
        self.spans[-1][2] = time.perf_counter()

    def end_op(self) -> None:
        t1 = time.perf_counter()
        frame = self.stack[-1]
        span = self.spans[frame[2]]
        span[3] = t1
        self._leave(frame, "op", "self", t1 - span[2])
        self.op = -1

    # -- install / uninstall -------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module: Any, attr: str, wrapped: Any) -> None:
        """Replace a module-level function wherever ``repro`` bound it
        (``from .topology import build_leaf_spine`` copies the name)."""
        original = module.__dict__[attr]
        for name, mod in list(sys.modules.items()):
            if mod is None or not name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def install(self) -> None:
        for module_name, qualname, layer, part, keep, tally in TABLE:
            try:
                module = importlib.import_module(module_name)
                owner: Any = module
                *path, attr = qualname.split(".")
                for step in path:
                    owner = getattr(owner, step)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{qualname}")
                continue
            wrapped = self.timed(original, layer, part,
                                 name=qualname if keep else None,
                                 tally=tally)
            if owner is module:
                self._patch_function(module, attr, wrapped)
            else:
                self._set(owner, attr, wrapped)
        self._install_apps()
        self._install_scenarios()
        self._install_dynamic()

    def _install_apps(self) -> None:
        apps = importlib.import_module(APPS_MODULE)
        for attr, fn in list(vars(apps).items()):
            if attr.startswith("diagnose_") and callable(fn):
                self._patch_function(apps, attr, self.timed(
                    fn, "analyzer", "apps", name=attr))

    def _install_scenarios(self) -> None:
        """Time the four phases of every registered scenario class, and
        wrap the hooks a build leaves in pipelines and sniffer lists."""
        from repro.scenarios import REGISTRY, Scenario

        # the cost of wrapping the hooks is charged to the trace layer
        wrap_hooks = self.timed(self._wrap_hooks, "trace")
        seen: set[type] = set()
        for name in REGISTRY.names():
            for cls in REGISTRY.get(name).__mro__:
                if cls in seen or not (isinstance(cls, type)
                                       and issubclass(cls, Scenario)):
                    continue
                seen.add(cls)
                for phase in PHASES:
                    fn = cls.__dict__.get(phase)
                    if fn is None or getattr(fn, "__isabstractmethod__",
                                             False):
                        continue
                    timed = self.timed(fn, "scenarios", "self",
                                       name=f"{cls.__name__}.{phase}")
                    if phase == "build":
                        timed = self._then_wrap_hooks(timed, wrap_hooks)
                    self._set(cls, phase, timed)

    @staticmethod
    def _then_wrap_hooks(build: Callable, wrap_hooks: Callable) -> Callable:
        def traced_build(scenario: Any) -> None:
            build(scenario)
            if scenario.network is not None:
                wrap_hooks(scenario.network)
        return traced_build

    def _wrap_hooks(self, network: Any) -> None:
        """Time every pipeline hook and sniffer of a built network."""
        if self.op < 0:
            return
        for node in (*network.switches.values(), *network.hosts.values()):
            hooks = getattr(node, "pipeline", None)
            if hooks is None:
                hooks = node.sniffers
            for i, hook in enumerate(hooks):
                # a hook that is a method from TABLE is timed already
                if not (isinstance(hook, _Hook) or hasattr(
                        getattr(hook, "__func__", hook), "ledger_layer")):
                    hooks[i] = _Hook(hook, self.timed(
                        hook, self._layer_of(hook)))

    def _install_dynamic(self) -> None:
        """Callbacks handed to the simulator and to ``Host.bind`` run
        under the layer of the module that defines them."""
        from repro.simnet.engine import Simulator
        from repro.simnet.host import Host

        call_after = Simulator.__dict__["call_after"]
        call_at = Simulator.__dict__["call_at"]
        schedule_at = Simulator.__dict__["schedule_at"]
        bind = Host.__dict__["bind"]
        dispatch, dispatch_handle = self._dispatch, self._dispatch_handle

        def traced_call_after(sim: Any, delay: float, fn: Callable,
                              arg: Any = None) -> None:
            call_after(sim, delay, dispatch, (fn, arg))

        def traced_call_at(sim: Any, when: float, fn: Callable,
                           arg: Any = None) -> None:
            call_at(sim, when, dispatch, (fn, arg))

        def traced_schedule_at(sim: Any, when: float, fn: Callable,
                               *args: Any, **kwargs: Any) -> Any:
            return schedule_at(sim, when, dispatch_handle, fn, args, kwargs)

        def traced_bind(host: Any, proto: int, port: int,
                        handler: Callable) -> None:
            bind(host, proto, port,
                 self.timed(handler, self._layer_of(handler)))

        self._set(Simulator, "call_after", traced_call_after)
        self._set(Simulator, "call_at", traced_call_at)
        self._set(Simulator, "schedule_at", traced_schedule_at)
        self._set(Host, "bind", traced_bind)

    def uninstall(self) -> None:
        """Put every replaced attribute back (hooks inside networks that
        were built while traced die with those networks)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def _by_layer(self, column: int) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for (layer, part, _parent), cell in self.agg.items():
            parts = out.setdefault(layer, {})
            parts[part] = parts.get(part, 0) + cell[column]
        return out

    def calls(self) -> dict[str, dict[str, float]]:
        """layer -> part -> calls, summed over parents."""
        return self._by_layer(0)

    def self_seconds(self) -> dict[str, dict[str, float]]:
        """layer -> part -> self seconds, summed over parents."""
        return self._by_layer(1)

    def edges(self) -> list[dict]:
        """Who called whom, for the trace file."""
        return [{"layer": layer, "part": part, "parent": parent,
                 "calls": calls, "self_s": secs}
                for (layer, part, parent), (calls, secs)
                in sorted(self.agg.items())]

    def write_jsonl(self, path: Any) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, layer, start, end, parent, op) in \
                    enumerate(self.spans):
                out.write(json.dumps(
                    {"span": i, "name": name, "layer": layer,
                     "start": start, "end": end, "parent": parent,
                     "op": op}) + "\n")
            for edge in self.edges():
                out.write(json.dumps(edge) + "\n")
