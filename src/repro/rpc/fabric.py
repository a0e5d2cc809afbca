"""Simulated control-plane RPC fabric with a calibrated latency model.

The paper's control plane is flask-over-HTTP; its measured latencies
(Figs 7, 8, 12) are dominated by **on-demand connection initiation**:
"the analyzer creates one thread per server to initiate connection when
a query should be executed.  This on-demand thread creation delays the
execution of query at servers" (§6.2).  That serialized per-server setup
is why both PathDump's and SwitchPointer's response times grow linearly
with the number of servers contacted — and why SwitchPointer wins by
contacting only the *relevant* servers.

:class:`LatencyModel` carries the constants, calibrated to the paper's
reported numbers:

* problem detection ≲ 1 ms (the 1 ms trigger window),
* alert + acknowledgment: 2–3 ms,
* pointer retrieval: 7–8 ms per switch,
* per-server connection initiation: ~3.3 ms (0.32 s / 96 servers),
* query execution & response: ~1 ms each plus per-record scan time.

:class:`RpcFabric` composes them the way the implementation would:
connection setups serialize on the analyzer; request/execute/response
run in parallel across servers once their connections exist.  A
``pooled`` flag models the §6.2 thread-pool optimization.

**Simulated time.**  By default the fabric is pure accounting: it
computes latencies but the simulator clock never moves (the historical
post-mortem mode, where diagnosis happens outside simulated time).
:meth:`RpcFabric.bind` attaches a simulator; from then on every RPC
*charges its latency in simulated time* — the clock advances through
each phase, pending events (ingestion, epoch rotation, scheduled
faults) fire while queries are in flight, and diagnosis genuinely
races the network.  An optional per-server hop counter adds a
topology-path-derived wire cost (``per_hop_s`` per hop) on top of the
flat constants.

**Partial answers.**  A bound fabric may also be given a
``responsive`` predicate per fan-out: servers that fail it (crashed
agent, downed access link) never answer.  Each such server burns
``timeout_s`` per attempt across ``1 + retries`` attempts with
exponential backoff between them — concurrent with the responsive
servers' execution — and is simply *absent* from the result dict, so
callers get a partial answer (and can name the evidence gap) instead
of a hang.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from ..hostd.query import QueryResult
from ..simnet.engine import Simulator


@dataclass(frozen=True)
class LatencyModel:
    """Constants of the control-plane cost model (seconds)."""

    connection_init_s: float = 3.3e-3   # per server, serialized (§6.2)
    pooled_dispatch_s: float = 0.15e-3  # per server with a thread pool
    alert_rtt_s: float = 2.5e-3         # host alert -> analyzer ack (§5.1)
    pointer_pull_s: float = 7.5e-3      # per switch pointer retrieval (§5.1)
    request_s: float = 0.8e-3           # query request wire time
    exec_base_s: float = 0.9e-3         # query execution, fixed part
    per_record_s: float = 4e-6          # query execution, per record scanned
    response_s: float = 0.8e-3          # response wire time
    per_hop_s: float = 5e-5             # wire cost per topology hop traversed
    timeout_s: float = 20e-3            # per-attempt wait on a silent server
    retries: int = 2                    # re-attempts after the first timeout
    backoff_s: float = 5e-3             # backoff before the first retry
    backoff_factor: float = 2.0         # exponential backoff growth

    def with_extra(self, extra_s: float) -> "LatencyModel":
        """A copy with ``extra_s`` added to every per-RPC wire constant.

        This is what the ``rpc_latency_ms`` scenario knob (and the
        ``rpc-latency`` sweep axis behind it) scales: each pointer
        pull, each fan-out request, and the alert RTT get the same
        additive slowdown, modelling a congested or distant control
        network without touching the per-record execution costs.
        """
        if not math.isfinite(extra_s):
            raise ValueError(
                f"extra RPC latency must be finite, got {extra_s!r}")
        if extra_s < 0:
            raise ValueError("extra RPC latency cannot be negative")
        if extra_s == 0:
            return self
        return replace(
            self,
            alert_rtt_s=self.alert_rtt_s + extra_s,
            pointer_pull_s=self.pointer_pull_s + extra_s,
            request_s=self.request_s + extra_s,
        )


@dataclass
class Breakdown:
    """Accumulated latency by phase (the Fig 7 / Fig 12 bar segments)."""

    parts: dict[str, float] = field(default_factory=dict)

    def add(self, phase: str, seconds: float) -> None:
        self.parts[phase] = self.parts.get(phase, 0.0) + seconds

    @property
    def total(self) -> float:
        return sum(self.parts.values())

    def merged(self, other: "Breakdown") -> "Breakdown":
        out = Breakdown(dict(self.parts))
        for phase, s in other.parts.items():
            out.add(phase, s)
        return out


class RpcFabric:
    """Latency-accounted RPC between analyzer, switches, and hosts.

    Fan-out setup reproduces the paper's §6.2 one-thread-per-server
    on-demand behaviour (and its linear response-time growth);
    ``pooled`` models the thread-pool optimization with a flat, cheap
    per-server dispatch.
    """

    def __init__(self, model: Optional[LatencyModel] = None, *,
                 pooled: bool = False):
        self.model = model if model is not None else LatencyModel()
        self.pooled = pooled
        self.calls = 0
        #: fan-out targets that never answered (cumulative)
        self.timeouts = 0
        #: attempts burned on unresponsive servers (cumulative)
        self.attempts_wasted = 0
        self._sim: Optional[Simulator] = None
        self._hops_to: Optional[Callable[[str], int]] = None

    # -- simulated-time binding -----------------------------------------------

    def bind(self, sim: Optional[Simulator], *,
             hops_to: Optional[Callable[[str], int]] = None) -> None:
        """Charge all subsequent RPC latency in simulated time.

        ``hops_to`` maps a server name to its topology hop count from
        the analyzer site; each RPC to that server pays
        ``hops * per_hop_s`` of extra wire time.  ``bind(None)``
        returns the fabric to pure accounting.
        """
        self._sim = sim
        self._hops_to = hops_to if sim is not None else None

    def _advance(self, seconds: float) -> None:
        """Consume ``seconds`` of simulated time (pending events fire)."""
        if self._sim is not None and seconds > 0:
            self._sim.run(until=self._sim.now + seconds)

    def _hop_cost(self, server: str) -> float:
        if self._hops_to is None:
            return 0.0
        return self._hops_to(server) * self.model.per_hop_s

    def timeout_retry_cost(self) -> float:
        """Time one unresponsive server burns before being given up on.

        ``1 + retries`` attempts of ``timeout_s`` each, separated by
        exponentially growing backoff — the bound that keeps a retry
        storm finite: however many servers are down, each costs exactly
        this much (and they all wait concurrently).
        """
        m = self.model
        total = (1 + m.retries) * m.timeout_s
        total += sum(m.backoff_s * (m.backoff_factor ** i)
                     for i in range(m.retries))
        return total

    # -- elementary costs -----------------------------------------------------

    def alert_cost(self) -> float:
        """Host → analyzer alert plus acknowledgment."""
        self.calls += 1
        cost = self.model.alert_rtt_s
        self._advance(cost)
        return cost

    def pointer_pull_cost(self, n_switches: int) -> float:
        """Retrieve pointers from ``n_switches`` (sequential pulls)."""
        if n_switches < 0:
            raise ValueError("switch count cannot be negative")
        self.calls += n_switches
        cost = n_switches * self.model.pointer_pull_s
        self._advance(cost)
        return cost

    def _setup_cost(self, n_servers: int) -> float:
        if self.pooled:
            return n_servers * self.model.pooled_dispatch_s
        return n_servers * self.model.connection_init_s

    # -- fan-out query --------------------------------------------------------

    def fanout_query(self, servers: Sequence[str],
                     execute: Callable[[str], QueryResult],
                     *,
                     responsive: Optional[Callable[[str], bool]] = None
                     ) -> tuple[dict[str, QueryResult], Breakdown]:
        """Run ``execute(server)`` on every server, with the §6.2 model.

        Connection initiations serialize on the analyzer, one server at
        a time; request, execution and response then proceed in
        parallel across servers (total = slowest server).  Returns
        per-server results plus the latency breakdown in the Fig 12
        categories.

        With a ``responsive`` predicate, servers failing it when the
        request lands never execute: each burns the timeout/retry
        budget (``timeout_retry`` phase, concurrent with the live
        servers' execution) and is absent from the result dict — a
        partial answer, never a hang.  When the fabric is sim-bound the
        clock advances through setup and request *before* the predicate
        is evaluated and queries run, so answers reflect the network as
        it is when the request arrives, not when it was issued.
        """
        bd = Breakdown()
        results: dict[str, QueryResult] = {}
        if not servers:
            return results, bd
        self.calls += len(servers)
        setup = self._setup_cost(len(servers))
        bd.add("connection_initiation", setup)
        self._advance(setup)
        bd.add("request", self.model.request_s)
        self._advance(self.model.request_s)
        slowest_exec = 0.0
        slowest_dead = 0.0
        for server in servers:
            hop_cost = self._hop_cost(server)
            if responsive is not None and not responsive(server):
                self.timeouts += 1
                self.attempts_wasted += 1 + self.model.retries
                slowest_dead = max(slowest_dead,
                                   hop_cost + self.timeout_retry_cost())
                continue
            res = execute(server)
            results[server] = res
            cost = (self.model.exec_base_s
                    + res.records_scanned * self.model.per_record_s
                    + hop_cost)
            slowest_exec = max(slowest_exec, cost)
        bd.add("query_execution", slowest_exec)
        bd.add("response", self.model.response_s)
        tail = slowest_exec + self.model.response_s
        if slowest_dead > tail:
            # the dead servers' timeout clock outlives the live answers
            bd.add("timeout_retry", slowest_dead - tail)
        self._advance(max(tail, slowest_dead))
        return results, bd
