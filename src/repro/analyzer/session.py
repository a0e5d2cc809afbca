"""Online diagnosis sessions (the ROADMAP "Online diagnosis" item).

The paper's production story is an *always-on* analyzer: triggers fire
mid-run and diagnosis races live network events.  A
:class:`DiagnosisSession` is the unit of that race — one trigger's
worth of incremental evidence gathering:

* While a session is **bound** (used as a context manager), the
  analyzer's RPC fabric charges every RPC's latency in simulated time,
  so ingestion, epoch rotation, and any still-scheduled faults proceed
  *while queries are in flight*.
* Host evidence arrives through **delta queries**: each round asks only
  for records updated since the host's previous answer (the
  ``since_seq`` watermark of
  :meth:`repro.hostd.query.QueryEngine.flows_matching`), and the
  session merges rounds by flow into a cumulative evidence map.
* Hosts that fail to answer a round — crashed agent, downed access
  link — are remembered as **missing**: the fabric times them out
  (bounded retry/backoff) and the session degrades the verdict instead
  of erroring.

The session finally **stamps** verdicts with one of three states:

``complete``
    every consulted host answered, and the session finished within its
    staleness budget;
``degraded``
    at least one consulted host never answered — ``missing_hosts``
    names the evidence gap;
``stale``
    all hosts answered, but the simulated time the diagnosis consumed
    exceeded ``stale_after_s`` — the verdict describes a network state
    older than the operator should trust.

Freshness — "ingest seq at verdict minus ingest seq at trigger" — and
the simulated diagnosis latency are both measured here and surfaced
through :class:`repro.scenarios.base.ScenarioResult`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from ..core.epoch import EpochRange
from ..hostd.agent import HostAgent
from ..hostd.query import FlowSummary, QueryResult
from ..rpc.fabric import Breakdown
from ..simnet.packet import FlowKey

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .analyzer import Analyzer
    from .apps import Verdict

STATUS_COMPLETE = "complete"
STATUS_DEGRADED = "degraded"
STATUS_STALE = "stale"

#: every state a session-stamped verdict can carry, in severity order
VERDICT_STATES = (STATUS_COMPLETE, STATUS_DEGRADED, STATUS_STALE)


class DiagnosisSession:
    """One trigger's resumable, incremental diagnosis.

    Create via :meth:`repro.analyzer.analyzer.Analyzer.open_session`;
    use as a context manager to bind the RPC fabric to simulated time
    for the session's duration::

        session = analyzer.open_session(stale_after_s=0.05)
        with session:
            verdict = diagnose_gray_failure_online(
                analyzer, flow, silence_epochs=window, session=session)
        assert verdict.status in VERDICT_STATES
    """

    def __init__(self, analyzer: "Analyzer", *,
                 stale_after_s: Optional[float] = None):
        self.analyzer = analyzer
        self.stale_after_s = stale_after_s
        self.started_at: float = analyzer.network.sim.now
        #: global decoded-ingest watermark when the trigger fired
        self.seq_at_trigger: int = analyzer.ingest_seq()
        #: hosts that failed to answer some round (evidence gaps)
        self.missing_hosts: set[str] = set()
        #: per-host ``since_seq`` watermark for the next delta round
        self._since: dict[str, int] = {}
        #: cumulative evidence: (host, flow) -> latest summary
        self._evidence: dict[tuple[str, FlowKey], FlowSummary] = {}
        self.delta_rounds = 0

    # -- simulated-time binding ------------------------------------------------

    def __enter__(self) -> "DiagnosisSession":
        self.bind()
        return self

    def __exit__(self, *exc: object) -> None:
        self.unbind()

    def bind(self) -> None:
        """Bind the analyzer's RPC fabric to simulated time."""
        a = self.analyzer
        a.rpc.bind(a.network.sim, hops_to=a.hops_to)

    def unbind(self) -> None:
        self.analyzer.rpc.bind(None)

    # -- bookkeeping -----------------------------------------------------------

    def note_round(self, requested: Sequence[str],
                   results: dict[str, QueryResult]) -> None:
        """Record one fan-out's outcome: watermarks + missing hosts.

        The analyzer calls this from :meth:`Analyzer.consult_hosts`
        whenever a session is attached, so *any* diagnosis routed
        through the session accumulates evidence-gap state, not just
        the explicit delta rounds.
        """
        for host in requested:
            if host not in results:
                self.missing_hosts.add(host)
        for host, res in results.items():
            if res.as_of_seq > self._since.get(host, -1):
                self._since[host] = res.as_of_seq

    # -- delta queries ---------------------------------------------------------

    def delta_flows(self, hosts: Sequence[str], switch: str,
                    epochs: Optional[EpochRange]
                    ) -> tuple[list[tuple[str, FlowSummary]], Breakdown]:
        """One incremental round of the (switchID, epochID) filter.

        Each host is asked only for records updated since its previous
        answer in this session; new summaries supersede older ones in
        the session's evidence map.  Returns the *cumulative* merged
        evidence — (host, summary) pairs — so calling this repeatedly
        while ingestion continues converges on exactly the one-shot
        answer at the final watermark.
        """
        self.delta_rounds += 1
        since = self._since

        def query(agent: HostAgent) -> QueryResult:
            return agent.query.flows_matching(
                switch, epochs, since_seq=since.get(agent.name))

        results, bd = self.analyzer.consult_hosts(hosts, query,
                                                  session=self)
        for host, res in results.items():
            for summary in res.payload:
                self._evidence[(host, summary.flow)] = summary
        merged = [(host, summary) for (host, _flow), summary
                  in sorted(self._evidence.items(), key=lambda kv: kv[0])]
        return merged, bd

    # -- outcome ---------------------------------------------------------------

    def status(self) -> str:
        if self.missing_hosts:
            return STATUS_DEGRADED
        if (self.stale_after_s is not None
                and self.analyzer.network.sim.now - self.started_at
                > self.stale_after_s):
            return STATUS_STALE
        return STATUS_COMPLETE

    def stamp(self, verdict: "Verdict") -> "Verdict":
        """Tag a verdict with the session's state and evidence gaps."""
        verdict.status = self.status()
        verdict.missing_hosts = sorted(self.missing_hosts)
        return verdict
