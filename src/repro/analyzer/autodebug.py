"""Automated debugging pipeline (§4.1.1's "real-time (potentially
automated) debugging of network problems").

The §5 walkthroughs have an operator in the loop; in a production
deployment alerts arrive continuously and must be triaged without one.
:class:`AutoDebugger` is that loop:

* **ingest** — plugs in as the trigger sink (in place of, or in front
  of, the raw analyzer queue);
* **dedup** — alerts for the same flow within a debounce window are one
  incident (a starving flow fires its trigger every refractory period);
* **dispatch** — picks the §5 application by alert kind and verdict:
  contention first; if culprits span multiple switches it upgrades the
  incident to red-lights; if the top culprit is itself mid-priority it
  runs the cascade walk;
* **report** — produces an :class:`Incident` with the verdict, the
  latency breakdown, and a rendered text summary for the operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..hostd.triggers import VictimAlert
from ..simnet.packet import FlowKey
from .analyzer import Analyzer
from .apps import Verdict, diagnose_cascade, diagnose_contention


@dataclass
class Incident:
    """One triaged and diagnosed network event."""

    incident_id: int
    first_alert: VictimAlert
    alerts: list[VictimAlert] = field(default_factory=list)
    verdict: Optional[Verdict] = None
    escalated_to: Optional[str] = None   # "red-lights" | "cascade"

    @property
    def flow(self) -> FlowKey:
        return self.first_alert.flow

    def render(self) -> str:
        """Operator-facing text summary."""
        lines = [
            f"incident #{self.incident_id}: {self.first_alert.kind} on "
            f"{self.flow.pretty()} at {self.first_alert.time * 1e3:.1f} ms",
            f"  alerts folded in: {len(self.alerts)}",
        ]
        if self.verdict is not None:
            v = self.verdict
            lines.append(f"  verdict: {v.problem} "
                         f"({v.total_time_s * 1e3:.1f} ms to diagnose)")
            lines.append(f"  {v.narrative}")
            for c in v.culprits:
                lines.append(f"    culprit {c.flow.pretty()} at "
                             f"{c.switch} (prio {c.priority})")
        if self.escalated_to:
            lines.append(f"  escalated to: {self.escalated_to}")
        return "\n".join(lines)


class AutoDebugger:  # reprolint: allow[test-only]
    """Continuous alert triage on top of an :class:`Analyzer`."""

    def __init__(self, analyzer: Analyzer, *,
                 debounce_s: float = 0.020,
                 cascade_priorities: bool = True):
        self.analyzer = analyzer
        self.debounce_s = debounce_s
        self.cascade_priorities = cascade_priorities
        self.incidents: list[Incident] = []
        self._open: dict[FlowKey, Incident] = {}
        self._next_id = 1

    # -- ingest -----------------------------------------------------------

    def ingest(self, alert: VictimAlert) -> Incident:
        """Trigger-sink entry point: fold or open an incident."""
        self.analyzer.ingest_alert(alert)  # keep the raw queue too
        open_incident = self._open.get(alert.flow)
        if (open_incident is not None
                and alert.time - open_incident.alerts[-1].time
                <= self.debounce_s):
            open_incident.alerts.append(alert)
            return open_incident
        incident = Incident(incident_id=self._next_id,
                            first_alert=alert, alerts=[alert])
        self._next_id += 1
        self.incidents.append(incident)
        self._open[alert.flow] = incident
        return incident

    # -- dispatch -----------------------------------------------------------

    def diagnose_all(self) -> list[Incident]:
        """Diagnose every incident that does not yet have a verdict."""
        for incident in self.incidents:
            if incident.verdict is None:
                self._diagnose(incident)
        return self.incidents

    def _diagnose(self, incident: Incident) -> None:
        verdict = diagnose_contention(self.analyzer,
                                      incident.first_alert)
        incident.verdict = verdict
        culprit_switches = {c.switch for c in verdict.culprits}
        if len(culprit_switches) > 1:
            incident.escalated_to = "red-lights"
        if self.cascade_priorities and verdict.culprits:
            # §5.3: a prioritized culprit may itself have been delayed
            # by a still-higher class — walk its path; keep the cascade
            # verdict only if the chain actually extends
            if any(c.priority > 0 for c in verdict.culprits):
                cascade = diagnose_cascade(self.analyzer,
                                           incident.first_alert)
                if len(cascade.cascade_chain) > 2:
                    incident.verdict = cascade
                    incident.escalated_to = "cascade"

    # -- reporting ----------------------------------------------------------

    def report(self) -> str:
        if not self.incidents:
            return "no incidents"
        return "\n\n".join(i.render() for i in self.incidents)
