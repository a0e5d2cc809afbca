"""Agent-crash fault: kill (and optionally restart) telemetry state.

The whole host agent dies — sniffing stops, the in-memory record table
is lost.  ``stop`` restarts the agent
with an empty table (the real daemon's supervisor restart); telemetry
from before the crash is gone, which is exactly the evidence loss a
mid-diagnosis crash inflicts.
"""

from __future__ import annotations

from typing import Any

from .base import Fault, FaultContext, FaultError, FaultParam, FaultSpec, register_fault


@register_fault
class AgentCrashFault(Fault):
    """Crash a host agent mid-run."""

    spec = FaultSpec(
        name="agent-crash",
        summary="kill a host agent mid-run; stop= restarts it with an "
        "empty table",
        degrades="host evidence: every record the host held vanishes; "
        "diagnoses that needed its telemetry lose their witness",
        diagnosed_by="(none — a stressor; the analyzer sees a host with "
        "no matching records)",
        params={
            "host": FaultParam("", "the host whose agent crashes"),
        },
    )

    def __init__(self, **params: Any):
        super().__init__(**params)
        self.records_lost = 0

    def _agent(self, ctx: FaultContext) -> Any:
        deploy = ctx.require_deployment(self)
        name = self.p["host"]
        try:
            return deploy.host_agents[name]
        except KeyError:
            raise FaultError(
                f"agent-crash: unknown host {name!r}; known: "
                f"{', '.join(sorted(deploy.host_agents))}"
            ) from None

    def schedule(self, ctx: FaultContext) -> None:
        self._agent(ctx)  # an unknown host fails at schedule time
        super().schedule(ctx)

    def inject(self, ctx: FaultContext) -> None:
        self.records_lost = self._agent(ctx).crash()

    def heal(self, ctx: FaultContext) -> None:
        self._agent(ctx).restart()
