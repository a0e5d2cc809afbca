"""OpenFlow rule-table model for telemetry embedding (§4.1.3).

The commodity design pays for embedding with flow rules:

* **linkID rules** — one per switch port (the rule matches the egress
  port and pushes the outer VLAN tag); grows linearly with port count.
* **epochID rule** — exactly one, rewritten every epoch to carry the
  new epochID in the inner tag.

The paper's Pica8 switch sustains a rule update every ~15 ms, which
lower-bounds α on commodity hardware; :data:`COMMODITY_MIN_ALPHA_MS`
encodes that limit and :class:`RuleTable` enforces/accounts it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Fastest observed flow-rule update on the paper's commodity OpenFlow
#: switch — the floor for α when VLAN embedding is used (§4.1.3).
COMMODITY_MIN_ALPHA_MS = 15.0


class RuleModelError(Exception):
    """Raised when a configuration violates the commodity-switch model."""


@dataclass
class FlowRule:
    """A single OpenFlow-style rule (match → action summary)."""

    match: str
    action: str


@dataclass
class RuleTable:
    """Embedding rules of one SwitchPointer switch."""

    switch_name: str
    port_count: int
    alpha_ms: float
    enforce_commodity_limit: bool = True
    epoch_rule: FlowRule = field(init=False)
    epoch_updates: int = 0

    def __post_init__(self) -> None:
        if self.port_count < 1:
            raise RuleModelError("switch needs at least one port")
        if (self.enforce_commodity_limit
                and self.alpha_ms < COMMODITY_MIN_ALPHA_MS):
            raise RuleModelError(
                f"alpha={self.alpha_ms} ms below the commodity rule-update "
                f"floor of {COMMODITY_MIN_ALPHA_MS} ms; use INT mode or a "
                f"larger epoch")
        self.epoch_rule = FlowRule(match="*",
                                   action="push_vlan(epoch_id=0)")

    @property
    def total_rules(self) -> int:
        """Rules consumed: ports (linkID, static, so only counted) + 1
        (epochID)."""
        return self.port_count + 1

    def advance_epoch(self, new_epoch: int) -> None:
        """Model the per-epoch rewrite of the epochID rule."""
        self.epoch_rule.action = f"push_vlan(epoch_id={new_epoch})"
        self.epoch_updates += 1

    def updates_per_second(self) -> float:
        """Sustained rule-update rate this table demands of the switch."""
        return 1000.0 / self.alpha_ms
