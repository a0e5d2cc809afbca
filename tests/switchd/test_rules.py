"""Unit tests for the OpenFlow rule-table model."""

import pytest

from repro.switchd.rules import (COMMODITY_MIN_ALPHA_MS, RuleModelError,
                                 RuleTable)


class TestRuleCounts:
    def test_one_link_rule_per_port_plus_epoch_rule(self):
        table = RuleTable(switch_name="S1", port_count=48, alpha_ms=20)
        assert table.total_rules == 49

    def test_rules_scale_linearly_with_ports(self):
        """§4.1.3: linkID rules grow linearly with port count."""
        counts = [RuleTable("S", p, 20).total_rules for p in (8, 16, 32)]
        assert counts == [9, 17, 33]

    def test_port_count_validated(self):
        with pytest.raises(RuleModelError):
            RuleTable(switch_name="S", port_count=0, alpha_ms=20)


class TestCommodityLimit:
    def test_alpha_below_floor_rejected(self):
        with pytest.raises(RuleModelError):
            RuleTable(switch_name="S", port_count=4, alpha_ms=10)

    def test_floor_value_matches_paper(self):
        assert COMMODITY_MIN_ALPHA_MS == 15.0
        RuleTable(switch_name="S", port_count=4, alpha_ms=15)  # ok

    def test_enforcement_can_be_disabled(self):
        table = RuleTable(switch_name="S", port_count=4, alpha_ms=5,
                          enforce_commodity_limit=False)
        assert table.alpha_ms == 5


class TestEpochUpdates:
    def test_advance_epoch_rewrites_rule(self):
        table = RuleTable(switch_name="S", port_count=4, alpha_ms=20)
        table.advance_epoch(7)
        assert "epoch_id=7" in table.epoch_rule.action
        assert table.epoch_updates == 1
        table.advance_epoch(8)
        assert table.epoch_updates == 2

    def test_updates_per_second(self):
        table = RuleTable(switch_name="S", port_count=4, alpha_ms=20)
        assert table.updates_per_second() == pytest.approx(50.0)
