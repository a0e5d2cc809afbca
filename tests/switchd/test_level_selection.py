"""Tests for §4.1.1's level-selection access pattern.

Recent epochs answer from level 1; recycled windows escalate to coarser
levels; ancient windows fall back to the pushed (offline) history.  A
level must never give a *partial* answer.
"""

import pytest

from repro.core.epoch import EpochRange
from repro.core.pointer import HierarchicalPointerStore
from repro.switchd.agent import RecycledEpochError, SwitchAgent


def agent_with_history(alpha=4, k=3, n=50):
    store = HierarchicalPointerStore(n, alpha=alpha, k=k)
    agent = SwitchAgent("S1", store)
    return agent, store


def best_effort_slots(agent, epoch_lo, epoch_hi):
    """The read's slot union plus its source label."""
    snaps, source = agent.best_effort_snapshots(epoch_lo, epoch_hi)
    return {slot for snap in snaps for slot in snap.slots()}, source


class TestLevelEscalation:
    def test_recent_epoch_served_from_level1(self):
        agent, store = agent_with_history()
        store.update(epoch=100, slot=7)
        slots, source = best_effort_slots(agent, 100, 100)
        assert slots == {7}
        assert source == "level1"

    def test_recycled_level1_escalates_to_level2(self):
        agent, store = agent_with_history(alpha=4, k=3)
        store.update(epoch=0, slot=7)
        # burn through level 1's four sets (epochs 1..4 reuse them) but
        # stay inside level 2's first window span (level-2 set covers
        # 4 epochs; its 4 sets span 16)
        for e in range(1, 6):
            store.update(epoch=e, slot=10 + e)
        assert store.snapshot(1, 0) is None  # level 1 recycled
        slots, source = best_effort_slots(agent, 0, 0)
        assert source == "level2"
        assert 7 in slots  # coarser answer still names the host

    def test_coarser_answer_is_superset(self):
        """Escalation may add hosts (coarser window) but never lose."""
        agent, store = agent_with_history(alpha=4, k=3)
        for e in range(6):
            store.update(epoch=e, slot=e)
        slots, source = best_effort_slots(agent, 0, 0)
        assert source == "level2"
        assert {0, 1, 2, 3} <= slots  # the whole level-2 window

    def test_ancient_window_falls_back_offline(self):
        agent, store = agent_with_history(alpha=4, k=2)
        store.update(epoch=0, slot=7)
        # move far beyond the top level's span (alpha^2 = 16 epochs)
        for e in range(1, 40):
            store.update(epoch=e, slot=1)
        slots, source = best_effort_slots(agent, 0, 0)
        assert source == "offline"
        assert 7 in slots

    def test_untouched_window_answers_empty_without_escalating(self):
        """A window that was never written is *legitimately* empty —
        "no packets forwarded" — and level 1 can say so directly."""
        agent, store = agent_with_history()
        store.update(epoch=5, slot=3)
        slots, source = best_effort_slots(agent, 500, 510)
        assert slots == set()
        assert source == "level1"

    def test_negative_epochs_are_empty(self):
        agent, store = agent_with_history()
        store.update(epoch=0, slot=3)
        slots, source = best_effort_slots(agent, -3, 0)
        assert slots == {3}
        assert source == "level1"

    def test_partial_level_coverage_escalates(self):
        """If level 1 retains only half the requested window, it must
        not answer — the full window comes from level 2."""
        agent, store = agent_with_history(alpha=4, k=3)
        store.update(epoch=0, slot=7)
        store.update(epoch=1, slot=8)
        # recycle epoch-0's set (epoch 4 maps to set 0) but keep epoch 1
        store.update(epoch=4, slot=9)
        assert store.snapshot(1, 0) is None
        assert store.snapshot(1, 1) is not None
        slots, source = best_effort_slots(agent, 0, 1)
        assert source == "level2"
        assert {7, 8} <= slots


class TestAnalyzerAutoLevel:
    def test_hosts_for_level_none(self):
        from repro import SwitchPointerDeployment
        from repro.simnet.packet import make_udp
        from repro.simnet.topology import build_linear

        net = build_linear(2, 2)
        deploy = SwitchPointerDeployment(net, alpha_ms=4, k=3,
                                         epsilon_ms=1, delta_ms=2)
        net.hosts["h1_0"].send(make_udp("h1_0", "h2_0", 1, 9, 400))
        # traffic through epochs 1..6 recycles level-1 window 0
        for i in range(1, 7):
            net.sim.schedule_at(i * 0.004 + 0.001,
                                lambda: net.hosts["h1_1"].send(
                                    make_udp("h1_1", "h2_1", 2, 9, 400)))
        net.run()
        # strict level-1 query lost epoch 0, and says so ...
        with pytest.raises(RecycledEpochError):
            deploy.analyzer.hosts_for("S1", EpochRange(0, 0), level=1)
        # ... the default read still answers from level 2
        assert "h2_0" in deploy.analyzer.hosts_for("S1", EpochRange(0, 0))
