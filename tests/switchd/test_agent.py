"""Unit tests for the switch control-plane agent."""

import pytest

from repro.core.pointer import HierarchicalPointerStore
from repro.switchd.agent import RecycledEpochError, SwitchAgent


def make_agent(alpha=10, k=2, n=50):
    store = HierarchicalPointerStore(n, alpha=alpha, k=k)
    agent = SwitchAgent("S1", store)
    return agent, store


class TestPullApi:
    def test_pull_returns_covering_snapshots(self):
        agent, store = make_agent()
        store.update(epoch=3, slot=7)
        store.update(epoch=4, slot=9)
        snaps = agent.pull(level=1, epoch_lo=3, epoch_hi=4)
        assert [s.segment for s in snaps] == [3, 4]
        assert agent.pull_requests == 1

    def test_pull_empty_window(self):
        agent, _ = make_agent()
        assert agent.pull(level=1, epoch_lo=0, epoch_hi=5) == []

    def test_pull_raises_on_recycled_epoch(self):
        """A reused set is data loss, not "no hosts": the fixed-level
        read says so instead of answering ``[]``."""
        agent, store = make_agent(alpha=10, k=2)
        store.update(epoch=0, slot=7)
        store.update(epoch=10, slot=9)  # reuses epoch 0's level-1 set
        with pytest.raises(RecycledEpochError, match="level 1"):
            agent.pull(level=1, epoch_lo=0, epoch_hi=0)
        assert [s.segment for s in agent.pull(1, 10, 10)] == [10]

    @pytest.mark.parametrize("level", [0, -1, 3])
    def test_pull_rejects_levels_outside_the_hierarchy(self, level):
        agent, store = make_agent(alpha=10, k=2)
        store.update(epoch=0, slot=7)
        with pytest.raises(ValueError, match=r"outside \[1, 2\]"):
            agent.pull(level, 0, 0)

    def test_one_request_per_read_even_when_escalating(self):
        agent, store = make_agent(alpha=10, k=2)
        store.update(epoch=0, slot=7)
        for e in range(1, 30):  # recycles both levels' epoch-0 sets
            store.update(epoch=e, slot=9)
        snaps, source = agent.best_effort_snapshots(0, 0)
        assert source == "offline"
        assert agent.pull_requests == 1


class TestPushModel:
    def test_pushes_recorded_with_bandwidth(self):
        agent, store = make_agent(alpha=10, k=2, n=80)
        # top window = 10 epochs; cross two boundaries
        for e in range(25):
            store.update(epoch=e, slot=e % 80)
        assert len(agent.pushed_history) == 2
        assert agent.bytes_pushed == 2 * 10  # 80 bits -> 10 bytes each

    def test_pushed_history_answers_recycled_window(self):
        agent, store = make_agent(alpha=10, k=2)
        for e in range(10):
            store.update(epoch=e, slot=e)
        store.update(epoch=10, slot=42)  # pushes window 0
        snaps, source = agent.best_effort_snapshots(0, 9)
        assert source == "offline"
        assert set(snaps[0].slots()) == set(range(10))
        assert agent.best_effort_snapshots(20, 30)[0] == []
