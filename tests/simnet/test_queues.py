"""Unit tests for queueing disciplines."""

import pytest

from repro.simnet.packet import PRIO_HIGH, PRIO_LOW, PRIO_MEDIUM, make_udp
from repro.simnet.queues import DropTailFIFO, StrictPriorityQueue


def pkt(size=100, priority=PRIO_LOW, tag=0):
    return make_udp("a", "b", tag, 2, size, priority=priority)


class TestDropTailFIFO:
    def test_fifo_order(self):
        q = DropTailFIFO()
        first, second = pkt(tag=1), pkt(tag=2)
        q.enqueue(first)
        q.enqueue(second)
        assert q.dequeue() is first
        assert q.dequeue() is second
        assert q.dequeue() is None

    def test_tail_drop_on_byte_overflow(self):
        q = DropTailFIFO(capacity_bytes=250)
        assert q.enqueue(pkt(100))
        assert q.enqueue(pkt(100))
        assert not q.enqueue(pkt(100))  # 300 > 250
        assert q.stats.dropped == 1
        assert q.stats.bytes_dropped == 100

    def test_depth_bytes_tracks_occupancy(self):
        q = DropTailFIFO()
        q.enqueue(pkt(100))
        q.enqueue(pkt(50))
        assert q.depth_bytes == 150
        q.dequeue()
        assert q.depth_bytes == 50

    def test_max_depth_recorded(self):
        q = DropTailFIFO()
        q.enqueue(pkt(100))
        q.enqueue(pkt(100))
        q.dequeue()
        assert q.stats.max_depth_bytes == 200

    def test_len_and_bool(self):
        q = DropTailFIFO()
        assert not q
        q.enqueue(pkt())
        assert q and len(q) == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DropTailFIFO(capacity_bytes=0)

    @pytest.mark.parametrize("capacity", [float("nan"), float("inf")])
    @pytest.mark.parametrize("discipline", [DropTailFIFO,
                                            StrictPriorityQueue])
    def test_non_finite_capacity_is_rejected(self, discipline, capacity):
        # a NaN capacity used to compare false against every depth and
        # admit without bound
        with pytest.raises(ValueError, match="capacity_bytes"):
            discipline(capacity_bytes=capacity)

    def test_exact_fit_admitted(self):
        q = DropTailFIFO(capacity_bytes=100)
        assert q.enqueue(pkt(100))
        assert not q.enqueue(pkt(1))

    def test_stats_snapshot(self):
        q = DropTailFIFO()
        q.enqueue(pkt(100))
        q.dequeue()
        stats = q.stats
        assert stats.enqueued == 1
        assert stats.dequeued == 1
        assert stats.bytes_enqueued == 100


class TestStrictPriorityQueue:
    def test_high_priority_served_first(self):
        q = StrictPriorityQueue(levels=3)
        low = pkt(priority=PRIO_LOW, tag=1)
        high = pkt(priority=PRIO_HIGH, tag=2)
        q.enqueue(low)
        q.enqueue(high)
        assert q.dequeue() is high
        assert q.dequeue() is low

    def test_fifo_within_class(self):
        q = StrictPriorityQueue(levels=3)
        a, b = pkt(priority=PRIO_HIGH, tag=1), pkt(priority=PRIO_HIGH, tag=2)
        q.enqueue(a)
        q.enqueue(b)
        assert q.dequeue() is a
        assert q.dequeue() is b

    def test_starvation_of_low_priority(self):
        """The Fig 2(a) mechanism: low waits as long as high keeps coming."""
        q = StrictPriorityQueue(levels=3)
        low = pkt(priority=PRIO_LOW, tag=99)
        q.enqueue(low)
        for i in range(10):
            q.enqueue(pkt(priority=PRIO_HIGH, tag=i))
        served = [q.dequeue() for _ in range(10)]
        assert low not in served
        assert q.dequeue() is low

    def test_three_levels_ordered(self):
        q = StrictPriorityQueue(levels=3)
        lo = pkt(priority=PRIO_LOW)
        mid = pkt(priority=PRIO_MEDIUM)
        hi = pkt(priority=PRIO_HIGH)
        for p in (lo, mid, hi):
            q.enqueue(p)
        assert [q.dequeue() for _ in range(3)] == [hi, mid, lo]

    def test_shared_byte_budget_across_classes(self):
        q = StrictPriorityQueue(levels=3, capacity_bytes=150)
        assert q.enqueue(pkt(100, priority=PRIO_LOW))
        assert not q.enqueue(pkt(100, priority=PRIO_HIGH))
        assert q.stats.dropped == 1

    def test_out_of_range_priority_clamped(self):
        q = StrictPriorityQueue(levels=2)
        weird = pkt(priority=7)
        q.enqueue(weird)
        assert q.dequeue() is weird
        negative = pkt(priority=-1)
        q.enqueue(negative)
        assert q.dequeue() is negative

    def test_needs_at_least_one_level(self):
        with pytest.raises(ValueError):
            StrictPriorityQueue(levels=0)

    def test_empty_dequeue_returns_none(self):
        assert StrictPriorityQueue().dequeue() is None
