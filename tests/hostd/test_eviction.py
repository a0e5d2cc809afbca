"""Tests for the record-store memory bound (drop-on-pressure)."""

import pytest

from repro.core.epoch import EpochRange
from repro.hostd.records import FlowRecordStore
from repro.simnet.packet import FlowKey, PROTO_UDP

from tests.hostd.eager_records import shaped


def key(i):
    return FlowKey(f"s{i}", f"d{i}", i, i, PROTO_UDP)


def touch(store, i, t):
    rec = store.record_for(key(i))
    rec.observe(nbytes=100, t=t, priority=0, switch_path=("S1",),
                offsets=((0, 0),), observed_epoch=0)
    return rec


class TestEviction:
    def test_bound_enforced(self):
        store = FlowRecordStore("h", max_records=5)
        for i in range(12):
            touch(store, i, t=i * 0.001)
        assert len(store) <= 5
        assert store.evicted == 7

    def test_stalest_evicted_first(self):
        store = FlowRecordStore("h", max_records=3)
        for i in range(3):
            touch(store, i, t=i * 0.001)
        touch(store, 0, t=0.010)  # refresh flow 0
        touch(store, 99, t=0.011)  # push over the bound
        assert store.get(key(1)) is None  # stalest gone
        assert store.get(key(0)) is not None  # refreshed kept

    def test_ties_on_last_seen_evict_oldest_created(self):
        """Simultaneous deliveries tie on last_seen; the victim is the
        earliest-created record, whatever order the table iterates."""
        store = FlowRecordStore("h", max_records=2)
        for i in range(4):
            touch(store, i, t=0.001)
        assert [rec.flow for rec in store] == [key(2), key(3)]

    def test_every_new_record_is_bounded_on_arrival(self):
        """The bound holds after each insert: the table never carries
        more than one record over it, whatever the arrival burst."""
        store = FlowRecordStore("h", max_records=5)
        for i in range(20):
            touch(store, i, t=i * 0.001)
            assert len(store) <= 5
        assert store.evicted == 15
        assert store.peak_records == 6  # the one insert over the bound

    def test_drop_all_then_reingest(self):
        """Crash loss: nothing counted as evicted, and the
        emptied index serves what arrives afterwards."""
        store = FlowRecordStore("h", max_records=3)
        for i in range(3):
            touch(store, i, t=i * 0.001)
        assert store.drop_all() == 3
        assert len(store) == 0 and store.flows_through("S1") == []
        assert store.evicted == 0
        touch(store, 1, t=0.010)
        touch(store, 7, t=0.011)
        assert ([rec.flow for rec in store.flows_through("S1")]
                == [key(1), key(7)])
        assert store.get(key(1)).packets == 1  # a fresh record

    def test_no_bound_no_eviction(self):
        store = FlowRecordStore("h")
        for i in range(100):
            touch(store, i, t=0.0)
        assert len(store) == 100
        assert store.evicted == 0

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            FlowRecordStore("h", max_records=0)

    @pytest.mark.parametrize("bound", [float("nan"), float("inf"), 1.5,
                                       2.0, True, "3"])
    def test_bound_must_be_an_int(self, bound):
        # NaN and inf used to leave the table silently unbounded, and
        # 1.5 bounded it at 1
        with pytest.raises(ValueError) as err:
            FlowRecordStore("h", max_records=bound)
        assert repr(bound) in str(err.value)

    @pytest.mark.parametrize("bound", [None, 1, 32])
    def test_int_or_no_bound_is_accepted(self, bound):
        assert FlowRecordStore("h", max_records=bound).max_records == bound


def touch_at(store, i, t, ranges):
    """Like :func:`touch`, on the switches and epochs of ``ranges``."""
    rec = store.record_for(key(i))
    rec.observe(nbytes=100, t=t, priority=0, **shaped(ranges))
    return rec


class TestEvictionDrops:
    """An evicted record is gone: from the table, from every index
    bucket and sorted cache, and from every later answer."""

    def test_evicted_record_leaves_every_switch_bucket(self):
        store = FlowRecordStore("h", max_records=1)
        touch_at(store, 0, 0.001, {"S1": EpochRange(0, 0),
                                   "S2": EpochRange(0, 0)})
        touch_at(store, 1, 0.002, {"S1": EpochRange(1, 1)})
        assert [rec.flow for rec in store.flows_through("S1")] == [key(1)]
        # flow 0 was S2's only record: the bucket goes with it
        assert store.scan_through("S2") == ([], 0)

    def test_windowed_query_after_eviction(self):
        """The per-switch sorted cache built before an eviction is not
        served after it."""
        store = FlowRecordStore("h", max_records=2)
        for i in range(2):
            touch_at(store, i, i * 0.001, {"S1": EpochRange(i, i + 1)})
        window = EpochRange(0, 5)
        assert len(store.flows_through("S1", window)) == 2  # cache warm
        touch_at(store, 2, 0.010, {"S1": EpochRange(2, 2)})
        assert ([rec.flow for rec in store.flows_through("S1", window)]
                == [key(1), key(2)])

    def test_index_agrees_with_linear_scan_under_pressure(self):
        store = FlowRecordStore("h", max_records=7)
        for i in range(40):
            sw = f"S{i % 3}"
            touch_at(store, i % 23, i * 0.001,
                     {sw: EpochRange(i % 5, i % 5 + 2)})
        assert store.evicted > 0
        for sw in ("S0", "S1", "S2", "S9"):
            for window in (None, EpochRange(0, 1), EpochRange(3, 9)):
                assert (store.flows_through(sw, window)
                        == store.linear_flows_through(sw, window))

    def test_a_held_evicted_record_stays_out_of_the_index(self):
        store = FlowRecordStore("h", max_records=1)
        stale = touch_at(store, 0, 0.001, {"S1": EpochRange(0, 0)})
        touch_at(store, 1, 0.002, {"S1": EpochRange(0, 0)})
        stale.observe(nbytes=100, t=0.003, priority=0, switch_path=("S9",),
                      offsets=((0, 0),), observed_epoch=3)
        assert store.flows_through("S9") == []
        assert len(store) == 1 and store.get(key(0)) is None

    def test_an_evicted_flow_returns_as_a_fresh_record(self):
        store = FlowRecordStore("h", max_records=2)
        first = touch(store, 0, t=0.001)
        touch(store, 0, t=0.002)
        touch(store, 1, t=0.003)
        touch(store, 2, t=0.004)  # evicts flow 0
        again = touch(store, 0, t=0.005)  # evicts flow 1
        assert again is not first and again.packets == 1
        assert store.evicted == 2
        assert [rec.flow for rec in store] == [key(2), key(0)]

    def test_scan_cost_is_the_bounded_bucket(self):
        store = FlowRecordStore("h", max_records=4)
        for i in range(30):
            touch(store, i, t=i * 0.001)
        matches, scanned = store.scan_through("S1")
        assert scanned == len(matches) == 4
