"""Tests for the record-store memory bound (spill-on-pressure)."""

import pytest

from repro.core.epoch import EpochRange
from repro.hostd.records import FlowRecordStore
from repro.simnet.packet import FlowKey, PROTO_UDP


def key(i):
    return FlowKey(f"s{i}", f"d{i}", i, i, PROTO_UDP)


def touch(store, i, t):
    rec = store.record_for(key(i))
    rec.observe(nbytes=100, t=t, priority=0, switch_path=["S1"],
                ranges={"S1": EpochRange(0, 0)}, observed_epoch=0)
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

    def test_batch_defers_eviction_to_batch_end(self):
        store = FlowRecordStore("h", max_records=5)
        store.begin_batch()
        for i in range(20):
            touch(store, i, t=i * 0.001)
        assert len(store) == 20  # bound deferred inside the batch
        store.end_batch()
        assert len(store) == 5
        assert store.evicted == 15
        assert store.peak_records == 20  # the within-batch high water

    def test_drop_all_then_reingest(self):
        """Crash loss: nothing spilled or counted as evicted, and the
        emptied index serves what arrives afterwards."""
        store = FlowRecordStore("h", max_records=3)
        for i in range(3):
            touch(store, i, t=i * 0.001)
        assert store.drop_all() == 3
        assert len(store) == 0 and store.flows_through("S1") == []
        assert (store.evicted, store.spilled) == (0, 0)
        touch(store, 1, t=0.010)
        touch(store, 7, t=0.011)
        assert ([rec.flow for rec in store.flows_through("S1")]
                == [key(1), key(7)])
        assert store.get(key(1)).packets == 1  # a fresh record

    def test_spill_preserves_evicted_records(self, tmp_path):
        spill = tmp_path / "spill.jsonl"
        store = FlowRecordStore("h", spill_path=spill, max_records=2)
        for i in range(5):
            touch(store, i, t=i * 0.001)
        assert store.spilled == 3
        loaded = FlowRecordStore.load_from_disk("h", spill)
        assert len(loaded) == 3
        assert loaded.get(key(0)).bytes == 100

    def test_no_bound_no_eviction(self):
        store = FlowRecordStore("h")
        for i in range(100):
            touch(store, i, t=0.0)
        assert len(store) == 100
        assert store.evicted == 0

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            FlowRecordStore("h", max_records=0)


class TestReloadBound:
    def test_load_honors_max_records(self, tmp_path):
        spill = tmp_path / "spill.jsonl"
        store = FlowRecordStore("h", spill_path=spill)
        for i in range(10):
            touch(store, i, t=i * 0.001)
        store.flush_to_disk()
        loaded = FlowRecordStore.load_from_disk("h", spill,
                                                max_records=4)
        assert len(loaded) == 4
        assert loaded.evicted == 6
        # the freshest records (by last_seen) survive the reload
        assert loaded.get(key(9)) is not None
        assert loaded.get(key(0)) is None

    def test_load_does_not_grow_spill_file(self, tmp_path):
        spill = tmp_path / "spill.jsonl"
        store = FlowRecordStore("h", spill_path=spill)
        for i in range(10):
            touch(store, i, t=i * 0.001)
        store.flush_to_disk()
        before = spill.read_bytes()
        loaded = FlowRecordStore.load_from_disk("h", spill,
                                                max_records=2)
        assert spill.read_bytes() == before
        assert loaded.spilled == 0

    def test_load_without_bound_keeps_everything(self, tmp_path):
        spill = tmp_path / "spill.jsonl"
        store = FlowRecordStore("h", spill_path=spill)
        for i in range(7):
            touch(store, i, t=i * 0.001)
        store.flush_to_disk()
        loaded = FlowRecordStore.load_from_disk("h", spill)
        assert len(loaded) == 7

    def test_reloaded_records_are_indexed(self, tmp_path):
        spill = tmp_path / "spill.jsonl"
        store = FlowRecordStore("h", spill_path=spill)
        for i in range(5):
            touch(store, i, t=i * 0.001)
        store.flush_to_disk()
        loaded = FlowRecordStore.load_from_disk("h", spill,
                                                max_records=3)
        hits = loaded.flows_through("S1", EpochRange(0, 0))
        assert [r.flow for r in hits] == [key(2), key(3), key(4)]
        assert hits == loaded.linear_flows_through("S1",
                                                   EpochRange(0, 0))
