"""Unit tests for the flow-record store."""

from repro.core.epoch import EpochRange
from repro.hostd.records import FlowRecord, FlowRecordStore
from repro.simnet.packet import FlowKey, PROTO_TCP


def key(i=0, proto=PROTO_TCP):
    return FlowKey(f"src{i}", f"dst{i}", 100 + i, 200 + i, proto)


def observe(rec, *, nbytes=100, t=0.0, priority=0,
            path=("S1", "S2"), ranges=None, epoch=5):
    if ranges is None:
        ranges = {"S1": EpochRange(4, 6), "S2": EpochRange(5, 7)}
    rec.observe(nbytes=nbytes, t=t, priority=priority,
                switch_path=list(path), ranges=ranges,
                observed_epoch=epoch)


class TestFlowRecord:
    def test_accumulates_bytes_and_packets(self):
        rec = FlowRecord(flow=key())
        observe(rec, nbytes=100, t=0.001)
        observe(rec, nbytes=200, t=0.002)
        assert rec.bytes == 300
        assert rec.packets == 2
        assert rec.first_seen == 0.001
        assert rec.last_seen == 0.002

    def test_epoch_ranges_union(self):
        rec = FlowRecord(flow=key())
        observe(rec, ranges={"S1": EpochRange(4, 6)})
        observe(rec, ranges={"S1": EpochRange(8, 9)})
        assert rec.epochs_at("S1") == EpochRange(4, 9)

    def test_bytes_by_epoch(self):
        rec = FlowRecord(flow=key())
        observe(rec, nbytes=100, epoch=5)
        observe(rec, nbytes=50, epoch=5)
        observe(rec, nbytes=30, epoch=6)
        assert rec.bytes_by_epoch == {5: 150, 6: 30}

    def test_priority_tracks_latest(self):
        rec = FlowRecord(flow=key())
        observe(rec, priority=2)
        assert rec.priority == 2

class TestFlowRecordStore:
    def test_record_for_creates_once(self):
        store = FlowRecordStore("h1")
        a = store.record_for(key())
        b = store.record_for(key())
        assert a is b
        assert len(store) == 1

    def test_get_unknown_returns_none(self):
        store = FlowRecordStore("h1")
        assert store.get(key()) is None

    def test_flows_through_switch_filter(self):
        store = FlowRecordStore("h1")
        observe(store.record_for(key(0)),
                ranges={"S1": EpochRange(1, 2)}, path=("S1",))
        observe(store.record_for(key(1)),
                ranges={"S2": EpochRange(1, 2)}, path=("S2",))
        hits = store.flows_through("S1")
        assert [r.flow for r in hits] == [key(0)]

    def test_flows_through_epoch_filter(self):
        store = FlowRecordStore("h1")
        observe(store.record_for(key(0)),
                ranges={"S1": EpochRange(1, 2)}, path=("S1",))
        observe(store.record_for(key(1)),
                ranges={"S1": EpochRange(8, 9)}, path=("S1",))
        hits = store.flows_through("S1", EpochRange(2, 4))
        assert [r.flow for r in hits] == [key(0)]

    def test_iteration(self):
        store = FlowRecordStore("h1")
        for i in range(3):
            observe(store.record_for(key(i)))
        assert len(list(store)) == 3


class TestObserveKeepsTheIndexFresh:
    """``observe`` skips the union when the incoming range is already
    contained; the sorted-by-``lo`` bucket cache must stay exactly as
    valid as when every packet rebuilt the range."""

    def _store(self):
        store = FlowRecordStore("h")
        for i, lo in enumerate((10, 20, 30)):
            store.ingest(key(i), nbytes=1, t=0.0, priority=0,
                         switch_path=["S1"],
                         ranges={"S1": EpochRange(lo, lo + 2)},
                         observed_epoch=lo)
        assert len(store.flows_through("S1", EpochRange(0, 99))) == 3
        assert "S1" in store._sorted  # the windowed read built the cache
        return store

    def test_contained_range_changes_nothing(self):
        store = self._store()
        before = store.get(key(1)).epoch_ranges["S1"]
        cached = store._sorted["S1"]
        store.ingest(key(1), nbytes=1, t=0.1, priority=0,
                     switch_path=["S1"],
                     ranges={"S1": EpochRange(21, 22)}, observed_epoch=21)
        rec = store.get(key(1))
        assert rec.epoch_ranges["S1"] is before  # no union allocated
        assert rec.packets == 2 and rec.bytes_by_epoch == {20: 1, 21: 1}
        assert store._sorted["S1"] is cached     # still valid, kept
        for window in (EpochRange(0, 15), EpochRange(21, 21),
                       EpochRange(0, 99)):
            assert (store.flows_through("S1", window)
                    == store.linear_flows_through("S1", window))

    def test_higher_hi_keeps_the_cache_and_is_read_live(self):
        store = self._store()
        cached = store._sorted["S1"]
        store.ingest(key(0), nbytes=1, t=0.1, priority=0,
                     switch_path=["S1"],
                     ranges={"S1": EpochRange(11, 40)}, observed_epoch=12)
        assert store.get(key(0)).epoch_ranges["S1"] == EpochRange(10, 40)
        assert store._sorted["S1"] is cached
        window = EpochRange(35, 36)
        assert [r.flow for r in store.flows_through("S1", window)] == [
            key(0)]
        assert (store.flows_through("S1", window)
                == store.linear_flows_through("S1", window))

    def test_lower_lo_still_invalidates(self):
        store = self._store()
        store.ingest(key(2), nbytes=1, t=0.1, priority=0,
                     switch_path=["S1"],
                     ranges={"S1": EpochRange(5, 31)}, observed_epoch=5)
        assert store.get(key(2)).epoch_ranges["S1"] == EpochRange(5, 32)
        assert "S1" not in store._sorted
        window = EpochRange(0, 9)
        assert [r.flow for r in store.flows_through("S1", window)] == [
            key(2)]
        assert (store.flows_through("S1", window)
                == store.linear_flows_through("S1", window))

    def test_equal_switch_path_is_not_copied_a_new_one_is(self):
        rec = FlowRecord(flow=key())
        shared = ["S1", "S2"]
        observe(rec, path=shared)
        held = rec.switch_path
        assert held == shared and held is not shared
        rec.observe(nbytes=1, t=0.0, priority=0, switch_path=shared,
                    ranges={}, observed_epoch=None)
        assert rec.switch_path is held
        rec.observe(nbytes=1, t=0.0, priority=0,
                    switch_path=["S1", "S3"], ranges={},
                    observed_epoch=None)
        assert rec.switch_path == ["S1", "S3"]
