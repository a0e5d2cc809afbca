"""Unit tests for the flow-record store."""

from repro.core.epoch import EpochRange
from repro.hostd.records import FlowRecord, FlowRecordStore
from repro.hostd.triggers import alert_tuples_from_record
from repro.simnet.packet import FlowKey, PROTO_TCP

from tests.hostd.eager_records import linear_flows_through, shaped


def key(i=0, proto=PROTO_TCP):
    return FlowKey(f"src{i}", f"dst{i}", 100 + i, 200 + i, proto)


def observe(rec, *, nbytes=100, t=0.0, priority=0, ranges=None, epoch=5):
    """Fold a packet whose ranges are ``ranges`` (its path runs in the
    dict's order) and whose observed epoch is ``epoch``."""
    if ranges is None:
        ranges = {"S1": EpochRange(4, 6), "S2": EpochRange(5, 7)}
    rec.observe(nbytes=nbytes, t=t, priority=priority,
                **shaped(ranges, epoch))


def ingest(store, i, *, t, lo, hi, epoch):
    """One packet of flow ``i`` over ``("S1",)``, ranging ``[lo, hi]``
    there."""
    store.ingest(key(i), nbytes=1, t=t, priority=0,
                 **shaped({"S1": EpochRange(lo, hi)}, epoch))


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
        observe(store.record_for(key(0)), ranges={"S1": EpochRange(1, 2)})
        observe(store.record_for(key(1)), ranges={"S2": EpochRange(1, 2)})
        hits = store.flows_through("S1")
        assert [r.flow for r in hits] == [key(0)]

    def test_flows_through_epoch_filter(self):
        store = FlowRecordStore("h1")
        observe(store.record_for(key(0)), ranges={"S1": EpochRange(1, 2)})
        observe(store.record_for(key(1)), ranges={"S1": EpochRange(8, 9)})
        hits = store.flows_through("S1", EpochRange(2, 4))
        assert [r.flow for r in hits] == [key(0)]

    def test_iteration(self):
        store = FlowRecordStore("h1")
        for i in range(3):
            observe(store.record_for(key(i)))
        assert len(list(store)) == 3


class TestDerivedRanges:
    """A record keeps its path, its shape's offsets and one span of
    observed epochs; every per-switch range is derived from the three."""

    OFFSETS = ((-3, 1), (-1, 1), (-1, 4))

    def test_one_shape_keeps_a_span_and_the_shared_tuples(self):
        rec = FlowRecord(flow=key())
        path = ("S1", "S2", "S3")
        for epoch in (7, 5, 9, 6):
            rec.observe(nbytes=1, t=0.0, priority=0, switch_path=path,
                        offsets=self.OFFSETS, observed_epoch=epoch)
        assert rec.switch_path is path and rec._shape is self.OFFSETS
        assert (rec._span_lo, rec._span_hi, rec._folded) == (5, 9, None)
        assert rec.epoch_ranges == {"S1": (2, 10), "S2": (4, 10),
                                    "S3": (4, 13)}
        assert rec.epochs_at("S3") == EpochRange(4, 13)
        assert rec.epochs_at("S9") is None

    def test_an_equal_copy_of_the_path_is_no_change(self):
        rec = FlowRecord(flow=key())
        path = ("S1", "S2", "S3")
        rec.observe(nbytes=1, t=0.0, priority=0, switch_path=path,
                    offsets=self.OFFSETS, observed_epoch=5)
        rec.observe(nbytes=1, t=0.0, priority=0,
                    switch_path=tuple(list(path)),
                    offsets=tuple(self.OFFSETS), observed_epoch=8)
        assert rec.switch_path is path and rec._folded is None
        assert rec.epoch_ranges["S1"] == (2, 9)

    def test_a_new_shape_folds_the_old_ranges(self):
        rec = FlowRecord(flow=key())
        rec.observe(nbytes=1, t=0.0, priority=0,
                    switch_path=("S1", "S2", "S3"), offsets=self.OFFSETS,
                    observed_epoch=5)
        rec.observe(nbytes=1, t=0.0, priority=0, switch_path=("S4", "S2"),
                    offsets=((0, 0), (-2, 0)), observed_epoch=9)
        assert rec.switch_path == ("S4", "S2")
        assert rec._folded == {"S1": (2, 6), "S2": (4, 6), "S3": (4, 9)}
        # first-seen order; S2 is the hull of both shapes
        assert list(rec.epoch_ranges.items()) == [
            ("S1", (2, 6)), ("S2", (4, 9)), ("S3", (4, 9)),
            ("S4", (9, 9))]
        assert rec.epochs_at("S2") == EpochRange(4, 9)

    def test_a_packet_with_no_path_counts_and_moves_no_range(self):
        rec = FlowRecord(flow=key())
        path = ("S1", "S2", "S3")
        rec.observe(nbytes=1, t=0.0, priority=0, switch_path=path,
                    offsets=self.OFFSETS, observed_epoch=5)
        rec.observe(nbytes=2, t=0.1, priority=0, switch_path=(),
                    offsets=(), observed_epoch=1)
        assert rec.switch_path is path and rec._shape is self.OFFSETS
        assert (rec._span_lo, rec._span_hi, rec._folded) == (5, 5, None)
        assert (rec.packets, rec.bytes_by_epoch) == (2, {5: 1, 1: 2})
        assert [(a.switch, a.epochs) for a in alert_tuples_from_record(
            rec)] == [("S1", EpochRange(2, 6)), ("S2", EpochRange(4, 6)),
                      ("S3", EpochRange(4, 9))]

    def test_the_view_is_a_fresh_dict(self):
        rec = FlowRecord(flow=key())
        observe(rec)
        rec.epoch_ranges["S9"] = (0, 0)
        del rec.epoch_ranges["S1"]
        assert list(rec.epoch_ranges) == ["S1", "S2"]


class TestObserveKeepsTheIndexFresh:
    """A packet inside the span changes nothing and a higher ``hi`` is
    read live; the sorted-by-``lo`` bucket cache must stay exactly as
    valid as when every packet rebuilt the range."""

    def _store(self):
        store = FlowRecordStore("h")
        for i, lo in enumerate((10, 20, 30)):
            ingest(store, i, t=0.0, lo=lo, hi=lo + 2, epoch=lo)
        assert len(store.flows_through("S1", EpochRange(0, 99))) == 3
        assert "S1" in store._sorted  # the windowed read built the cache
        return store

    def test_contained_epoch_changes_nothing(self):
        store = self._store()
        cached = store._sorted["S1"]
        ingest(store, 1, t=0.1, lo=20, hi=22, epoch=20)
        rec = store.get(key(1))
        assert rec.epoch_ranges["S1"] == (20, 22)
        assert rec.packets == 2 and rec.bytes_by_epoch == {20: 2}
        assert store._sorted["S1"] is cached     # still valid, kept
        for window in (EpochRange(0, 15), EpochRange(21, 21),
                       EpochRange(0, 99)):
            assert (store.flows_through("S1", window)
                    == linear_flows_through(store, "S1", window))

    def test_higher_hi_keeps_the_cache_and_is_read_live(self):
        store = self._store()
        cached = store._sorted["S1"]
        ingest(store, 0, t=0.1, lo=38, hi=40, epoch=38)
        assert store.get(key(0)).epochs_at("S1") == EpochRange(10, 40)
        assert store._sorted["S1"] is cached
        window = EpochRange(35, 36)
        assert [r.flow for r in store.flows_through("S1", window)] == [
            key(0)]
        assert (store.flows_through("S1", window)
                == linear_flows_through(store, "S1", window))

    def test_lower_lo_still_invalidates(self):
        store = self._store()
        ingest(store, 2, t=0.1, lo=5, hi=7, epoch=5)
        assert store.get(key(2)).epochs_at("S1") == EpochRange(5, 32)
        assert "S1" not in store._sorted
        window = EpochRange(0, 9)
        assert [r.flow for r in store.flows_through("S1", window)] == [
            key(2)]
        assert (store.flows_through("S1", window)
                == linear_flows_through(store, "S1", window))

    def test_a_new_shape_reindexes_and_folded_switches_stay(self):
        store = self._store()
        assert store.flows_through("S2") == []
        rec = store.get(key(0))
        store.ingest(key(0), nbytes=1, t=0.2, priority=0,
                     switch_path=("S2",), offsets=((0, 0),),
                     observed_epoch=50)
        assert [r.flow for r in store.flows_through("S2")] == [key(0)]
        assert rec in store.flows_through("S1", EpochRange(10, 10))
        assert rec.epochs_at("S1") == EpochRange(10, 12)
        store.max_records = 1
        store.record_for(key(9))  # evicts flows 1 and 2, then 0
        assert store.flows_through("S1") == store.flows_through("S2") == []


class TestLinearOracle:
    """The reference scan that the index tests and the query benchmark
    compare against, checked against answers worked out by hand."""

    def test_answers_every_flow_through_the_switch_in_creation_order(self):
        store = FlowRecordStore("h")
        for i in (2, 0, 1):
            ingest(store, i, t=0.0, lo=10, hi=12, epoch=10)
        store.ingest(key(3), nbytes=1, t=0.0, priority=0,
                     **shaped({"S2": EpochRange(10, 12)}, 10))
        ingest(store, 2, t=0.1, lo=11, hi=13, epoch=11)
        assert [r.flow for r in linear_flows_through(store, "S1")] == [
            key(2), key(0), key(1)]
        assert [r.flow for r in linear_flows_through(store, "S2")] == [
            key(3)]
        assert linear_flows_through(store, "S9") == []

    def test_a_window_keeps_ranges_that_touch_it(self):
        store = FlowRecordStore("h")
        for i, lo in enumerate((10, 20, 30)):
            ingest(store, i, t=0.0, lo=lo, hi=lo + 2, epoch=lo)

        def flows(lo, hi):
            return [r.flow for r in
                    linear_flows_through(store, "S1", EpochRange(lo, hi))]

        assert flows(12, 20) == [key(0), key(1)]
        assert flows(13, 19) == []
        assert flows(32, 99) == [key(2)]
        assert flows(0, 9) == []

    def test_each_switch_of_a_path_answers_with_its_derived_range(self):
        store = FlowRecordStore("h")
        store.ingest(key(0), nbytes=1, t=0.0, priority=0,
                     **shaped({"S1": EpochRange(4, 6),
                               "S2": EpochRange(5, 7)}, 5))
        window = EpochRange(7, 7)
        assert linear_flows_through(store, "S1", window) == []
        assert [r.flow for r in linear_flows_through(store, "S2", window)] \
            == [key(0)]
        ingest(store, 0, t=0.1, lo=40, hi=40, epoch=40)
        assert [r.flow for r in
                linear_flows_through(store, "S1", EpochRange(35, 36))] \
            == [key(0)]
