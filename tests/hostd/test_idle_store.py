"""An idle record store answers like an empty one at every entry point.

A store no record has reached holds no table of its own (it shares one
read-only empty mapping with every other idle store), and a store no
scan has reached holds no index.  Every read must
return exactly what an empty table returns and build nothing; every
write that is legal on an empty store must work on an idle one.
"""

import pytest

from repro.core.epoch import EpochRange
from repro.hostd.query import QueryEngine, QueryResult
from repro.hostd.records import _IDLE, FlowRecordStore
from repro.simnet.packet import FlowKey, PROTO_UDP

from tests.hostd.eager_records import shaped

FLOW = FlowKey("a", "b", 1, 9, PROTO_UDP)
WINDOW = EpochRange(0, 10)


def holds_table(store: FlowRecordStore) -> bool:
    return any(table is not _IDLE
               for table in (store._records, store._by_switch,
                             store._sorted))


def ingest(store, flow=FLOW, *, nbytes=100, t=0.0):
    return store.ingest(flow, nbytes=nbytes, t=t, priority=0,
                        **shaped({"S1": EpochRange(4, 6),
                                  "S2": EpochRange(5, 7)}, 5))


@pytest.fixture
def idle():
    store = FlowRecordStore("h", max_records=4)
    assert not holds_table(store)
    yield store
    assert not holds_table(store)


class TestIdleReads:
    def test_point_and_table_reads(self, idle):
        assert idle.get(FLOW) is None
        assert len(idle) == 0
        assert list(idle) == []

    @pytest.mark.parametrize("epochs", [None, WINDOW])
    @pytest.mark.parametrize("since_seq", [None, 0, 5])
    def test_scans(self, idle, epochs, since_seq):
        assert idle.scan_through("S1", epochs,
                                 since_seq=since_seq) == ([], 0)
        assert idle.flows_through("S1", epochs) == []
        assert idle.linear_flows_through("S1", epochs) == []

    def test_every_query(self, idle):
        engine = QueryEngine(idle)
        assert engine.top_k_flows(3) == QueryResult([])
        assert engine.top_k_flows(3, switch="S1",
                                  epochs=WINDOW) == QueryResult([])
        assert engine.flow_size_distribution(switch="S1") == QueryResult({})
        assert engine.all_flows() == QueryResult([])
        assert engine.flows_matching("S1", WINDOW) == QueryResult([])
        assert engine.flows_matching("S1", since_seq=0) == QueryResult([])
        assert engine.flow_details(FLOW) == QueryResult(
            None, records_scanned=1)
        assert engine.queries_served == 7


class TestIdleWrites:
    def test_drop_all(self, idle):
        assert idle.drop_all() == 0


class TestFirstRecordAndBack:
    def test_first_ingest_builds_tables_a_store_of_its_own(self):
        one, other = FlowRecordStore("a"), FlowRecordStore("b")
        ingest(one)
        assert holds_table(one) and not holds_table(other)
        # the table is its own; the index waits for the first scan
        assert one._by_switch is _IDLE and one._sorted is _IDLE
        assert [r.flow for r in one.flows_through("S2")] == [FLOW]
        assert other.flows_through("S2") == []
        assert not holds_table(other)
        index = one._by_switch
        assert index is not _IDLE and index is not one._records
        assert one._sorted is not _IDLE and one._sorted is not index
        assert {sw: list(bucket) for sw, bucket in index.items()} == {
            "S1": [FLOW], "S2": [FLOW]}

    def test_records_are_numbered_in_creation_order_across_a_crash(self):
        store = FlowRecordStore("h")
        flows = [FlowKey("a", "b", i, 9, PROTO_UDP) for i in range(3)]
        ingest(store, flows[0])
        ingest(store, flows[1])
        store.drop_all()
        ingest(store, flows[2])
        ingest(store, flows[0])
        assert [r._seq for r in store] == [2, 3]
        assert [r.flow for r in store.flows_through("S1")] == [
            flows[2], flows[0]]

    def test_crash_detaches_lost_records(self):
        store = FlowRecordStore("h")
        lost = ingest(store)
        # a scan builds the index; the crash takes it with the table
        assert [r.flow for r in store.flows_through("S1")] == [FLOW]
        assert store._by_switch is not _IDLE
        assert store.drop_all() == 1
        assert lost._store is None and not holds_table(store)
        # a lost record that keeps observing no longer feeds the index
        lost.observe(nbytes=1, t=1.0, priority=0,
                     **shaped({"S3": EpochRange(1, 2)}, 1))
        assert store.flows_through("S3") == []
        assert not holds_table(store)
