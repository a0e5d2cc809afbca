"""Unit tests for the host-side query engine."""

import pytest

from repro.core.epoch import EpochRange
from repro.hostd.query import QueryEngine
from repro.hostd.records import FlowRecordStore
from repro.simnet.packet import FlowKey, PROTO_TCP, PROTO_UDP

from tests.hostd.eager_records import shaped


def populate(store, specs):
    """specs: (i, nbytes, path, switch->range, priority)."""
    for i, nbytes, path, ranges, prio in specs:
        key = FlowKey(f"s{i}", f"d{i}", 10 + i, 20 + i, PROTO_UDP)
        rec = store.record_for(key)
        assert tuple(ranges) == path
        rec.observe(nbytes=nbytes, t=0.001 * i, priority=prio,
                    **shaped({sw: EpochRange(*r)
                              for sw, r in ranges.items()}, 1))
    return store


@pytest.fixture
def engine():
    store = FlowRecordStore("h")
    populate(store, [
        (0, 5000, ("S1", "S2"), {"S1": (0, 2), "S2": (1, 3)}, 0),
        (1, 9000, ("S1", "S3"), {"S1": (0, 2), "S3": (1, 3)}, 2),
        (2, 1000, ("S2", "S3"), {"S2": (5, 6), "S3": (5, 7)}, 1),
        (3, 7000, ("S1",), {"S1": (9, 9)}, 0),
    ])
    return QueryEngine(store)


class TestTopK:
    def test_orders_by_bytes_desc(self, engine):
        res = engine.top_k_flows(2)
        sizes = [s.bytes for s in res.payload]
        assert sizes == [9000, 7000]

    def test_switch_filter(self, engine):
        res = engine.top_k_flows(10, switch="S2")
        assert {s.bytes for s in res.payload} == {5000, 1000}

    def test_epoch_filter(self, engine):
        res = engine.top_k_flows(10, switch="S1",
                                 epochs=EpochRange(0, 3))
        assert {s.bytes for s in res.payload} == {5000, 9000}

    def test_scan_cost_reported(self, engine):
        res = engine.top_k_flows(1)
        assert res.records_scanned == 4
        assert res.records_returned == 1

    def test_k_validation(self, engine):
        with pytest.raises(ValueError):
            engine.top_k_flows(0)


class TestFlowSizeDistribution:
    def test_groups_by_next_hop(self, engine):
        res = engine.flow_size_distribution(switch="S1")
        # flow0 next hop S2, flow1 next hop S3, flow3 last hop -> dst
        assert res.payload == {"S2": [5000], "S3": [9000], "d3": [7000]}

    def test_epoch_filter_applies(self, engine):
        res = engine.flow_size_distribution(switch="S1",
                                            epochs=EpochRange(9, 9))
        assert res.payload == {"d3": [7000]}


class TestFlowsMatching:
    def test_switch_and_epoch_filter(self, engine):
        res = engine.flows_matching("S3", EpochRange(5, 6))
        assert [s.bytes for s in res.payload] == [1000]

    def test_summaries_carry_telemetry(self, engine):
        res = engine.flows_matching("S1")
        summary = next(s for s in res.payload if s.bytes == 9000)
        assert summary.priority == 2
        assert summary.switch_path == ["S1", "S3"]
        assert summary.epochs_at("S1") == EpochRange(0, 2)
        assert summary.epochs_at("S9") is None


class TestFlowDetails:
    def test_known_flow(self, engine):
        key = FlowKey("s1", "d1", 11, 21, PROTO_UDP)
        res = engine.flow_details(key)
        assert res.payload.bytes == 9000
        assert res.records_returned == 1

    def test_unknown_flow(self, engine):
        key = FlowKey("x", "y", 1, 2, PROTO_TCP)
        res = engine.flow_details(key)
        assert res.payload is None
        assert res.records_returned == 0


class TestAccounting:
    def test_queries_served_counter(self, engine):
        engine.top_k_flows(1)
        engine.flows_matching("S1")
        assert engine.queries_served == 2
