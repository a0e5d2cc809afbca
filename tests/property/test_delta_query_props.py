"""Property tests: merged delta queries equal the one-shot answer.

The incremental analyzer's evidence model: a reader issuing
``since_seq`` delta rounds against a store that keeps ingesting,
merging newer summaries over older ones by flow, must converge on
exactly what a single query at the final watermark returns, for any
interleaving of ingests and query rounds.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.epoch import EpochRange
from repro.hostd.query import QueryEngine
from repro.hostd.records import FlowRecordStore
from repro.simnet.packet import FlowKey, PROTO_UDP

from tests.hostd.eager_records import shaped

SWITCH_SETS = (("S1",), ("S2",), ("S1", "S2"))


def flow_key(i: int) -> FlowKey:
    return FlowKey(f"s{i}", "dst", 1000 + i, 9, PROTO_UDP)


@st.composite
def ingest_script(draw):
    """A sequence of (flow, switch set, epoch lo) ingests plus the
    positions at which the incremental reader runs a delta round."""
    n = draw(st.integers(min_value=1, max_value=40))
    ops = [
        (draw(st.integers(min_value=0, max_value=7)),
         draw(st.sampled_from(SWITCH_SETS)),
         draw(st.integers(min_value=0, max_value=5)))
        for _ in range(n)
    ]
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=n),
                                min_size=0, max_size=4)))
    return ops, cuts


def _ingest(store, i, switches, lo, t):
    store.ingest(flow_key(i), nbytes=100, t=t, priority=0,
                 **shaped({sw: EpochRange(lo, lo + 1) for sw in switches}))


def _merged_delta_rounds(store, ops, cuts, switch, epochs):
    """Ingest ``ops``, running a delta round at every cut (and once at
    the end); return the reader's merged evidence by flow."""
    engine = QueryEngine(store)
    merged = {}
    since = None
    start = 0
    for cut in cuts + [len(ops)]:
        for t, (i, switches, lo) in enumerate(ops[start:cut], start):
            _ingest(store, i, switches, lo, t=0.001 * (t + 1))
        res = engine.flows_matching(switch, epochs, since_seq=since)
        for summary in res.payload:
            merged[summary.flow] = summary
        assert res.as_of_seq == store.ingested
        since = res.as_of_seq
        start = cut
    return merged


def _one_shot(store_factory, ops, switch, epochs):
    store = store_factory()
    for t, (i, switches, lo) in enumerate(ops):
        _ingest(store, i, switches, lo, t=0.001 * (t + 1))
    res = QueryEngine(store).flows_matching(switch, epochs)
    return {summary.flow: summary for summary in res.payload}


STORES = {
    "flat": lambda: FlowRecordStore("h"),
}


@pytest.mark.parametrize("layout", sorted(STORES))
@pytest.mark.parametrize("epochs", [None, EpochRange(2, 4)],
                         ids=["all-epochs", "windowed"])
@given(script=ingest_script())
@settings(max_examples=40, deadline=None)
def test_delta_rounds_converge_on_the_one_shot_answer(
        layout, epochs, script):
    ops, cuts = script
    factory = STORES[layout]
    merged = _merged_delta_rounds(factory(), ops, cuts, "S1", epochs)
    want = _one_shot(factory, ops, "S1", epochs)
    assert set(merged) == set(want)
    for flow, summary in want.items():
        assert merged[flow] == summary


@pytest.mark.parametrize("layout", sorted(STORES))
def test_since_seq_excludes_older_records(layout):
    store = STORES[layout]()
    _ingest(store, 0, ("S1",), 0, t=0.001)
    seq = QueryEngine(store).flows_matching("S1").as_of_seq
    _ingest(store, 1, ("S1",), 0, t=0.002)
    res = QueryEngine(store).flows_matching("S1", since_seq=seq)
    assert [s.flow for s in res.payload] == [flow_key(1)]


@pytest.mark.parametrize("layout", sorted(STORES))
def test_updated_record_reappears_in_the_next_delta(layout):
    """An update to an already-reported flow crosses the watermark."""
    store = STORES[layout]()
    _ingest(store, 0, ("S1",), 0, t=0.001)
    seq = QueryEngine(store).flows_matching("S1").as_of_seq
    _ingest(store, 0, ("S1",), 3, t=0.002)
    res = QueryEngine(store).flows_matching("S1", since_seq=seq)
    assert [s.flow for s in res.payload] == [flow_key(0)]
    assert res.payload[0].packets == 2


def test_watermark_survives_eviction():
    """Eviction never rewinds the watermark: a delta round after the
    bound dropped an already-reported flow returns exactly the live
    records updated since, in creation order."""
    store = FlowRecordStore("h", max_records=2)
    _ingest(store, 0, ("S1",), 0, t=0.001)
    _ingest(store, 1, ("S1",), 0, t=0.002)
    seq = QueryEngine(store).flows_matching("S1").as_of_seq
    _ingest(store, 2, ("S1",), 0, t=0.003)        # evicts flow 0
    _ingest(store, 1, ("S1",), 3, t=0.004)
    res = QueryEngine(store).flows_matching("S1", since_seq=seq)
    assert [s.flow for s in res.payload] == [flow_key(1), flow_key(2)]
    assert res.as_of_seq == store.ingested == 4
