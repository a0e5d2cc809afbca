"""Property-based tests for the per-switch inverted index (§3 filter).

Core claim: for any interleaving of observations and evictions, the
indexed query path — :meth:`FlowRecordStore.flows_through` and the
heap-based :meth:`QueryEngine.top_k_flows` — is observationally
identical to the O(N) linear scan it replaced: same records, same
order, byte-identical summary payloads.  The generated stores include
ones no observation reaches (idle: no table of their own)."""

from hypothesis import given, settings, strategies as st

from repro.core.epoch import EpochRange
from repro.hostd.query import FlowSummary, QueryEngine
from repro.hostd.records import _IDLE, FlowRecordStore
from repro.simnet.packet import FlowKey, PROTO_UDP

from tests.hostd.eager_records import linear_flows_through, shaped

SWITCHES = ["S1", "S2", "S3", "S4", "S5"]


def flow_key(i: int) -> FlowKey:
    return FlowKey(f"s{i}", f"d{i}", 1000 + i, 9, PROTO_UDP)


epoch_range = st.tuples(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=30),
).map(lambda t: EpochRange(min(t), max(t)))

# one observation: (flow id, nbytes, switches touched with their ranges)
observation = st.tuples(
    st.integers(min_value=0, max_value=11),
    st.integers(min_value=1, max_value=10_000),
    st.dictionaries(st.sampled_from(SWITCHES), epoch_range,
                    min_size=1, max_size=len(SWITCHES)),
)

#: the empty list keeps the store idle
observations = st.lists(observation, min_size=0, max_size=80)


def build(ops, max_records=None, tie_every=None, crash_at=None):
    """Replay ``ops`` into a store (evictions interleave via the bound).

    ``tie_every=k`` gives groups of k consecutive observations the same
    timestamp, covering eviction tie-breaking on equal staleness;
    ``crash_at=i`` loses the whole table (``drop_all``) before
    observation ``i``, so the rest re-ingests into an emptied index.
    """
    store = FlowRecordStore("h", max_records=max_records)
    for i, (fid, nbytes, ranges) in enumerate(ops):
        if i == crash_at:
            store.drop_all()
        tick = i if tie_every is None else i // tie_every
        store.ingest(flow_key(fid), nbytes=nbytes, t=0.001 * tick,
                     priority=0, **shaped(ranges))
    return store


def assert_idle_iff_empty(store):
    """A scanned store holds tables of its own — its record table and a
    built index — exactly when it holds a record (callers scan first)."""
    empty = len(store) == 0
    for table in (store._records, store._by_switch, store._sorted):
        assert (table is _IDLE) == empty


def payload_bytes(summaries: list[FlowSummary]) -> list[tuple]:
    """Fully-materialized wire form, for byte-identity comparison."""
    return [s._astuple() for s in summaries]


@settings(max_examples=80, deadline=None)
@given(ops=observations,
       max_records=st.sampled_from([None, 3, 6]),
       window=st.one_of(st.none(), epoch_range),
       tie_every=st.sampled_from([None, 1, 4]),
       crash_at=st.one_of(st.none(), st.integers(min_value=0, max_value=79)))
def test_flows_through_matches_linear_scan(ops, max_records, window,
                                           tie_every, crash_at):
    """...for any interleaving of observations, evictions (including
    ties on last_seen) and a crash loss."""
    store = build(ops, max_records=max_records, tie_every=tie_every,
                  crash_at=crash_at)
    for sw in SWITCHES:
        indexed = store.flows_through(sw, window)
        linear = linear_flows_through(store, sw, window)
        assert len(indexed) == len(linear)
        # same records, as the same objects, in the same order
        assert all(a is b for a, b in zip(indexed, linear))
    assert_idle_iff_empty(store)


@settings(max_examples=60, deadline=None)
@given(ops=observations,
       max_records=st.sampled_from([None, 4]),
       window=st.one_of(st.none(), epoch_range),
       k=st.integers(min_value=1, max_value=8))
def test_top_k_matches_full_sort_payload(ops, max_records, window, k):
    store = build(ops, max_records=max_records)
    engine = QueryEngine(store)
    for sw in SWITCHES:
        res = engine.top_k_flows(k, switch=sw, epochs=window)
        reference = sorted(linear_flows_through(store, sw, window),
                           key=lambda r: (-r.bytes, r.flow))[:k]
        expected = [FlowSummary.of(r) for r in reference]
        assert payload_bytes(res.payload) == payload_bytes(expected)
    assert_idle_iff_empty(store)


@settings(max_examples=60, deadline=None)
@given(ops=observations, window=st.one_of(st.none(), epoch_range))
def test_flows_matching_payload_identical(ops, window):
    store = build(ops)
    engine = QueryEngine(store)
    for sw in SWITCHES:
        res = engine.flows_matching(sw, window)
        expected = [FlowSummary.of(r)
                    for r in linear_flows_through(store, sw, window)]
        assert payload_bytes(res.payload) == payload_bytes(expected)
    assert_idle_iff_empty(store)


@settings(max_examples=60, deadline=None)
@given(ops=observations, max_records=st.integers(min_value=1, max_value=5))
def test_index_never_resurrects_evicted_records(ops, max_records):
    store = build(ops, max_records=max_records)
    assert len(store) <= max_records
    live = set(id(r) for r in store)
    for sw in SWITCHES:
        for rec in store.flows_through(sw):
            assert id(rec) in live
    assert_idle_iff_empty(store)
