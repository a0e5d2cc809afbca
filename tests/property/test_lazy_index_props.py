"""Property: a record index built on first scan answers like an eager one.

:class:`~repro.hostd.records.FlowRecordStore` builds its per-switch
index the first time a scan asks for it, in one pass over the table,
and keeps it from then on; until then index upkeep (a record's new
switches, a moved ``lo``, an eviction) does nothing.  :class:`EagerStore`
below is the store it replaced, kept as the oracle: it opens its index
with its first record and keeps it up to date from there.

Both replay the same random ops — ingest over changing paths and
skewed (earlier) epoch ranges, observations out of time order, records
created and never observed, evictions from a bounded table, crash
losses — with scans at random points, the first of them possibly
before any record.  They must agree on every ``flows_through`` and
``scan_through`` answer (records, order and ``records_scanned``), on
``epochs_at``, on table order and on the eviction victims in order;
and once the lazy store has an index, its buckets must hold exactly the
oracle's (index invariant 1), and answer as a flat scan of the table
does.
"""

from hypothesis import Phase, given, settings, strategies as st

from repro.core.epoch import EpochRange
from repro.hostd.records import _IDLE, FlowRecordStore
from repro.simnet.packet import PROTO_UDP, FlowKey

from tests.hostd.eager_records import shaped

SWITCHES = ["S1", "S2", "S3"]
FLOWS = [FlowKey(f"s{i}", "d", 1000 + i, 9, PROTO_UDP) for i in range(6)]

#: a failing example is reported as drawn
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


class LoggedStore(FlowRecordStore):
    """Logs each record leaving the table by eviction, in order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.victims = []

    def _unindex_record(self, rec):
        self.victims.append(rec.flow)
        super()._unindex_record(rec)


class EagerStore(LoggedStore):
    """The oracle: the index opens with the table and is kept from the
    first record on."""

    def _open(self):
        super()._open()
        self._by_switch = {}
        self._sorted = {}


epoch_range = st.sampled_from([EpochRange(lo, hi) for lo in range(13)
                               for hi in range(lo, 13)])
window = st.one_of(st.none(), epoch_range)

ingest = st.tuples(
    st.just("ingest"), st.integers(0, len(FLOWS) - 1),
    st.integers(1, 5_000),
    # a step back in time: an observation out of order (a direct
    # ``observe`` caller; re-sorts the table)
    st.sampled_from([1, 1, 1, 0, -3]),
    # the packet's range at each switch of its path (the path runs in
    # the dict's order; an empty one moves no range)
    st.dictionaries(st.sampled_from(SWITCHES), epoch_range,
                    min_size=0, max_size=3))
touch = st.tuples(st.just("touch"), st.integers(0, len(FLOWS) - 1))
scan = st.tuples(st.just("scan"), st.sampled_from(SWITCHES), window,
                 st.one_of(st.none(), st.integers(0, 30)))
crash = st.tuples(st.just("crash"))
#: windows every step probes once the lazy index is built: a stale
#: sorted cache shows as a record one of them misses
PROBES = [EpochRange(k, k + 1) for k in range(0, 12, 2)]

ops = st.lists(st.one_of(ingest, ingest, ingest, touch, scan, scan, crash),
               min_size=20, max_size=60)


def table(store):
    return [(r.flow, r._seq, r.last_seen) for r in store._records.values()]


def buckets(store):
    return {sw: set(bucket) for sw, bucket in store._by_switch.items()}


def answer(records_and_count):
    records, scanned = records_and_count
    return [r.flow for r in records], scanned


def replay(steps, max_records):
    lazy = LoggedStore("h", max_records=max_records)
    eager = EagerStore("h", max_records=max_records)
    t = 0
    scanned_once = False
    for step in steps:
        kind = step[0]
        if kind == "ingest":
            _, fid, nbytes, dt, ranges = step
            t += dt
            for store in (lazy, eager):
                store.ingest(FLOWS[fid], nbytes=nbytes, t=0.001 * t,
                             priority=0, **shaped(ranges))
        elif kind == "touch":
            for store in (lazy, eager):
                store.record_for(FLOWS[step[1]])
        elif kind == "crash":
            assert lazy.drop_all() == eager.drop_all()
            assert lazy._by_switch is _IDLE and lazy._sorted is _IDLE
        else:
            _, sw, epochs, since = step
            assert (answer(lazy.scan_through(sw, epochs, since_seq=since))
                    == answer(eager.scan_through(sw, epochs,
                                                 since_seq=since)))
            assert ([r.flow for r in lazy.flows_through(sw, epochs)]
                    == [r.flow for r in eager.flows_through(sw, epochs)])
            scanned_once = True
        assert table(lazy) == table(eager)
        assert lazy.victims == eager.victims
        assert (lazy.evicted, lazy.peak_records, lazy.ingested) == (
            eager.evicted, eager.peak_records, eager.ingested)
        for flow in FLOWS:
            a, b = lazy.get(flow), eager.get(flow)
            assert (a is None) == (b is None)
            if a is not None:
                assert [a.epochs_at(sw) for sw in SWITCHES] == [
                    b.epochs_at(sw) for sw in SWITCHES]
        if lazy._by_switch is not _IDLE:
            # built: kept exactly as the eager index is, sorted caches
            # included
            assert buckets(lazy) == buckets(eager)
            for sw in SWITCHES:
                for epochs in PROBES:
                    got = answer(lazy.scan_through(sw, epochs))
                    assert got == answer(eager.scan_through(sw, epochs))
                    # the oracle shares the upkeep code: the flat scan
                    # checks both
                    assert got[0] == [r.flow for r in
                                      lazy.linear_flows_through(sw, epochs)]
        elif len(lazy):
            # no scan since the table opened: nothing was built
            assert lazy._sorted is _IDLE
    return lazy, eager, scanned_once


@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
@given(steps=ops, max_records=st.sampled_from([None, 1, 3, 5]))
def test_lazy_index_answers_like_the_eager_one(steps, max_records):
    replay(steps, max_records)


@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
@given(steps=ops, max_records=st.sampled_from([None, 2, 4]),
       epochs=window)
def test_a_first_scan_after_any_history_matches(steps, max_records, epochs):
    """Whatever happened before it, the scan that builds the index
    answers every switch as the eager index does, and the index it
    builds is the eager one."""
    lazy, eager, _ = replay([s for s in steps if s[0] != "scan"],
                            max_records)
    assert lazy._by_switch is _IDLE
    for sw in SWITCHES:
        assert (answer(lazy.scan_through(sw, epochs))
                == answer(eager.scan_through(sw, epochs)))
    assert (lazy._by_switch is _IDLE) == (len(lazy) == 0)
    assert buckets(lazy) == buckets(eager)
