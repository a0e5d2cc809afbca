"""Property: records that derive their ranges from one observed-epoch
span answer exactly like records that store a range per switch.

A :class:`~repro.hostd.records.FlowRecord` keeps its path, the shared
offsets of its (path length, embed index) shape and the span of epochs
it observed; a shape change folds the ranges derived so far into a dict
and restarts the span.  ``tests/hostd/eager_records.py`` keeps the
per-switch dicts eagerly, unioning every packet's range.  Both stores
replay the same random ops — ingest over paths and embed positions that
change mid-flow (and paths handed as equal copies, which are no
change, and packets with no path, which move no range), observed epochs skewed and out of order, observation times
stepping back, repeats of a flow's last header through ``refold``,
records created and never observed, evictions from a bounded table and
crash losses — and must agree after every step on ``epochs_at``, the
records' and their summaries' ``epoch_ranges`` (key order included),
alert tuples, table order and eviction victims, and on every
``scan_through`` / ``flows_through`` answer (records, order and
``records_scanned``).  A record whose shape never changed holds no
folded dict.
"""

from types import SimpleNamespace

from hypothesis import Phase, given, settings, strategies as st

from repro.core.epoch import EpochRange, EpochRangeEstimator
from repro.hostd.query import FlowSummary
from repro.hostd.records import _IDLE, FlowRecordStore
from repro.hostd.triggers import alert_tuples_from_record
from repro.simnet.packet import PROTO_UDP, FlowKey

from tests.hostd.eager_records import EagerRecordStore

ESTIMATOR = EpochRangeEstimator(alpha_ms=1.0, epsilon_ms=1.0,
                                delta_ms=2.0)
SWITCHES = ["S1", "S2", "S3", "S4", "S5", "S6"]
PATHS = [("S1", "S2", "S3"), ("S1", "S4", "S3"), ("S5",), ("S2", "S6"),
         ("S4", "S5", "S6", "S1"), ("S3", "S2", "S1")]
FLOWS = [FlowKey(f"s{i}", "d", 1000 + i, 9, PROTO_UDP) for i in range(6)]
WINDOWS = [EpochRange(k, k + 2) for k in range(-4, 40, 5)]
RESTRICTS = [None, EpochRange(6, 9), EpochRange(50, 60)]

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


ingest = st.tuples(
    st.just("ingest"), st.integers(0, len(FLOWS) - 1),
    st.integers(1, 5_000),
    # a step back in time re-sorts the table
    st.sampled_from([1, 1, 1, 0, -3]),
    # None: the flow's current path (mostly), "empty": a packet with no
    # path, else a new one
    st.sampled_from([None, None, None, "empty", *range(len(PATHS))]),
    st.sampled_from([None, None, 0, 1, 3]),
    # skewed and out of order
    st.integers(0, 30),
    # the same path as an equal copy (a rebuilt plan): no change
    st.booleans())
repeat = st.tuples(st.just("repeat"), st.integers(0, len(FLOWS) - 1),
                   st.sampled_from([1, 0]))
touch = st.tuples(st.just("touch"), st.integers(0, len(FLOWS) - 1))
scan = st.tuples(st.just("scan"), st.sampled_from(SWITCHES),
                 st.one_of(st.none(), st.sampled_from(WINDOWS)),
                 st.one_of(st.none(), st.integers(0, 30)))
crash = st.tuples(st.just("crash"))

ops = st.lists(st.one_of(ingest, ingest, ingest, ingest, repeat, touch,
                         scan, scan, crash),
               min_size=20, max_size=60)


def answer(records_and_count):
    records, scanned = records_and_count
    return [r.flow for r in records], scanned


def table(store):
    return [(r.flow, r._seq, r.last_seen) for r in store._records.values()]


def pairs(ranges):
    return [(sw, (r.lo, r.hi)) for sw, r in ranges.items()]


def check_record(rec, oracle, shapes):
    assert rec.switch_path == tuple(oracle.switch_path)
    assert list(rec.epoch_ranges.items()) == pairs(oracle.epoch_ranges)
    assert [rec.epochs_at(sw) for sw in SWITCHES] == [
        oracle.epochs_at(sw) for sw in SWITCHES]
    summary = FlowSummary.of(rec)
    assert list(summary.epoch_ranges.items()) == pairs(oracle.epoch_ranges)
    assert summary.switch_path == oracle.switch_path
    assert [summary.epochs_at(sw) for sw in SWITCHES] == [
        oracle.epochs_at(sw) for sw in SWITCHES]
    for restrict in RESTRICTS:
        assert (alert_tuples_from_record(rec, restrict)
                == alert_tuples_from_record(oracle, restrict))
    assert list(rec.bytes_by_epoch.items()) == list(
        oracle.bytes_by_epoch.items())
    assert (rec.packets, rec.bytes, rec.first_seen, rec.last_seen,
            rec._update_seq) == (oracle.packets, oracle.bytes,
                                 oracle.first_seen, oracle.last_seen,
                                 oracle._update_seq)
    # one representation: the fold dict exists only after a change
    assert (rec._folded is None) == (len(shapes) <= 1)


def replay(steps, max_records):
    lazy = LoggedStore("h", max_records=max_records)
    eager = EagerRecordStore("h", max_records=max_records)
    t = 0
    #: flow id -> (path, embed index) it was sent over last
    route = {}
    #: flow id -> the last header's (args to ingest, tag)
    last = {}
    #: flow id -> the shapes its live record has taken
    shapes = {}
    for step in steps:
        kind = step[0]
        if kind == "ingest":
            _, fid, nbytes, dt, path_i, embed, observed, copy = step
            if lazy.get(FLOWS[fid]) is None:
                shapes[fid] = set()
            if path_i == "empty":
                # no path: counts, moves no range, keeps the shape
                handed = offsets = ()
            else:
                path, embed_at = route.get(fid, (PATHS[fid], 0))
                if path_i is not None:
                    path = PATHS[path_i]
                if embed is not None:
                    embed_at = embed
                embed_at %= len(path)
                route[fid] = (path, embed_at)
                handed = tuple(list(path)) if copy else path
                offsets = ESTIMATOR.offsets(len(path), embed_at)
                shapes[fid].add((path, offsets))
            t += dt
            args = (FLOWS[fid], nbytes, 0.001 * t, fid % 3, handed,
                    offsets, observed)
            tag = object()
            lazy.ingest(*args, tag, 0, 0)
            eager.ingest(*args)
            last[fid] = (args, tag)
        elif kind == "repeat":
            _, fid, dt = step
            if fid not in last:
                continue
            args, tag = last[fid]
            t += dt
            args = (args[0], args[1], 0.001 * t, *args[3:])
            pkt = SimpleNamespace(flow=args[0], size=args[1],
                                  priority=args[3])
            if lazy.get(args[0]) is None:
                shapes[fid] = set()
            if not lazy.refold(pkt, args[2], tag, 0, 0):
                lazy.ingest(*args, tag, 0, 0)
            if args[4]:
                shapes[fid].add((tuple(args[4]), args[5]))
            eager.ingest(*args)
        elif kind == "touch":
            fid = step[1]
            if lazy.get(FLOWS[fid]) is None:
                shapes[fid] = set()
            for store in (lazy, eager):
                store.record_for(FLOWS[fid])
        elif kind == "crash":
            assert lazy.drop_all() == eager.drop_all()
        else:
            _, sw, epochs, since = step
            assert (answer(lazy.scan_through(sw, epochs, since_seq=since))
                    == answer(eager.scan_through(sw, epochs,
                                                 since_seq=since)))
            assert ([r.flow for r in lazy.flows_through(sw, epochs)]
                    == [r.flow for r in eager.flows_through(sw, epochs)])
        assert table(lazy) == table(eager)
        assert lazy.victims == eager.victims
        assert (lazy.evicted, lazy.peak_records, lazy.ingested) == (
            eager.evicted, eager.peak_records, eager.ingested)
        for fid, flow in enumerate(FLOWS):
            a, b = lazy.get(flow), eager.get(flow)
            assert (a is None) == (b is None)
            if a is not None:
                check_record(a, b, shapes[fid])
        if lazy._by_switch is not _IDLE:
            # a built index and its sorted caches stay exact
            for sw in SWITCHES:
                for epochs in (None, *WINDOWS):
                    assert (answer(lazy.scan_through(sw, epochs))
                            == answer(eager.scan_through(sw, epochs)))
    return lazy, eager


@settings(max_examples=150, deadline=None, phases=NO_SHRINK)
@given(steps=ops, max_records=st.sampled_from([None, 1, 3, 5]))
def test_span_records_answer_like_per_switch_dicts(steps, max_records):
    replay(steps, max_records)


@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
@given(steps=ops, max_records=st.sampled_from([None, 2, 4]),
       epochs=st.one_of(st.none(), st.sampled_from(WINDOWS)))
def test_a_first_scan_after_any_history_matches(steps, max_records,
                                                epochs):
    """The scan that builds the index reads every record's switch set,
    folded switches included."""
    lazy, eager = replay([s for s in steps if s[0] != "scan"],
                         max_records)
    assert lazy._by_switch is _IDLE
    for sw in SWITCHES:
        assert (answer(lazy.scan_through(sw, epochs))
                == answer(eager.scan_through(sw, epochs)))
