"""Property: the record store evicts exactly the stalest record.

The store keeps its table in recency order so that eviction reads the
victim off the table's front.  The oracle here keeps no order at all:
after every ``record_for`` it drops ``min(key=(last_seen, _seq))`` —
the least recently observed record, ties to the earliest created, a
record never observed sorting after every other.  Hypothesis drives
random flows into bounded stores with observation times that repeat,
rise and fall, and sometimes leaves a created record unobserved.
"""

import math

from hypothesis import example, given, settings, strategies as st

from repro.hostd.records import FlowRecordStore
from repro.simnet.packet import PROTO_UDP, FlowKey


def key(i):
    return FlowKey(f"s{i}", "d", i, 9, PROTO_UDP)


class Oracle:
    """The eviction rule as a minimum over an unordered table."""

    def __init__(self, bound):
        self.bound = bound
        self.table = {}  # flow -> [last_seen or None, creation seq]
        self.next_seq = 0

    @staticmethod
    def staleness(entry):
        last_seen, seq = entry
        return (math.inf if last_seen is None else last_seen, seq)

    def record_for(self, flow):
        """Create ``flow``'s record if new; the victims it evicts."""
        if flow in self.table:
            return []
        self.table[flow] = [None, self.next_seq]
        self.next_seq += 1
        victims = []
        while len(self.table) > self.bound:
            victim = min(self.table,
                         key=lambda f: self.staleness(self.table[f]))
            del self.table[victim]
            victims.append(victim)
        return victims

    def observe(self, flow, t):
        self.table[flow][0] = t


#: how the next observation time moves from the last one
STEPS = {"equal": 0.0, "increasing": 0.001, "decreasing": -0.001}

operations = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5),       # flow
              st.sampled_from(sorted(STEPS)),              # time step
              st.booleans()),                              # observe it
    min_size=1, max_size=60)


@settings(max_examples=300, deadline=None)
@given(bound=st.integers(min_value=1, max_value=8), ops=operations)
# a tie on last_seen whose earlier-created record was observed later
@example(bound=2, ops=[(0, "equal", False), (1, "equal", True),
                       (0, "equal", True), (2, "equal", True)])
def test_eviction_matches_the_stalest_record_oracle(bound, ops):
    store = FlowRecordStore("h", max_records=bound)
    oracle = Oracle(bound)
    t = 1.0
    for i, step, observe in ops:
        t += STEPS[step]
        flow = key(i)
        before = {rec.flow for rec in store}
        rec = store.record_for(flow)
        victims = oracle.record_for(flow)
        # each victim is the oracle's: what left the table is exactly it
        assert (before | {flow}) - {r.flow for r in store} == set(victims)
        if observe:
            rec.observe(nbytes=100, t=t, priority=0, switch_path=("S1",),
                        offsets=((0, 0),), observed_epoch=0)
            oracle.observe(flow, t)
        assert {r.flow for r in store} == set(oracle.table)
        # iteration promises creation order, whatever the table's order
        assert ([r.flow for r in store]
                == sorted(oracle.table, key=lambda f: oracle.table[f][1]))
        for r in store:
            assert r.last_seen == oracle.table[r.flow][0]
    assert store.evicted == oracle.next_seq - len(oracle.table)
