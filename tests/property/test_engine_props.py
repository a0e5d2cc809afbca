"""Property-based tests: the event engine against a sorted-list oracle.

A random script drives both: events created with :meth:`schedule`
(cancellable) or :meth:`call_after` (not), each of which, when it fires,
spawns more events and cancels some earlier ``schedule`` event — one
still pending, one that already ran, or itself.  Delays sit on a
quarter-second grid so same-instant ties are common, and the run is cut
into ``run(until, max_events)`` slices before a final drain.

Both sides must fire the same events in the same order at the same
times, agree on ``now`` and ``events_processed`` after every slice, and
the engine's clock never moves backward.  Once drained, the engine holds
no live cancellable event: a cancelled or already-run event leaves
nothing behind.

A second script adds bursts of ``schedule`` events cancelled all but a
few, enough to cross the compaction threshold, and ``call_at`` events.
The oracle never compacts; the engine must still fire exactly what it
fires, and after every cancel hold at most ``2·live + COMPACT_MIN``
heap entries.
"""

from hypothesis import given, settings, strategies as st

from repro.simnet.engine import COMPACT_MIN, Simulator

DELAYS = (0.0, 0.25, 0.5, 1.0)
KINDS = ("schedule", "call_after")
#: events one example may create (spawns past it are dropped)
LIMIT = 40


class Oracle:
    """The engine's contract, the slow way: a list sorted on every pop."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._pending = []
        self._seq = 0
        self._cancelled = set()

    def _push(self, delay, fn, arg):
        return self._push_at(self.now + delay, fn, arg)

    def _push_at(self, when, fn, arg):
        seq = self._seq
        self._seq += 1
        self._pending.append((when, seq, fn, arg))
        return seq

    def schedule(self, delay, fn, arg):
        return self._push(delay, fn, arg)

    def call_after(self, delay, fn, arg):
        self._push(delay, fn, arg)

    def call_at(self, when, fn, arg):
        self._push_at(when, fn, arg)

    def cancel(self, event):
        self._cancelled.add(event)

    def run(self, until=None, max_events=None):
        executed = 0
        while self._pending:
            self._pending.sort(key=lambda e: (e[0], e[1]))
            when, seq, fn, arg = self._pending[0]
            if until is not None and when > until:
                break
            self._pending.pop(0)
            if seq in self._cancelled:
                continue
            self.now = when
            fn(arg)
            self.events_processed += 1
            executed += 1
            if max_events is not None and executed >= max_events:
                break
        if (until is not None and self.now < until
                and not any(e[0] <= until and e[1] not in self._cancelled
                            for e in self._pending)):
            self.now = until


class EngineApi:
    """The engine behind the oracle's call shapes."""

    def __init__(self):
        self.sim = Simulator()

    @property
    def now(self):
        return self.sim.now

    def schedule(self, delay, fn, arg):
        return self.sim.schedule(delay, fn, arg)

    def call_after(self, delay, fn, arg):
        self.sim.call_after(delay, fn, arg)

    def call_at(self, when, fn, arg):
        self.sim.call_at(when, fn, arg)

    def cancel(self, event):
        self.sim.cancel(event)


class Player:
    """Runs one script against one side and logs what fired when."""

    def __init__(self, api, script):
        self.api = api
        self.script = script
        self.created = 0
        self.events = {}   # id -> handle, for schedule()d events only
        self.log = []
        self.clock_went_back = False

    def spawn(self, delay, kind):
        if self.created >= LIMIT:
            return
        eid = self.created
        self.created += 1
        if kind == "schedule":
            self.events[eid] = self.api.schedule(delay, self.fire, eid)
        else:
            self.api.call_after(delay, self.fire, eid)

    def cancel(self, pick):
        if self.events:
            ids = sorted(self.events)
            self.api.cancel(self.events[ids[pick % len(ids)]])

    def fire(self, eid):
        now = self.api.now
        if self.log and now < self.log[-1][1]:
            self.clock_went_back = True
        self.log.append((eid, now))
        for action in self.script[eid % len(self.script)]:
            self.act(action, eid)

    def act(self, action, eid=None):
        if action[0] == "spawn":
            self.spawn(action[1], action[2])
        elif action[0] == "cancel":
            self.cancel(action[1])
        elif eid in self.events:   # "cancel_self"
            self.api.cancel(self.events[eid])


spawns = st.tuples(st.just("spawn"), st.sampled_from(DELAYS),
                   st.sampled_from(KINDS))
actions = st.one_of(spawns,
                    st.tuples(st.just("cancel"), st.integers(0, LIMIT)),
                    st.tuples(st.just("cancel_self")))
scripts = st.lists(st.lists(actions, max_size=3), min_size=1, max_size=8)
slices = st.lists(
    st.tuples(st.one_of(st.none(), st.integers(0, 16).map(lambda q: q / 4)),
              st.one_of(st.none(), st.integers(1, 6))),
    max_size=6)


@given(script=scripts, initial=st.lists(spawns, min_size=1, max_size=6),
       early_cancels=st.lists(st.integers(0, LIMIT), max_size=3),
       cuts=slices)
def test_engine_matches_sorted_list_oracle(script, initial, early_cancels,
                                           cuts):
    sides = []
    for api in (EngineApi(), Oracle()):
        player = Player(api, script)
        for _, delay, kind in initial:
            player.spawn(delay, kind)
        for pick in early_cancels:
            player.cancel(pick)
        sides.append((api, player))
    (engine, mine), (oracle, theirs) = sides

    for until, max_events in [*cuts, (None, None)]:
        engine.sim.run(until=until, max_events=max_events)
        oracle.run(until=until, max_events=max_events)
        assert mine.log == theirs.log
        assert engine.now == oracle.now
        assert engine.sim.events_processed == oracle.events_processed
    assert not mine.clock_went_back
    assert len(engine.sim._heap) == 0
    assert not engine.sim._armed   # no live or leftover cancellable id


# -- compaction: bursts of cancelled events --------------------------------

#: a burst alone crosses the compaction threshold
BURST = COMPACT_MIN + 16
#: events one compaction example may create
BURST_LIMIT = 4 * BURST


class BurstPlayer(Player):
    """A :class:`Player` that also fires bursts and ``call_at`` events,
    and counts the live events it holds (not fired, not cancelled)."""

    def __init__(self, api, script):
        super().__init__(api, script)
        self.live = set()
        self.worst_excess = 0   # max of pending - 2*live after a cancel

    def spawn(self, delay, kind):
        if self.created >= BURST_LIMIT:
            return None
        eid = self.created
        self.created += 1
        self.live.add(eid)
        if kind == "schedule":
            self.events[eid] = self.api.schedule(delay, self.fire, eid)
        else:   # "call_at"
            self.api.call_at(self.api.now + delay, self.fire, eid)
        return eid

    def cancel_eid(self, eid):
        self.api.cancel(self.events[eid])
        self.live.discard(eid)
        if isinstance(self.api, EngineApi):
            sim = self.api.sim
            # the dead count that triggers compaction is exact
            assert sim._cancelled == len(sim._heap) - len(self.live)
            excess = len(sim._heap) - 2 * len(self.live)
            self.worst_excess = max(self.worst_excess, excess)

    def cancel(self, pick):
        if self.events:
            ids = sorted(self.events)
            self.cancel_eid(ids[pick % len(ids)])

    def burst(self, delay, keep_every):
        eids = [self.spawn(delay, "schedule") for _ in range(BURST)]
        for i, eid in enumerate(eids):
            if eid is not None and i % keep_every:
                self.cancel_eid(eid)

    def fire(self, eid):
        self.live.discard(eid)
        super().fire(eid)

    def act(self, action, eid=None):
        if action[0] == "burst":
            self.burst(action[1], action[2])
        elif action[0] == "cancel_self":
            if eid in self.events:
                self.cancel_eid(eid)
        else:
            super().act(action, eid)


burst_spawns = st.tuples(st.just("spawn"), st.sampled_from(DELAYS),
                         st.sampled_from(("schedule", "call_at")))
bursts = st.tuples(st.just("burst"), st.sampled_from(DELAYS),
                   st.integers(2, 12))
burst_actions = st.one_of(
    burst_spawns, bursts,
    st.tuples(st.just("cancel"), st.integers(0, BURST_LIMIT)),
    st.tuples(st.just("cancel_self")))
burst_scripts = st.lists(st.lists(burst_actions, max_size=3), min_size=1,
                         max_size=8)


@settings(max_examples=60)
@given(script=burst_scripts,
       initial=st.lists(st.one_of(burst_spawns, bursts), min_size=1,
                        max_size=4),
       cuts=slices)
def test_compaction_matches_uncompacted_oracle(script, initial, cuts):
    sides = []
    for api in (EngineApi(), Oracle()):
        player = BurstPlayer(api, script)
        for action in initial:
            player.act(action)
        sides.append((api, player))
    (engine, mine), (oracle, theirs) = sides

    for until, max_events in [*cuts, (None, None)]:
        engine.sim.run(until=until, max_events=max_events)
        oracle.run(until=until, max_events=max_events)
        assert mine.log == theirs.log
        assert engine.now == oracle.now
        assert engine.sim.events_processed == oracle.events_processed
    assert mine.worst_excess <= COMPACT_MIN
    assert not mine.clock_went_back
    assert len(engine.sim._heap) == 0
    assert not engine.sim._armed
