"""Property-based tests: the ``busy_until`` transmitter against the
eager two-event oracle (``tests/simnet/oracles.py``).

Random arrival schedules — sizes, gaps that land exactly on departure
instants, both disciplines, buffers small enough to drop, the link going
down and up mid-run — are driven through one direction of a link under
both transmitters.  Everything observable must agree: the ``(delivery
time, packet)`` sequence, the six queue counters, ``tx_packets`` /
``tx_bytes``, the tap ``(packet, time)`` sequence, ``dropped_link_down``
and what ``send`` returned.  The runtime holds a buffer only if some
packet had to wait (began serializing after it arrived); the oracle
queues every packet.

The one stated difference is the same-instant tie.  The oracle judges an
arrival that coincides with a departure in event scheduling order; the
runtime serves the departure first.  So the oracle driven *late* — each
action deferred behind everything already scheduled for its instant,
which puts the departure first — must agree on every schedule, and the
oracle driven directly must agree on every schedule where no arrival
coincides with a departure.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.simnet import link as link_module
from repro.simnet.engine import Simulator
from repro.simnet.link import Interface, Link
from repro.simnet.packet import make_udp
from repro.simnet.queues import DropTailFIFO, StrictPriorityQueue
from tests.simnet.oracles import EagerInterface

#: (rate, propagation, time unit of a gap): the dyadic fabric keeps every
#: timestamp exact, so arrivals land on departure instants whenever the
#: arithmetic says so; the decimal one checks the float association of
#: the delivery time on the rates the scenarios use
FABRICS = {"dyadic": (1000.0 * 2 ** 20, 2.0 ** -18, 2.0 ** -20),
           "decimal": (1e9, 2e-6, 1e-6)}
#: bytes; 125 B is one time unit on either fabric
SIZES = (125, 250, 375, 500, 1500)

actions = st.lists(
    st.one_of(
        st.tuples(st.just("pkt"), st.integers(0, 6),
                  st.sampled_from(SIZES), st.integers(0, 2)),
        st.tuples(st.just("down"), st.integers(0, 6), st.just(0), st.just(0)),
        st.tuples(st.just("up"), st.integers(0, 6), st.just(0), st.just(0))),
    min_size=1, max_size=60)


class Sink:
    name = "b"

    def __init__(self, sim):
        self.sim = sim
        self.got = []

    def receive(self, pkt, iface):
        self.got.append((self.sim.now, pkt.flow.sport))


def drive(iface_cls, schedule, fabric, discipline, capacity, *, late=False):
    """Everything observable about one run of ``schedule``."""
    rate, prop, unit = FABRICS[fabric]
    sim = Simulator()
    sink = Sink(sim)
    factory = ((lambda: StrictPriorityQueue(3, capacity_bytes=capacity))
               if discipline == "priority" else
               (lambda: DropTailFIFO(capacity_bytes=capacity)))
    with mock.patch.object(link_module, "Interface", iface_cls):
        link = Link(sim, Sink(sim), sink, rate_bps=rate,
                    propagation_delay=prop, queue_factory=factory)
    iface = link.iface_a
    assert type(iface) is iface_cls
    taps, accepted, arrivals = [], [], {}
    iface.tx_taps += (lambda pkt, t: taps.append((pkt.flow.sport, t)),)

    def act(numbered):
        index, (kind, _gap, size, prio) = numbered
        if kind == "pkt":
            arrivals[index] = sim.now
            accepted.append(iface.send(
                make_udp("a", "b", index, 2, size, priority=prio)))
        elif kind == "down":
            link.set_down()
        else:
            link.set_up()

    ticks = 0
    for numbered in enumerate(schedule):
        ticks += numbered[1][1]
        if late:
            sim.call_at(ticks * unit,
                        lambda a: sim.call_after(0.0, act, a), numbered)
        else:
            sim.call_at(ticks * unit, act, numbered)
    sim.run()
    assert len(iface.queue) == 0
    sizes = {i: a[2] for i, a in enumerate(schedule)}
    departures = {start + sizes[i] * 8 / rate for i, start in taps}
    return {"delivered": sink.got, "queue": iface.queue.snapshot(),
            "tx": (iface.tx_packets, iface.tx_bytes), "taps": taps,
            "down_drops": iface.dropped_link_down, "accepted": accepted,
            "coincide": bool(departures & set(arrivals.values())),
            "buffered": iface.queue._q is not None,
            "waited": any(start > arrivals[i] for i, start in taps)}


@settings(max_examples=300, deadline=None)
@given(schedule=actions, fabric=st.sampled_from(sorted(FABRICS)),
       discipline=st.sampled_from(("fifo", "priority")),
       capacity=st.sampled_from((1500, 2000, 4000, 256 * 1024)))
def test_transmitter_matches_the_eager_oracle(schedule, fabric, discipline,
                                              capacity):
    new = drive(Interface, schedule, fabric, discipline, capacity)
    departure_first = drive(EagerInterface, schedule, fabric, discipline,
                            capacity, late=True)
    as_scheduled = drive(EagerInterface, schedule, fabric, discipline,
                         capacity)
    coincide = as_scheduled.pop("coincide")
    assert new.pop("coincide") == departure_first.pop("coincide")
    assert new.pop("buffered") == new["waited"]
    for oracle in (departure_first, as_scheduled):
        assert oracle.pop("buffered") == any(oracle["accepted"])
    assert new == departure_first
    if not coincide:
        assert new == as_scheduled


def test_the_schedules_can_land_on_a_departure():
    """Keeps the property above from going vacuous: an arrival one
    serialization time after a back-to-back pair coincides with the
    first departure, and scheduling order then drops what the rule
    admits."""
    schedule = [("pkt", 0, 125, 0), ("pkt", 0, 1500, 0), ("pkt", 1, 125, 0)]
    eager = drive(EagerInterface, schedule, "dyadic", "fifo", 1500)
    lazy = drive(Interface, schedule, "dyadic", "fifo", 1500)
    assert eager["coincide"] and lazy["coincide"]
    assert eager["accepted"] == [True, True, False]
    assert lazy["accepted"] == [True, True, True]


def test_a_port_whose_packets_never_wait_holds_no_buffer():
    """Keeps the buffer check above from going vacuous: spaced packets
    pass straight through; one that arrives mid-serialization waits."""
    spaced = [("pkt", 12, 125, 0), ("pkt", 12, 1500, 1), ("pkt", 13, 125, 2)]
    lazy = drive(Interface, spaced, "dyadic", "priority", 4000)
    assert lazy["accepted"] == [True] * 3
    assert not lazy["waited"] and not lazy["buffered"]
    assert lazy["queue"]["enqueued"] == lazy["queue"]["dequeued"] == 3
    assert lazy["queue"]["max_depth_bytes"] == 1500
    crowded = spaced + [("pkt", 0, 125, 0)]
    lazy = drive(Interface, crowded, "dyadic", "fifo", 4000)
    assert lazy["waited"] and lazy["buffered"]
