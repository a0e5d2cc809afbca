"""The flow-record store with per-switch ranges stored eagerly: the
oracle the derived-range records are checked against.

A :class:`EagerRecord` keeps what a record held before it derived its
ranges from one observed-epoch span: a dict of switchID →
:class:`EpochRange`, unioned with every packet's §4.2.1 range (built
per packet by :func:`ranges_of`, as the decoder once did), and its own
copy of the path.  :class:`EagerRecordStore` answers scans from a flat
pass over its table in creation order, evicts the stalest record first
and logs each victim.  Both take what the decoder hands the store — a
path, the offsets of its shape and the observed epoch.

:func:`shaped` turns a switchID → range dict into such a triple, so
tests can keep stating the ranges they mean.  :func:`linear_flows_through`
is the linear scan the real store's per-switch index is checked (and
benchmarked) against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.core.epoch import EpochRange
from repro.hostd.records import _record_seq
from repro.simnet.packet import FlowKey


def ranges_of(path, offsets, observed):
    """switchID → the packet's range there (the estimator's old
    ``ranges_for_path``)."""
    return {sw: EpochRange(observed + lo, observed + hi)
            for sw, (lo, hi) in zip(path, offsets)}


def linear_flows_through(store, switch, epochs=None):
    """Reference O(N) scan of a :class:`FlowRecordStore`'s flat table
    (pre-index behaviour).

    The equivalence oracle for the index property tests and the
    baseline for the query benchmark.  Answers in creation order, as
    the index does.
    """
    out = []
    for rec in store._records.values():
        bounds = rec._bounds_at(switch)
        if bounds is None:
            continue
        if epochs is not None and not (bounds[0] <= epochs.hi
                                       and epochs.lo <= bounds[1]):
            continue
        out.append(rec)
    out.sort(key=_record_seq)
    return out


def shaped(ranges, observed=None):
    """The ``switch_path``, ``offsets`` and ``observed_epoch`` arguments
    of a packet whose :func:`ranges_of` is ``ranges``; the path runs in
    the dict's order and the observed epoch defaults to the least
    ``lo`` (0 for a packet with no path)."""
    if observed is None:
        observed = min((r.lo for r in ranges.values()), default=0)
    return {"switch_path": tuple(ranges),
            "offsets": tuple((r.lo - observed, r.hi - observed)
                             for r in ranges.values()),
            "observed_epoch": observed}


@dataclass(slots=True)
class EagerRecord:
    flow: FlowKey
    switch_path: list = field(default_factory=list)
    epoch_ranges: dict = field(default_factory=dict)
    bytes_by_epoch: dict = field(default_factory=dict)
    packets: int = 0
    bytes: int = 0
    priority: int = 0
    first_seen: Optional[float] = None
    last_seen: Optional[float] = None
    _seq: int = 0
    _update_seq: int = 0

    def observe(self, nbytes, t, priority, switch_path, offsets,
                observed_epoch):
        self.packets += 1
        self.bytes += nbytes
        self.priority = priority
        if self.first_seen is None:
            self.first_seen = t
        self.last_seen = t
        if switch_path and list(switch_path) != self.switch_path:
            self.switch_path = list(switch_path)
        for sw, rng in ranges_of(switch_path, offsets,
                                 observed_epoch).items():
            prev = self.epoch_ranges.get(sw)
            if prev is not None:
                rng = EpochRange(min(prev.lo, rng.lo), max(prev.hi, rng.hi))
            self.epoch_ranges[sw] = rng
        self.bytes_by_epoch[observed_epoch] = (
            self.bytes_by_epoch.get(observed_epoch, 0) + nbytes)

    def epochs_at(self, switch):
        return self.epoch_ranges.get(switch)


def _recency(rec):
    t = rec.last_seen if rec.last_seen is not None else math.inf
    return (t, rec._seq)


class EagerRecordStore:
    """A bounded table of :class:`EagerRecord` in recency order."""

    def __init__(self, host_name, max_records=None):
        self.host_name = host_name
        self.max_records = max_records
        self._records = {}
        self._latest = -math.inf
        self._next_seq = 0
        self.peak_records = self.evicted = self.ingested = 0
        #: flows evicted, in order
        self.victims = []

    def record_for(self, flow):
        rec = self._records.get(flow)
        if rec is None:
            rec = EagerRecord(flow=flow, _seq=self._next_seq)
            self._next_seq += 1
            self._records[flow] = rec
            self.peak_records = max(self.peak_records, len(self._records))
            if (self.max_records is not None
                    and len(self._records) > self.max_records):
                self._evict()
        return rec

    def ingest(self, flow, nbytes, t, priority, switch_path, offsets,
               observed_epoch):
        self.ingested += 1
        rec = self.record_for(flow)
        rec._update_seq = self.ingested
        rec.observe(nbytes, t, priority, switch_path, offsets,
                    observed_epoch)
        if t < self._latest:
            self._records = dict(sorted(self._records.items(),
                                        key=lambda kv: _recency(kv[1])))
        else:
            self._latest = t
            self._records[flow] = self._records.pop(flow)
        return rec

    def _evict(self):
        while len(self._records) > self.max_records:
            observed = [r for r in self._records.values()
                        if r.last_seen is not None]
            victim = (min(observed, key=_recency) if observed
                      else min(self._records.values(),
                               key=lambda r: r._seq))
            del self._records[victim.flow]
            self.victims.append(victim.flow)
            self.evicted += 1

    def drop_all(self):
        lost = len(self._records)
        self._records = {}
        self._latest = -math.inf
        return lost

    def get(self, flow):
        return self._records.get(flow)

    def __len__(self):
        return len(self._records)

    def __iter__(self):
        return iter(sorted(self._records.values(), key=lambda r: r._seq))

    def scan_through(self, switch, epochs=None, *, since_seq=None):
        """Every record with a range at ``switch``, in creation order,
        and how many an index sorted by ``lo`` would have examined."""
        at = [rec for rec in self if switch in rec.epoch_ranges]
        if epochs is not None:
            at = [rec for rec in at
                  if rec.epoch_ranges[switch].lo <= epochs.hi]
        scanned = len(at)
        return [rec for rec in at
                if (epochs is None
                    or rec.epoch_ranges[switch].hi >= epochs.lo)
                and (since_seq is None or rec._update_seq > since_seq)
                ], scanned

    def flows_through(self, switch, epochs=None):
        return self.scan_through(switch, epochs)[0]
