"""End-host flow-record storage (§4.2, §6 prototype description).

The paper's OVS module keeps, per flow: the 5-tuple, the list of
switchIDs on the path, a series of epoch ranges corresponding to each
switchID, byte/packet counts, and a DSCP value as flow priority —
"initially maintained in memory and flushed to a local storage,
implemented using MongoDB".  We reproduce the same record schema in an
in-memory table; a record evicted past the table's bound is dropped
(the storage backend is irrelevant to system behaviour; see DESIGN.md).
The per-switch ranges are not stored: a record holds its path, the
shared offsets of its §4.2.1 shape and one span of observed epochs, and
derives each switch's range from them (:class:`FlowRecord`).

Beyond the flat table, the store keeps a **per-switch inverted index**
so the (switchID, epochID) header filter of §3 no longer scans every
record on the host.  Only scans read the index, and a diagnosis asks
only the hosts its pointers name, so the index is built by the store's
first scan, in one pass over the table, and kept from then on; a store
no scan reached keeps none.  Index invariants, from the first scan on:

* ``_by_switch[sw]`` holds exactly the live records ``r`` whose switch
  set — ``r.switch_path`` and the switches of its folded ranges, the
  keys of ``r.epoch_ranges`` — holds ``sw``; membership is added the
  moment a record takes a shape with ``sw`` on its path (via the
  record's store listener) and removed when the record is evicted or
  replaced.
* ``_sorted[sw]``, when present, is a cache of the bucket ordered by
  ``(epoch lo at sw, record creation seq)``; it is dropped whenever the
  bucket's membership changes or any member's ``lo`` at ``sw`` may have
  moved (a new shape, or a span whose ``lo`` moved down; ``lo`` only
  ever decreases), and rebuilt lazily on the next windowed query.
  ``hi`` extensions never invalidate it: queries derive ``hi`` from the
  live record.
* query results are ordered by record creation sequence — indexed
  queries return byte-identical payloads to a linear scan of
  ``_records`` in creation order.

The flat table is also the **recency order** eviction reads: observing
a record moves it to the table's end, so while observation times never
go backwards the table runs in ``last_seen`` order and the victim — the
least ``last_seen``, then the least creation ``_seq`` — sits in its
leading run of equal ``last_seen``.  An observation earlier than the
latest (only a direct :meth:`FlowRecord.observe` caller can make one;
the simulator's clock is monotone) re-sorts the table.  Readers that
promise creation order sort by ``_seq`` themselves: iteration sorts the
table, :meth:`linear_flows_through` only its matches, and a scan its
bucket — so the order in which records entered a bucket never shows.

Most hosts of a large fabric never receive a packet, so a store is
**idle** until its first record arrives: its three tables are the one
shared, read-only, empty mapping ``_IDLE``, which answers every read
exactly as an empty table would.  :meth:`FlowRecordStore._open` gives
the store a record table of its own; the one place a record arrives
(``record_for``) calls it, and every other write touches a table only
through a record already in it.  The two index tables stay ``_IDLE``
until the first scan (:meth:`FlowRecordStore._index`), and while they
are, index upkeep does nothing.  Losing every record (``drop_all``)
makes the store idle again, with no index.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping, Optional

from ..core.epoch import EpochRange
from ..core.headers import VlanDoubleTag
from ..simnet.packet import FlowKey, Packet


#: the per-position ``(lo, hi)`` widening of one (path length, embed
#: index) shape (:meth:`~repro.core.epoch.EpochRangeEstimator.offsets`)
Offsets = tuple[tuple[int, int], ...]


@dataclass(slots=True)
class FlowRecord:
    """Telemetry accumulated for one flow at its destination host.

    A packet's §4.2.1 range at each switch of its path is the one epoch
    it observed (the embedding switch's) widened by a fixed offset per
    (path length, embedder position).  So a record keeps its
    ``switch_path`` and that shape's offsets (``_shape``) — the
    CherryPick plan's and the estimator's own shared tuples — and the
    span ``[_span_lo, _span_hi]`` of the epochs it observed over them:
    the union of every packet's range at the switch in position ``pos``
    is ``(_span_lo + lo_pos, _span_hi + hi_pos)``.  A packet over
    another path or embed shape folds the ranges derived so far into
    ``_folded`` (switchID → ``(lo, hi)``; None while the shape never
    changed) and restarts the span on the new shape.
    :attr:`epoch_ranges` and :meth:`epochs_at` read ``_folded`` ∪ the
    current shape.  A path names each switch once (a decoded path is a
    shortest path).

    ``bytes_by_epoch`` counts payload bytes per *observed* epochID — the
    "<switchID, a list of epochIDs, a list of byte counts per epoch>"
    tuples of §5.1 are assembled from the two.

    A record owned by a :class:`FlowRecordStore` carries a back-pointer
    (``_store``) so :meth:`observe` can keep the store's per-switch
    index in sync; a standalone record works unchanged with no store
    attached.

    ``_tag`` and the three fields after it remember the VLAN header the
    store folded last, for :meth:`FlowRecordStore.refold`; any
    :meth:`observe` forgets it.
    """

    flow: FlowKey
    switch_path: tuple[str, ...] = ()
    bytes_by_epoch: dict[int, int] = field(default_factory=dict)
    packets: int = 0
    bytes: int = 0
    priority: int = 0
    first_seen: Optional[float] = None
    last_seen: Optional[float] = None
    _shape: Offsets = field(default=(), repr=False)
    _span_lo: int = field(default=0, repr=False)
    _span_hi: int = field(default=0, repr=False)
    _folded: Optional[dict[str, tuple[int, int]]] = field(default=None,
                                                          repr=False)
    _store: Optional["FlowRecordStore"] = field(
        default=None, repr=False, compare=False)
    _seq: int = field(default=0, repr=False, compare=False)
    #: the owning store's ingest count when this record last absorbed a
    #: packet — the watermark delta queries (``since_seq``) filter on.
    #: Records mutate in place as epoch ranges widen, so incremental
    #: readers key on "updated since my last watermark", not creation.
    _update_seq: int = field(default=0, repr=False, compare=False)
    #: the header folded last: its tag, the host epoch and topology
    #: version it was decoded under, and the epoch it unwrapped to
    _tag: Optional[VlanDoubleTag] = field(default=None, repr=False,
                                          compare=False)
    _tag_epoch: int = field(default=0, repr=False, compare=False)
    _tag_version: int = field(default=0, repr=False, compare=False)
    _tag_observed: int = field(default=0, repr=False, compare=False)

    def observe(self, nbytes: int, t: float, priority: int,
                switch_path: tuple[str, ...], offsets: Offsets,
                observed_epoch: int) -> None:
        """Fold one decoded packet into the record.

        ``switch_path`` and ``offsets`` are kept by reference: the
        decoder hands every packet that decodes alike the same two
        tuples, so a packet over the record's shape compares two
        identities and moves at most one end of the span.  A packet
        with no path counts, but moves no range and keeps the record's
        path and shape.
        """
        self._tag = None
        self.packets += 1
        self.bytes += nbytes
        self.priority = priority
        if self.first_seen is None:
            self.first_seen = t
        self.last_seen = t
        store = self._store
        if store is not None:
            store._observed(self, t)
        self.bytes_by_epoch[observed_epoch] = (
            self.bytes_by_epoch.get(observed_epoch, 0) + nbytes)
        if not switch_path:
            return
        if ((switch_path is not self.switch_path
                or offsets is not self._shape)
                and (switch_path != self.switch_path
                     or offsets != self._shape)):
            if self._shape:
                self._folded = self.epoch_ranges
            self.switch_path = switch_path
            self._shape = offsets
            self._span_lo = self._span_hi = observed_epoch
        elif observed_epoch < self._span_lo:
            self._span_lo = observed_epoch
        else:
            if observed_epoch > self._span_hi:
                self._span_hi = observed_epoch
            return
        # a new shape, or ``lo`` moved down at every switch on the path
        if store is not None:
            store._on_epochs_updated(self)

    @property
    def epoch_ranges(self) -> dict[str, tuple[int, int]]:
        """switchID → the ``(lo, hi)`` union of the flow's per-packet
        ranges there, in the order the switches were first seen
        (derived: a fresh dict on every read)."""
        if self._folded is None:
            lo, hi = self._span_lo, self._span_hi
            return {sw: (lo + a, hi + b)
                    for sw, (a, b) in zip(self.switch_path, self._shape)}
        return {sw: self._bounds_at(sw)
                for sw in dict.fromkeys(self._switches())}

    def _bounds_at(self, switch: str) -> Optional[tuple[int, int]]:
        """``epoch_ranges.get(switch)`` without deriving the others."""
        path = self.switch_path
        bounds = None
        # most switches a linear scan asks about are off the path, and
        # ``in`` answers a miss four times faster than ``index`` raising
        if switch in path:
            a, b = self._shape[path.index(switch)]
            bounds = (self._span_lo + a, self._span_hi + b)
        folded = self._folded
        if folded is not None:
            prev = folded.get(switch)
            if prev is not None:
                bounds = prev if bounds is None else (
                    min(prev[0], bounds[0]), max(prev[1], bounds[1]))
        return bounds

    def _switches(self) -> tuple[str, ...]:
        """Every switch the record holds a range at (repeats allowed)."""
        folded = self._folded
        path = self.switch_path
        return path if folded is None else (*folded, *path)

    def epochs_at(self, switch: str) -> Optional[EpochRange]:
        bounds = self._bounds_at(switch)
        return None if bounds is None else EpochRange(*bounds)


#: the latest observation time of a store with none yet (shared)
_NEVER = -math.inf

#: the tables of every idle store (module docstring): empty, and
#: read-only, so a write that skipped ``_open`` fails loudly instead of
#: filling a table all idle stores share
_IDLE: Mapping = MappingProxyType({})


def _record_seq(rec: "FlowRecord") -> int:
    return rec._seq


def _recency(rec: FlowRecord) -> tuple[float, int]:
    # the table order a re-sort restores; a record with no observation
    # yet (one being created right now) sorts last
    t = rec.last_seen if rec.last_seen is not None else math.inf
    return (t, rec._seq)


class FlowRecordStore:
    """Per-host table of :class:`FlowRecord`.

    ``max_records`` bounds the in-memory table the way the paper's OVS
    module does ("initially maintained in memory and flushed to a local
    storage"): when the bound is exceeded, the stalest records (by
    ``last_seen``, ties to the earliest created) are dropped until the
    table is back under the bound — read off the front of the table,
    which is kept in recency order (module docstring).

    The per-switch inverted index (module docstring), built by the
    first scan, makes :meth:`flows_through` cost O(records at the
    switch) instead of O(records on the host).
    """

    __slots__ = ("host_name", "max_records", "_records", "_by_switch",
                 "_sorted", "_latest", "_next_seq", "peak_records",
                 "evicted", "ingested")

    def __init__(self, host_name: str,
                 max_records: Optional[int] = None):
        if max_records is not None and (
                type(max_records) is not int or max_records < 1):
            raise ValueError(f"max_records must be an int >= 1 or None, "
                             f"got {max_records!r}")
        self.host_name = host_name
        self.max_records = max_records
        # idle until the first record arrives (module docstring)
        self._close()
        #: the next record's creation number; query results come back
        #: in this order
        self._next_seq = 0
        self.peak_records = 0
        self.evicted = 0
        #: decoded packets folded into the table (ingest throughput)
        self.ingested = 0

    def _open(self) -> None:
        """Give an idle store a table of its own (its first record)."""
        self._records: dict[FlowKey, FlowRecord] = {}

    def _close(self) -> None:
        """Make the store idle: every table is the shared ``_IDLE``."""
        self._records = self._by_switch = self._sorted = _IDLE
        #: the latest observation time in the table's order
        self._latest = _NEVER

    def record_for(self, flow: FlowKey) -> FlowRecord:
        rec = self._records.get(flow)
        if rec is None:
            if self._records is _IDLE:
                self._open()
            rec = FlowRecord(flow=flow, _store=self, _seq=self._next_seq)
            self._next_seq += 1
            records = self._records
            records[flow] = rec
            if len(records) > self.peak_records:
                self.peak_records = len(records)
            if (self.max_records is not None
                    and len(records) > self.max_records):
                self._evict()
        return rec

    def ingest(self, flow: FlowKey, nbytes: int, t: float,
               priority: int, switch_path: tuple[str, ...],
               offsets: Offsets, observed_epoch: int,
               tag: Optional[VlanDoubleTag] = None, epoch: int = 0,
               version: int = 0) -> FlowRecord:
        """One decoded packet → record update (decoder entry point); a
        VLAN packet's header is remembered for :meth:`refold`."""
        self.ingested += 1
        rec = self._records.get(flow)
        if rec is None:
            rec = self.record_for(flow)
        rec._update_seq = self.ingested
        rec.observe(nbytes, t, priority, switch_path, offsets,
                    observed_epoch)
        rec._tag, rec._tag_epoch, rec._tag_version, rec._tag_observed = (
            tag, epoch, version, observed_epoch)
        return rec

    def refold(self, pkt: Packet, t: float, tag: VlanDoubleTag,
               epoch: int, version: int) -> bool:
        """Fold ``pkt`` if its flow's record folded this very header last:
        the same tag object, host epoch and topology version parse to
        what the record already holds, so the fold only counts the
        packet.  False, touching nothing, when ``pkt`` needs a parse."""
        rec = self._records.get(pkt.flow)
        if (rec is None or rec._tag is not tag or rec._tag_epoch != epoch
                or rec._tag_version != version):
            return False
        self.ingested += 1
        rec._update_seq = self.ingested
        rec.packets += 1
        rec.bytes += pkt.size
        rec.priority = pkt.priority
        rec.last_seen = t
        self._observed(rec, t)
        rec.bytes_by_epoch[rec._tag_observed] += pkt.size
        return True

    # -- recency order ---------------------------------------------------------

    def _observed(self, rec: FlowRecord, t: float) -> None:
        """Record listener: ``rec`` was just observed at ``t`` — move it
        to the table's end, or re-sort when that would break the order."""
        records = self._records
        if t < self._latest:
            self._records = {r.flow: r for r in sorted(records.values(),
                                                       key=_recency)}
            return
        self._latest = t
        del records[rec.flow]
        records[rec.flow] = rec

    # -- inverted-index maintenance ------------------------------------------

    def _index(self) -> Mapping[str, dict[FlowKey, FlowRecord]]:
        """The per-switch index, built in one pass over the table the
        first time a scan asks for it (``_IDLE`` while the store is)."""
        if self._by_switch is _IDLE and self._records:
            #: switchID -> {flow -> record}: exactly the records that
            #: traversed the switch (index invariant 1)
            self._by_switch: dict[str, dict[FlowKey, FlowRecord]] = {}
            #: switchID -> ([lo epochs], [(lo, seq, record)]) sorted cache
            self._sorted: dict[str, tuple[
                list[int], list[tuple[int, int, FlowRecord]]]] = {}
            for rec in self._records.values():
                for sw in rec._switches():
                    self._by_switch.setdefault(sw, {})[rec.flow] = rec
        return self._by_switch

    def _on_epochs_updated(self, rec: FlowRecord) -> None:
        """Record listener: ``rec`` took a new shape, or its ``lo`` moved
        down along its path — keep per-switch membership + sort fresh
        (an index no scan has built yet needs no upkeep)."""
        if self._by_switch is _IDLE:
            return
        for sw in rec.switch_path:
            self._by_switch.setdefault(sw, {})[rec.flow] = rec
            self._sorted.pop(sw, None)

    def _unindex_record(self, rec: FlowRecord) -> None:
        rec._store = None
        if self._by_switch is _IDLE:
            return
        for sw in rec._switches():
            bucket = self._by_switch.get(sw)
            if bucket is not None:
                bucket.pop(rec.flow, None)
                if not bucket:
                    del self._by_switch[sw]
            self._sorted.pop(sw, None)

    def _sorted_bucket(self, switch: str
                       ) -> tuple[list[int],
                                  list[tuple[int, int, FlowRecord]]]:
        cached = self._sorted.get(switch)
        if cached is None:
            entries = sorted(
                (rec._bounds_at(switch)[0], rec._seq, rec)
                for rec in self._by_switch[switch].values())
            cached = ([lo for lo, _, _ in entries], entries)
            self._sorted[switch] = cached
        return cached

    # -- eviction --------------------------------------------------------------

    def _evict(self) -> None:
        """Drop stalest records until under the memory bound: each victim
        is the earliest created of the table's leading run of equal
        ``last_seen``.  A record never observed (the one being created,
        or one a direct ``record_for`` caller left) sorts after every
        other, wherever it sits."""
        assert self.max_records is not None
        records = self._records
        while len(records) > self.max_records:
            victim: Optional[FlowRecord] = None
            for rec in records.values():
                if rec.last_seen is None:
                    continue
                if victim is None:
                    victim = rec
                elif rec.last_seen != victim.last_seen:
                    break
                elif rec._seq < victim._seq:
                    victim = rec
            if victim is None:  # nothing observed yet
                victim = min(records.values(), key=_record_seq)
            del records[victim.flow]
            self._unindex_record(victim)
            self.evicted += 1

    def drop_all(self) -> int:
        """Lose every in-memory record (crash loss).

        Unlike eviction this leaves the ``evicted`` counter untouched —
        the records are simply gone, which is what the agent-crash
        fault models.  Returns how many were lost.
        """
        lost = len(self._records)
        for rec in self._records.values():
            rec._store = None
        self._close()
        return lost

    def get(self, flow: FlowKey) -> Optional[FlowRecord]:
        return self._records.get(flow)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[FlowRecord]:
        """Records in creation order (the table itself is in recency
        order)."""
        return iter(sorted(self._records.values(), key=_record_seq))

    # -- the §3 header filter ----------------------------------------------

    def flows_through(self, switch: str,
                      epochs: Optional[EpochRange] = None
                      ) -> list[FlowRecord]:
        """Records whose path crossed ``switch`` (in ``epochs``, if given).

        This is the header-filtering primitive of §3: "filter the headers
        for packets that match a (switchID, epochID) pair".  Served from
        the inverted index; results come back in record-creation order,
        identical to a linear scan of the flat table.
        """
        return self.scan_through(switch, epochs)[0]

    def scan_through(self, switch: str,
                     epochs: Optional[EpochRange] = None, *,
                     since_seq: Optional[int] = None
                     ) -> tuple[list[FlowRecord], int]:
        """:meth:`flows_through` plus the number of records examined.

        The second element is the query-execution cost the RPC latency
        model charges: the size of the index bucket actually inspected,
        not the size of the whole table.

        ``since_seq`` turns the scan into a **delta query**: only
        records updated after that ingest watermark (the store's
        ``ingested`` count at the previous read) are returned.  Because
        a record's epoch range at a switch only ever widens, matching
        is monotone — re-reading deltas and merging by flow reproduces
        exactly the one-shot answer at the same watermark.
        """
        bucket = self._index().get(switch)
        if not bucket:
            return [], 0
        if epochs is None:
            matches = sorted(bucket.values(), key=_record_seq)
            scanned = len(matches)
            if since_seq is not None:
                matches = [rec for rec in matches
                           if rec._update_seq > since_seq]
            return matches, scanned
        # sorted-by-lo cache + bisect: records with lo > epochs.hi can
        # never intersect the window and are skipped without a look
        los, entries = self._sorted_bucket(switch)
        cut = bisect_right(los, epochs.hi)
        hits = [(seq, rec) for _, seq, rec in entries[:cut]
                if rec._bounds_at(switch)[1] >= epochs.lo
                and (since_seq is None or rec._update_seq > since_seq)]
        hits.sort()
        return [rec for _, rec in hits], cut

    def linear_flows_through(self, switch: str,
                             epochs: Optional[EpochRange] = None
                             ) -> list[FlowRecord]:
        """Reference O(N) scan of the flat table (pre-index behaviour).

        Kept as the equivalence oracle for the index property tests and
        the baseline for the query benchmarks; not used on the query
        path.  Answers in creation order, as the index does.
        """
        out = []
        for rec in self._records.values():
            bounds = rec._bounds_at(switch)
            if bounds is None:
                continue
            if epochs is not None and not (bounds[0] <= epochs.hi
                                           and epochs.lo <= bounds[1]):
                continue
            out.append(rec)
        out.sort(key=_record_seq)
        return out
