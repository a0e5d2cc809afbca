"""Host-side query engine (§4.2.2, §5.4, §6.2).

The analyzer sends hosts queries over the agent RPC; these are the query
implementations PathDump/SwitchPointer hosts execute locally:

* :meth:`QueryEngine.top_k_flows` — the Fig 12 "top-100 flows at a
  switch" query.
* :meth:`QueryEngine.flow_size_distribution` — the §5.4 load-imbalance
  query, grouped by the egress interface (next hop after the suspect
  switch).
* :meth:`QueryEngine.flows_matching` — the generic (switchID, epochID)
  header filter of §3.
* :meth:`QueryEngine.flow_details` — telemetry for one flow (priority,
  per-epoch bytes) used during contention diagnosis (§5.1).

Switch-filtered queries are served from the record store's per-switch
inverted index, so their cost is proportional to the records *at the
switch*, not the records on the host; ``top_k_flows`` selects with a
bounded heap instead of a full sort.  Every method reports
``records_scanned`` — the number of records the index actually
examined — so the RPC latency model charges execution cost for the work
done, not for the table size.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from ..core.epoch import EpochRange
from ..simnet.packet import FlowKey
from .records import FlowRecord, FlowRecordStore


@dataclass(slots=True)
class QueryResult:
    """Query payload + the execution-cost accounting the RPC model uses.

    ``as_of_seq`` is the store's ingest watermark (its ``ingested``
    count) when the query ran — the value an incremental reader passes
    back as ``since_seq`` on its next delta query to receive only what
    changed in between.
    """

    payload: object
    records_scanned: int = 0
    records_returned: int = 0
    as_of_seq: int = 0


class FlowSummary:
    """Wire form of one flow's telemetry sent back to the analyzer.

    Scalars are snapshotted when the summary is built (:meth:`of`); the
    container fields (``switch_path``, ``epoch_ranges``) are
    materialized lazily, so queries that return many summaries but whose
    consumers read only flow/bytes (top-k merge, contention filtering)
    never pay for copying per-switch telemetry they do not look at.
    Both containers snapshot *together* on the first access to either,
    so a summary is always internally consistent; when querying a store
    that is still ingesting, touch the summary before the next ingest
    to pin its contents.
    """

    __slots__ = ("flow", "bytes", "packets", "priority",
                 "_switch_path", "_epoch_ranges", "_rec")

    @classmethod
    def of(cls, rec: FlowRecord) -> "FlowSummary":
        """The summary of ``rec`` (the only way one is built): one per
        returned record on every query, so its slots are set directly."""
        summary = cls.__new__(cls)
        summary.flow = rec.flow
        summary.bytes = rec.bytes
        summary.packets = rec.packets
        summary.priority = rec.priority
        summary._switch_path = None
        summary._epoch_ranges = None
        summary._rec = rec
        return summary

    def _materialize(self) -> None:
        rec = self._rec
        self._switch_path = list(rec.switch_path)
        self._epoch_ranges = {sw: (r.lo, r.hi)
                              for sw, r in rec.epoch_ranges.items()}

    @property
    def switch_path(self) -> list[str]:
        if self._switch_path is None:
            self._materialize()
        return self._switch_path

    @property
    def epoch_ranges(self) -> dict[str, tuple[int, int]]:
        if self._epoch_ranges is None:
            self._materialize()
        return self._epoch_ranges

    def epochs_at(self, switch: str) -> Optional[EpochRange]:
        pair = self.epoch_ranges.get(switch)
        return EpochRange(*pair) if pair else None

    def _astuple(self) -> tuple:
        return (self.flow, self.bytes, self.packets, self.priority,
                self.switch_path, self.epoch_ranges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowSummary):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self) -> str:
        return (f"FlowSummary(flow={self.flow!r}, bytes={self.bytes}, "
                f"packets={self.packets}, priority={self.priority}, "
                f"switch_path={self.switch_path!r}, "
                f"epoch_ranges={self.epoch_ranges!r})")


def _topk_key(rec: FlowRecord) -> tuple:
    # nsmallest on (-bytes, flow) == "largest bytes, flow tiebreak",
    # bit-for-bit the order full-sorting produced
    return (-rec.bytes, rec.flow)


class QueryEngine:
    """Executes analyzer queries against one host's record store."""

    __slots__ = ("store", "queries_served")

    def __init__(self, store: FlowRecordStore):
        self.store = store
        self.queries_served = 0

    def _scan(self, switch: Optional[str],
              epochs: Optional[EpochRange]) -> tuple[list[FlowRecord], int]:
        if switch is None:
            return list(self.store), len(self.store)
        return self.store.scan_through(switch, epochs)

    def top_k_flows(self, k: int, *, switch: Optional[str] = None,
                    epochs: Optional[EpochRange] = None) -> QueryResult:
        """The ``k`` largest flows (by bytes) seen through ``switch``.

        Selection runs on a size-``k`` heap (O(m log k)) and only the
        winners are summarized — the losers are never materialized.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        self.queries_served += 1
        matches, scanned = self._scan(switch, epochs)
        top = heapq.nsmallest(k, matches, key=_topk_key)
        payload = [FlowSummary.of(r) for r in top]
        return QueryResult(payload=payload, records_scanned=scanned,
                           records_returned=len(payload))

    def flow_size_distribution(self, *, switch: str,
                               epochs: Optional[EpochRange] = None
                               ) -> QueryResult:
        """Flow sizes grouped by the next hop after ``switch``.

        The next hop identifies the egress interface the suspect switch
        used, which is exactly what the §5.4 imbalance diagnosis
        compares across interfaces.
        """
        self.queries_served += 1
        matches, scanned = self._scan(switch, epochs)
        dist: dict[str, list[int]] = {}
        for rec in matches:
            nxt = self._next_hop_after(rec, switch)
            dist.setdefault(nxt, []).append(rec.bytes)
        return QueryResult(payload=dist, records_scanned=scanned,
                           records_returned=len(matches))

    def _next_hop_after(self, rec: FlowRecord, switch: str) -> str:
        path = rec.switch_path
        if switch in path:
            idx = path.index(switch)
            if idx + 1 < len(path):
                return path[idx + 1]
        return rec.flow.dst  # switch was the last hop: egress to the host

    def all_flows(self) -> QueryResult:
        """Every record on this host (path-conformance sweeps)."""
        self.queries_served += 1
        payload = [FlowSummary.of(r) for r in self.store]
        return QueryResult(payload=payload,
                           records_scanned=len(self.store),
                           records_returned=len(payload))

    def flows_matching(self, switch: str,
                       epochs: Optional[EpochRange] = None, *,
                       since_seq: Optional[int] = None) -> QueryResult:
        """All flows whose headers match the (switchID, epochID) filter.

        With ``since_seq`` this is the incremental-analyzer delta
        query: only records updated after that watermark come back, and
        the result's ``as_of_seq`` is the watermark to resume from.
        Summaries are materialized eagerly here — a delta reader merges
        them while the store keeps ingesting, so lazily-snapshotted
        containers would observe later state than the watermark claims.
        """
        self.queries_served += 1
        matches, scanned = self.store.scan_through(
            switch, epochs, since_seq=since_seq)
        payload = []
        for rec in matches:
            summary = FlowSummary.of(rec)
            if since_seq is not None:
                summary._materialize()
            payload.append(summary)
        return QueryResult(payload=payload, records_scanned=scanned,
                           records_returned=len(payload),
                           as_of_seq=self.store.ingested)

    def flow_details(self, flow: FlowKey) -> QueryResult:
        """Telemetry for one flow (None payload when unknown here)."""
        self.queries_served += 1
        rec = self.store.get(flow)
        payload = FlowSummary.of(rec) if rec else None
        return QueryResult(payload=payload, records_scanned=1,
                           records_returned=1 if rec else 0)
