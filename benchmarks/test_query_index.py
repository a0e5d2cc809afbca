"""Query-path index benchmark (ROADMAP "fast as the hardware allows").

Populates one host's record store with 10k+ flow records spread across
a 64-switch fabric, then times the two Fig 12 query primitives —
``flows_matching`` and ``top_k_flows`` — through the per-switch
inverted index versus the pre-index linear scan
(``tests/hostd/eager_records.py::linear_flows_through``, the old
implementation, kept with the test oracles).  Asserts the ≥5× speedup the index exists for,
its deterministic twin — the indexed scans examine ≥5× fewer records
than a linear scan of every query's table — and that both paths return
byte-identical payloads (the equivalence the property suite checks
exhaustively on small cases)."""

import time

import pytest

from repro.core.epoch import EpochRange
from repro.hostd.query import FlowSummary, QueryEngine
from repro.hostd.records import FlowRecordStore
from repro.simnet.packet import FlowKey, PROTO_UDP

from benchmarks.reporting import emit
from tests.hostd.eager_records import linear_flows_through

N_RECORDS = 10_000
N_SWITCHES = 64
PATH_LEN = 3
K = 100
ROUNDS = 3
WINDOWS = [None, EpochRange(0, 9), EpochRange(40, 49)]
#: the range at hop j is [observed + j, observed + j + 1]: one shared
#: offsets tuple, as the decoder hands every packet of one shape
OFFSETS = tuple((j, j + 1) for j in range(PATH_LEN))


def build_store() -> FlowRecordStore:
    store = FlowRecordStore("bench-host")
    for i in range(N_RECORDS):
        first = i % (N_SWITCHES - PATH_LEN + 1)
        path = tuple(f"S{first + j}" for j in range(PATH_LEN))
        store.ingest(
            FlowKey(f"src{i}", f"dst{i % 96}", 1000 + i % 5000, 9,
                    PROTO_UDP),
            nbytes=100 + (i * 37) % 9000, t=1e-6 * i, priority=i % 3,
            switch_path=path, offsets=OFFSETS,
            observed_epoch=(i * 7) % 50)
    return store


def linear_flows_matching(store, switch, epochs):
    """The pre-index implementation of the §3 header filter."""
    return [FlowSummary.of(r)
            for r in linear_flows_through(store, switch, epochs)]


def linear_top_k(store, k, switch, epochs):
    """The pre-index implementation: full scan + full sort."""
    matches = linear_flows_through(store, switch, epochs)
    top = sorted(matches, key=lambda r: (-r.bytes, r.flow))[:k]
    return [FlowSummary.of(r) for r in top]


def time_queries(fn) -> float:
    """Seconds for one sweep of every (switch, window) combination."""
    start = time.perf_counter()
    for s in range(N_SWITCHES):
        for win in WINDOWS:
            fn(f"S{s}", win)
    return time.perf_counter() - start


def scanned_share(store) -> tuple[int, int]:
    """(records the indexed sweep examines, records a linear sweep
    examines): work counts, the same on every machine and run."""
    scanned = queries = 0
    for s in range(N_SWITCHES):
        for win in WINDOWS:
            scanned += store.scan_through(f"S{s}", win)[1]
            queries += 1
    return scanned, queries * len(store)


def run_bench():
    store = build_store()
    engine = QueryEngine(store)
    # warm the per-switch sorted caches once, as a live system would be
    time_queries(lambda sw, win: engine.flows_matching(sw, win))

    indexed_match = min(time_queries(
        lambda sw, win: engine.flows_matching(sw, win))
        for _ in range(ROUNDS))
    linear_match = min(time_queries(
        lambda sw, win: linear_flows_matching(store, sw, win))
        for _ in range(ROUNDS))
    indexed_topk = min(time_queries(
        lambda sw, win: engine.top_k_flows(K, switch=sw, epochs=win))
        for _ in range(ROUNDS))
    linear_topk = min(time_queries(
        lambda sw, win: linear_top_k(store, K, sw, win))
        for _ in range(ROUNDS))
    return store, engine, (indexed_match, linear_match,
                           indexed_topk, linear_topk)


@pytest.mark.benchmark(group="query_index")
def test_query_index_speedup(benchmark):
    store, engine, times = benchmark.pedantic(run_bench, rounds=1,
                                              iterations=1)
    indexed_match, linear_match, indexed_topk, linear_topk = times
    match_speedup = linear_match / indexed_match
    topk_speedup = linear_topk / indexed_topk
    scanned, linear_scanned = scanned_share(store)
    count_ratio = linear_scanned / scanned
    emit("query_index", [
        f"records per host: {len(store)}   switches: {N_SWITCHES}   "
        f"windows per sweep: {len(WINDOWS)}",
        f"flows_matching  linear: {linear_match * 1e3:8.2f} ms   "
        f"indexed: {indexed_match * 1e3:8.2f} ms   "
        f"speedup: {match_speedup:6.1f}x",
        f"top_{K}_flows    linear: {linear_topk * 1e3:8.2f} ms   "
        f"indexed: {indexed_topk * 1e3:8.2f} ms   "
        f"speedup: {topk_speedup:6.1f}x",
        f"records examined  linear: {linear_scanned}   "
        f"indexed: {scanned}   ratio: {count_ratio:6.1f}x",
        "(index: per-switch buckets + sorted-by-epoch bisect; "
        "top-k on a bounded heap)"],
        data={
            "records": len(store),
            "switches": N_SWITCHES,
            "indexed_match_ms": round(indexed_match * 1e3, 3),
            "linear_match_ms": round(linear_match * 1e3, 3),
            "indexed_topk_ms": round(indexed_topk * 1e3, 3),
            "linear_topk_ms": round(linear_topk * 1e3, 3),
            "match_speedup": round(match_speedup, 2),
            "topk_speedup": round(topk_speedup, 2),
            "indexed_scanned": scanned,
            "linear_scanned": linear_scanned,
            "count_ratio": round(count_ratio, 2),
        })

    assert len(store) == N_RECORDS
    # the work the index saves, counted: deterministic, so it holds on
    # any machine however the wall-clock gates below fare
    assert count_ratio >= 5, count_ratio
    assert match_speedup >= 5, match_speedup
    assert topk_speedup >= 5, topk_speedup


@pytest.mark.benchmark(group="query_index")
def test_query_index_equivalence_at_scale(benchmark):
    """Byte-identical payloads, indexed vs linear, at the 10k scale."""

    def run():
        store = build_store()
        engine = QueryEngine(store)
        mismatches = 0
        for s in range(0, N_SWITCHES, 7):
            for win in WINDOWS:
                sw = f"S{s}"
                a = [x._astuple()
                     for x in engine.flows_matching(sw, win).payload]
                b = [x._astuple()
                     for x in linear_flows_matching(store, sw, win)]
                if a != b:
                    mismatches += 1
                ta = [x._astuple() for x in
                      engine.top_k_flows(K, switch=sw,
                                         epochs=win).payload]
                tb = [x._astuple()
                      for x in linear_top_k(store, K, sw, win)]
                if ta != tb:
                    mismatches += 1
        return mismatches

    mismatches = benchmark.pedantic(run, rounds=1, iterations=1)
    assert mismatches == 0