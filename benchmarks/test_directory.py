"""Directory-set benchmark: the pointer-union hot path and sketch ops.

Two measurements, each checked by what it must compute, not by an
absolute time:

* **exact union at 65k slots** — the per-epoch coalescing hot path.
  :meth:`PointerSet.union_into` counts only the newly-set bits
  (``merged ^ theirs``) instead of re-scanning the result array; the
  reference here replays the pre-incremental path (byte-wise OR in
  Python plus a full popcount rescan via ``load``) and the benchmark
  asserts the incremental path's speedup at a 65 536-slot directory.
* **bloom fold** — the sketch ops :class:`HierarchicalPointerStore`
  drives per epoch under a sub-S bit budget: ``set_slot`` inserts,
  ``union_into`` coalescing and a ``to_bytes``/``decode_directory_set``
  round-trip.  The superset contract is asserted
  over every inserted slot (a sketch may flood, never drop).

Emits ``results/directory.json``.
"""

import random
import time

import pytest

from repro.core.pointer import PointerSet
from repro.directory import decode_directory_set, make_directory_set

from benchmarks.reporting import emit

N_SLOTS = 65_536  # one bit per host at the 65k-host directory size
N_SETS = 192      # epoch pointer sets coalesced per union pass
DENSITY = 1024    # hosts touching each epoch set
BLOOM_SETS = 64
BLOOM_BITS = 8_192  # 1/8 bit per host: well under saturation
HASHES = 4
ROUNDS = 3


def prepare():
    """Pre-draw the per-epoch slot samples (excluded from timing)."""
    rng = random.Random(7)
    universe = range(N_SLOTS)
    return [rng.sample(universe, DENSITY) for _ in range(N_SETS)]


def build_exact(samples):
    sets = []
    for slots in samples:
        ps = PointerSet(N_SLOTS)
        for slot in slots:
            ps.set_slot(slot)
        sets.append(ps)
    return sets


def bench_incremental(sets):
    """The product path: big-int OR + xor-popcount of the new bits."""
    acc = PointerSet(N_SLOTS)
    start = time.perf_counter()
    for ps in sets:
        ps.union_into(acc)
    return time.perf_counter() - start, acc


def bench_recount(sets):
    """The pre-incremental reference: byte loop + full rescan."""
    acc = PointerSet(N_SLOTS)
    start = time.perf_counter()
    for ps in sets:
        merged = bytes(a | b for a, b in zip(ps.to_bytes(), acc.to_bytes()))
        acc.load(merged)  # full popcount rescan
    return time.perf_counter() - start, acc


def bench_bloom_fold(samples):
    """Insert + coalesce + serialize round-trip, timed."""
    start = time.perf_counter()
    acc = make_directory_set("bloom", N_SLOTS, bits=BLOOM_BITS,
                             hashes=HASHES)
    for slots in samples[:BLOOM_SETS]:
        sketch = make_directory_set("bloom", N_SLOTS, bits=BLOOM_BITS,
                                    hashes=HASHES)
        for slot in slots:
            sketch.set_slot(slot)
        sketch.union_into(acc)
    decoded = decode_directory_set("bloom", N_SLOTS, acc.to_bytes(),
                                   bits=BLOOM_BITS, hashes=HASHES)
    return time.perf_counter() - start, decoded


def run_bench():
    samples = prepare()
    sets = build_exact(samples)
    inc_s, inc_acc = min(
        (bench_incremental(sets) for _ in range(ROUNDS)),
        key=lambda x: x[0])
    ref_s, ref_acc = min(
        (bench_recount(sets) for _ in range(ROUNDS)),
        key=lambda x: x[0])
    bloom_s, decoded = min(
        (bench_bloom_fold(samples) for _ in range(ROUNDS)),
        key=lambda x: x[0])
    return samples, inc_s, inc_acc, ref_s, ref_acc, bloom_s, decoded


@pytest.mark.benchmark(group="directory")
def test_directory_union_and_sketch_ops(benchmark):
    (samples, inc_s, inc_acc, ref_s, ref_acc, bloom_s,
     decoded) = benchmark.pedantic(run_bench, rounds=1, iterations=1)

    truth = set()
    for slots in samples:
        truth.update(slots)
    speedup = ref_s / inc_s
    emit("directory", [
        f"slots: {N_SLOTS}   epoch sets: {N_SETS}   "
        f"density: {DENSITY} hosts/set",
        f"union_into (incremental popcount): {inc_s * 1e3:8.2f} ms",
        f"reference (byte OR + full rescan): {ref_s * 1e3:8.2f} ms",
        f"speedup: {speedup:5.2f}x",
        f"bloom fold ({BLOOM_SETS} sets @ {BLOOM_BITS} bits, "
        f"k={HASHES}): {bloom_s * 1e3:8.2f} ms",
        "(union_into counts only merged^theirs; the bloom fold times "
        "insert + coalesce + serialize round-trip)"],
        data={
            "n_slots": N_SLOTS,
            "n_sets": N_SETS,
            "density": DENSITY,
            "union_into_s": round(inc_s, 4),
            "recount_s": round(ref_s, 4),
            "union_speedup": round(speedup, 2),
            "bloom_sets": BLOOM_SETS,
            "bloom_bits": BLOOM_BITS,
            "bloom_fold_s": round(bloom_s, 4),
        })

    # both union paths must agree bit for bit, and with the drawn truth
    assert inc_acc == ref_acc
    assert inc_acc.popcount == ref_acc.popcount == len(truth)
    assert speedup >= 3, speedup

    # superset contract: the folded sketch may flood, never drop
    bloom_truth = set()
    for slots in samples[:BLOOM_SETS]:
        bloom_truth.update(slots)
    assert all(decoded.test_slot(slot) for slot in bloom_truth)
