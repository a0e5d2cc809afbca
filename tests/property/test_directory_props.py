"""Property-based tests pinning the sketch backends to the exact bitmap.

Three contracts, exercised over arbitrary insert sequences, budgets,
and hierarchy geometries:

* **superset on every query** — whatever the budget, a sketch answers
  membership/enumeration with a superset of the true members, through
  unions and serialize round-trips included (the registry's one-sided
  approximation contract).
* **bit-identity at saturating budgets** — ``bits=0`` (or any budget
  >= n_slots) sizes a bloom filter at one bit per slot, making it
  payload-identical to :class:`PointerSet`; the default knob values are
  therefore exact-equivalent by construction.
* **hierarchy equivalence across coalescing/recycling** — an exact
  store and a sketch store driven by the same update sequence rotate
  windows identically; every surviving sketch snapshot covers its exact
  twin's slots, and its shadow truth matches the exact payload exactly.
"""

from hypothesis import given, settings, strategies as st

from repro.core.pointer import HierarchicalPointerStore, PointerSet
from repro.directory import decode_directory_set, make_directory_set

N_SLOTS = 64

slot_sets = st.sets(
    st.integers(min_value=0, max_value=N_SLOTS - 1), max_size=32)
budgets = st.integers(min_value=8, max_value=N_SLOTS)
hash_counts = st.integers(min_value=1, max_value=4)
backends = st.sampled_from(["bloom", "lsh"])

updates = st.lists(
    st.tuples(st.integers(min_value=0, max_value=200),          # epoch
              st.integers(min_value=0, max_value=N_SLOTS - 1)),  # slot
    min_size=1, max_size=150)


@settings(max_examples=80, deadline=None)
@given(members=slot_sets, extras=slot_sets, backend=backends,
       bits=budgets, hashes=hash_counts)
def test_sketch_answers_are_supersets_everywhere(
        members, extras, backend, bits, hashes):
    ds = make_directory_set(backend, N_SLOTS, bits=bits, hashes=hashes)
    for slot in members:
        ds.set_slot(slot)
    assert all(ds.test_slot(s) for s in members)
    assert members <= set(ds.iter_slots())

    other = make_directory_set(backend, N_SLOTS, bits=bits, hashes=hashes)
    for slot in extras:
        other.set_slot(slot)
    ds.union_into(other)
    union = members | extras
    assert all(other.test_slot(s) for s in union)

    dup = decode_directory_set(backend, N_SLOTS, other.to_bytes(),
                               bits=bits, hashes=hashes)
    assert dup.to_bytes() == other.to_bytes()
    assert all(dup.test_slot(s) for s in union)


@settings(max_examples=80, deadline=None)
@given(members=slot_sets,
       bits=st.sampled_from([0, N_SLOTS, 4 * N_SLOTS]),
       hashes=hash_counts)
def test_saturating_bloom_is_bit_identical_to_exact(members, bits, hashes):
    exact = PointerSet(N_SLOTS)
    bloom = make_directory_set("bloom", N_SLOTS, bits=bits, hashes=hashes)
    for slot in members:
        exact.set_slot(slot)
        bloom.set_slot(slot)
    assert bloom.to_bytes() == exact.to_bytes()
    assert set(bloom.iter_slots()) == members
    assert not any(
        bloom.test_slot(s) for s in range(N_SLOTS) if s not in members)


@settings(max_examples=40, deadline=None)
@given(ops=updates, alpha=st.sampled_from([2, 4]),
       k=st.integers(min_value=1, max_value=3), backend=backends,
       bits=st.sampled_from([12, 24, 0]), hashes=hash_counts)
def test_sketch_hierarchy_tracks_exact_across_recycling(
        ops, alpha, k, backend, bits, hashes):
    exact = HierarchicalPointerStore(N_SLOTS, alpha=alpha, k=k)
    sketch = HierarchicalPointerStore(
        N_SLOTS, alpha=alpha, k=k,
        set_factory=lambda: make_directory_set(
            backend, N_SLOTS, bits=bits, hashes=hashes))
    for epoch, slot in sorted(ops):
        exact.update(epoch, slot)
        sketch.update(epoch, slot)
    touched = sorted({epoch for epoch, _ in ops})
    for level in range(1, k + 1):
        for epoch in touched:
            ref = exact.snapshot(level, epoch)
            got = sketch.snapshot(level, epoch)
            # lazy rotation is slot-arithmetic only: both stores must
            # agree on which windows survived
            assert (ref is None) == (got is None)
            if ref is None:
                continue
            assert got.segment == ref.segment
            # the sketch covers the exact twin's slots (superset), and
            # its shadow truth is the exact payload itself
            assert set(ref.slots()) <= set(got.slots())
            assert got.true_slots() == ref.slots()
            # serialize round-trip preserves the pulled superset
            dup = decode_directory_set(
                got.backend, got.n_slots, got.bits,
                bits=got.bits_budget, hashes=got.hashes)
            assert dup.to_bytes() == got.bits
            assert set(ref.slots()) <= set(dup.iter_slots())


@settings(max_examples=40, deadline=None)
@given(ops=updates, alpha=st.sampled_from([2, 4]),
       k=st.integers(min_value=1, max_value=3))
def test_saturating_sketch_store_answers_bit_identical(ops, alpha, k):
    """At the default budget (0 = saturating) the whole hierarchy is
    exact-equivalent: every surviving window answers identically."""
    exact = HierarchicalPointerStore(N_SLOTS, alpha=alpha, k=k)
    bloom = HierarchicalPointerStore(
        N_SLOTS, alpha=alpha, k=k,
        set_factory=lambda: make_directory_set("bloom", N_SLOTS, bits=0))
    for epoch, slot in sorted(ops):
        exact.update(epoch, slot)
        bloom.update(epoch, slot)
    for level in range(1, k + 1):
        for epoch in {e for e, _ in ops}:
            ref = exact.snapshot(level, epoch)
            got = bloom.snapshot(level, epoch)
            assert (ref is None) == (got is None)
            if ref is not None:
                assert got.bits == ref.bits
                assert got.slots() == ref.slots()
