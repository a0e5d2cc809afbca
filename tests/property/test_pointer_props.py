"""Property-based tests for the hierarchical pointer store.

Core soundness/completeness claim (§3): for any update sequence, querying
a window that is still retained must return exactly the destinations
updated in that window — no false negatives ever, and no false positives
at level 1 (higher levels only coarsen, never invent)."""

from hypothesis import given, settings, strategies as st

from repro.core.pointer import HierarchicalPointerStore, PointerSet

N_SLOTS = 32

updates = st.lists(
    st.tuples(st.integers(min_value=0, max_value=300),    # epoch
              st.integers(min_value=0, max_value=N_SLOTS - 1)),  # slot
    min_size=1, max_size=200)


@settings(max_examples=60, deadline=None)
@given(ops=updates,
       alpha=st.sampled_from([2, 4, 10]),
       k=st.integers(min_value=1, max_value=4))
def test_level1_exactness_within_retention(ops, alpha, k):
    store = HierarchicalPointerStore(N_SLOTS, alpha=alpha, k=k)
    truth: dict[int, set[int]] = {}
    for epoch, slot in sorted(ops):
        store.update(epoch, slot)
        truth.setdefault(epoch, set()).add(slot)
    if k == 1:
        return  # no live level-1 sets in the degenerate store
    # a level-1 window is guaranteed live while its set has not been
    # reused; with lazy rotation that means: it is the latest epoch
    # mapping to its set slot
    latest_for_slot: dict[int, int] = {}
    for epoch in truth:
        latest_for_slot[epoch % alpha] = max(
            latest_for_slot.get(epoch % alpha, -1), epoch)
    for epoch, slots in truth.items():
        if latest_for_slot[epoch % alpha] != epoch:
            continue  # recycled — allowed to be gone
        got = set(store.snapshot(1, epoch).slots())
        assert got == slots, (epoch, got, slots)


@settings(max_examples=60, deadline=None)
@given(ops=updates, alpha=st.sampled_from([2, 4, 10]),
       k=st.integers(min_value=2, max_value=4))
def test_no_false_negatives_across_levels(ops, alpha, k):
    """Any level's surviving snapshot of a window must contain every
    update that fell inside that window."""
    store = HierarchicalPointerStore(N_SLOTS, alpha=alpha, k=k)
    seq = sorted(ops)
    for epoch, slot in seq:
        store.update(epoch, slot)
    by_epoch: dict[int, set[int]] = {}
    for epoch, slot in seq:
        by_epoch.setdefault(epoch, set()).add(slot)
    for level in range(1, k + 1):
        span = store.epochs_covered(level)
        for epoch, slots in by_epoch.items():
            snap = store.snapshot(level, epoch)
            if snap is None:
                continue  # recycled window: absence is allowed
            if snap.segment == epoch // span:
                got = set(snap.slots())
                missing = slots - got
                assert not missing, (level, epoch, missing)


@settings(max_examples=60, deadline=None)
@given(ops=updates)
def test_top_level_pushes_partition_time(ops):
    """Pushed windows never overlap and appear in segment order."""
    pushes = []
    store = HierarchicalPointerStore(N_SLOTS, alpha=4, k=2,
                                     on_push=pushes.append)
    for epoch, slot in sorted(ops):
        store.update(epoch, slot)
    store.flush_top()
    segments = [p.segment for p in pushes]
    assert segments == sorted(set(segments))


@settings(max_examples=80, deadline=None)
@given(slots=st.sets(st.integers(min_value=0, max_value=255),
                     max_size=64))
def test_pointer_set_bytes_roundtrip(slots):
    ps = PointerSet(256)
    for s in slots:
        ps.set_slot(s)
    clone = PointerSet.from_bytes(256, ps.to_bytes())
    assert set(clone.iter_slots()) == slots
    assert clone.popcount == len(slots)


@settings(max_examples=80, deadline=None)
@given(a=st.sets(st.integers(min_value=0, max_value=63), max_size=30),
       b=st.sets(st.integers(min_value=0, max_value=63), max_size=30))
def test_union_into_is_set_union(a, b):
    pa, pb = PointerSet(64), PointerSet(64)
    for s in a:
        pa.set_slot(s)
    for s in b:
        pb.set_slot(s)
    pa.union_into(pb)
    assert set(pb.iter_slots()) == a | b
