"""Property-based tests for the hierarchical pointer store.

Core soundness/completeness claim (§3): for any update sequence, querying
a window that is still retained must return exactly the destinations
updated in that window — no false negatives ever, and no false positives
at level 1 (higher levels only coarsen, never invent).

The bitmap decode and the co-suspect Jaccard are pinned to the paths
they replaced: a bit-by-bit loop and set algebra over decoded slots."""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.analyzer.apps import (CO_SUSPECTS, _merged_directory_set,
                                 _slot_mask, rank_co_suspects)
from repro.core.epoch import EpochRange
from repro.core.pointer import (HierarchicalPointerStore, PointerSet,
                                PointerSnapshot, bitmap_slots)
from repro.directory import make_directory_set

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


# -- the byte-table decode and the popcount Jaccard ----------------------------

def bit_loop_slots(bits, n_slots):
    """The decode the byte table replaced: test every bit, one by one."""
    return [slot for slot in range(n_slots)
            if bits[slot >> 3] >> (slot & 7) & 1]


patterns = st.integers(min_value=1, max_value=200).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(0, n - 1))))


@settings(max_examples=150, deadline=None)
@given(pattern=patterns)
def test_byte_table_decode_equals_bit_loop(pattern):
    n_slots, slots = pattern
    ps = PointerSet(n_slots)
    for s in slots:
        ps.set_slot(s)
    bits = ps.to_bytes()
    want = bit_loop_slots(bits, n_slots)
    assert want == sorted(slots)
    assert bitmap_slots(bits) == want
    assert list(ps.iter_slots()) == want
    assert list(PointerSet.from_bytes(n_slots, bits).iter_slots()) == want
    snap = PointerSnapshot(level=1, segment=0, epochs_covered=1, bits=bits,
                           n_slots=n_slots)
    assert snap.slots() == want and snap.true_slots() == want
    sketch = PointerSnapshot(level=1, segment=0, epochs_covered=1,
                             bits=bits, n_slots=n_slots, backend="bloom",
                             truth_bits=bits)
    assert sketch.true_slots() == want


def set_jaccard(a, b):
    """Jaccard over decoded slot sets: the path the masks replaced."""
    a, b = set(a.iter_slots()), set(b.iter_slots())
    union = a | b
    return len(a & b) / len(union) if union else 0.0


def popcount_jaccard(a, b):
    a, b = _slot_mask(a), _slot_mask(b)
    union = (a | b).bit_count()
    return (a & b).bit_count() / union if union else 0.0


backends = st.sampled_from([("exact", 0), ("bloom", 0), ("bloom", 24),
                            ("bloom", 61)])


@settings(max_examples=100, deadline=None)
@given(pattern=patterns, other=st.sets(st.integers(0, 199)),
       backend=backends)
def test_popcount_jaccard_equals_set_jaccard(pattern, other, backend):
    n_slots, slots = pattern
    name, bits = backend
    a = make_directory_set(name, n_slots, bits=bits, hashes=3)
    b = make_directory_set(name, n_slots, bits=bits, hashes=3)
    for s in slots:
        a.set_slot(s)
    for s in other:
        b.set_slot(s % n_slots)
    assert _slot_mask(a) == sum(1 << s for s in a.iter_slots())
    assert popcount_jaccard(a, b) == set_jaccard(a, b)


class StoreAgent:
    """A switch agent reduced to what the co-suspect ranking reads."""

    def __init__(self, store):
        self.store = store

    def best_effort_snapshots(self, lo, hi):
        return self.store.snapshots_covering(1, lo, hi), "live"


def set_path_ranking(analyzer, suspect, epochs):
    """``rank_co_suspects`` on decoded slot sets: the oracle."""
    agents = analyzer.switch_agents
    ref = _merged_directory_set(
        agents[suspect].best_effort_snapshots(epochs.lo, epochs.hi)[0])
    if ref is None:
        return []
    ranked = []
    for name in sorted(agents):
        if name == suspect:
            continue
        other = _merged_directory_set(
            agents[name].best_effort_snapshots(epochs.lo, epochs.hi)[0])
        if other is None:
            continue
        sim = set_jaccard(ref, other)
        if sim > 0.0:
            ranked.append((name, sim))
    ranked.sort(key=lambda c: (-c[1], c[0]))
    return ranked[:CO_SUSPECTS]


@settings(max_examples=60, deadline=None)
@given(n_slots=st.integers(min_value=1, max_value=80),
       traffic=st.lists(st.lists(st.tuples(st.integers(0, 7),
                                           st.integers(0, 79)),
                                 max_size=30),
                        min_size=2, max_size=7),
       backend=backends, lo=st.integers(0, 7), span=st.integers(0, 7))
def test_rank_co_suspects_matches_set_path(n_slots, traffic, backend, lo,
                                           span):
    name, bits = backend
    agents = {}
    for i, updates in enumerate(traffic):
        store = HierarchicalPointerStore(
            n_slots, alpha=8, k=2,
            set_factory=lambda: make_directory_set(name, n_slots,
                                                   bits=bits, hashes=3))
        for epoch, slot in sorted(updates):
            store.update(epoch, slot % n_slots)
        agents[f"S{i}"] = StoreAgent(store)
    analyzer = SimpleNamespace(switch_agents=agents)
    epochs = EpochRange(lo, lo + span)
    got = rank_co_suspects(analyzer, "S0", epochs)
    assert [(c.switch, c.similarity) for c in got] == set_path_ranking(
        analyzer, "S0", epochs)
    assert all(c.band_matches == 0 for c in got)


# -- sets built by their first write, against sets built up front ---------


class EagerPointerStore(HierarchicalPointerStore):
    """The store before its sets went lazy: every level slot holds a set
    from construction on, and a rotation clears it in place."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for ls in level_slots(self):
            ls.pointer = self.set_factory()

    def update(self, epoch, slot):
        self.updates += 1
        for level_idx, slots in enumerate(self._levels):
            seg = epoch // self._divisors[level_idx]
            ls = slots[seg % self.alpha]
            if ls.segment != seg:
                ls.pointer.clear()
                ls.segment = seg
            ls.pointer.set_slot(slot)
        seg = epoch // self._divisors[self.k - 1]
        if self._top.segment != seg:
            if self._top.segment is not None:
                self._push_top()
            self._top.pointer.clear()
            self._top.segment = seg
        self._top.pointer.set_slot(slot)


def level_slots(store):
    return [*(ls for level in store._levels for ls in level), store._top]


store_ops = st.lists(
    st.one_of(
        st.tuples(st.just("update"), st.integers(0, 40),   # epoch step
                  st.integers(0, N_SLOTS - 1)),
        st.tuples(st.just("read"), st.integers(1, 4),      # level
                  st.integers(-3, 40))),                   # epoch offset
    min_size=1, max_size=120)


def reads(store, level, epoch):
    if level > store.k:
        level = store.k
    return (store.snapshot(level, epoch), store.epoch_status(level, epoch),
            store.snapshots_covering(level, max(epoch, 0) // 2,
                                     max(epoch, 0)))


@settings(max_examples=120, deadline=None)
@given(ops=store_ops, alpha=st.sampled_from([2, 3, 4]),
       k=st.integers(min_value=1, max_value=4), backend=backends)
def test_lazy_sets_answer_like_eager_sets(ops, alpha, k, backend):
    """Random updates (epochs moving forward across rotations and top
    pushes) interleaved with reads: every snapshot, status, push payload
    and ``memory_bits`` agree, and a slot no update wrote holds no set."""
    name, bits = backend
    pushed = {"lazy": [], "eager": []}
    stores = {}
    for kind, build in (("lazy", HierarchicalPointerStore),
                        ("eager", EagerPointerStore)):
        stores[kind] = build(
            N_SLOTS, alpha=alpha, k=k, on_push=pushed[kind].append,
            set_factory=lambda: make_directory_set(name, N_SLOTS, bits=bits,
                                                   hashes=3))
    lazy, eager = stores["lazy"], stores["eager"]
    epoch = 0
    for op, a, b in ops:
        if op == "update":
            epoch += a
            lazy.update(epoch, b)
            eager.update(epoch, b)
        else:
            assert reads(lazy, a, epoch + b) == reads(eager, a, epoch + b)
        assert pushed["lazy"] == pushed["eager"]
    lazy.flush_top()
    eager.flush_top()
    assert pushed["lazy"] == pushed["eager"]
    assert lazy.memory_bits == eager.memory_bits
    assert (lazy.backend, lazy.set_size_bits) == (eager.backend,
                                                  eager.set_size_bits)
    for ls in level_slots(lazy):
        assert (ls.pointer is None) == (ls.segment is None)
