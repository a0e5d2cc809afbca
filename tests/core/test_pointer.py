"""Unit tests for pointer sets and the hierarchical store."""

import pytest

from repro.core.pointer import (HierarchicalPointerStore, PointerSet,
                                PointerSnapshot)
from repro.directory import decode_directory_set


class TestPointerSet:
    def test_set_and_test(self):
        ps = PointerSet(64)
        ps.set_slot(0)
        ps.set_slot(63)
        assert ps.test_slot(0) and ps.test_slot(63)
        assert not ps.test_slot(1)

    def test_popcount_deduplicates(self):
        ps = PointerSet(10)
        ps.set_slot(5)
        ps.set_slot(5)
        assert ps.popcount == 1
        assert len(ps) == 1

    def test_out_of_range(self):
        ps = PointerSet(8)
        with pytest.raises(IndexError):
            ps.set_slot(8)
        with pytest.raises(IndexError):
            ps.test_slot(-1)

    def test_clear(self):
        ps = PointerSet(16)
        for s in (1, 3, 9):
            ps.set_slot(s)
        ps.clear()
        assert ps.popcount == 0
        assert not any(ps.test_slot(s) for s in range(16))

    def test_cleared_set_equals_a_fresh_one_and_spares_earlier_views(self):
        ps = PointerSet(100)
        for s in (0, 41, 99):
            ps.set_slot(s)
        bits, blob = ps._bits, ps.to_bytes()
        dup = PointerSet.from_bytes(100, blob)
        ps.clear()
        fresh = PointerSet(100)
        assert ps._bits is bits   # zeroed in place, not reallocated
        assert ps == fresh and ps.to_bytes() == fresh.to_bytes()
        assert ps.popcount == 0 and list(ps.iter_slots()) == []
        # views taken before the clear keep what they saw
        assert list(dup.iter_slots()) == [0, 41, 99] and dup.popcount == 3
        assert PointerSet.from_bytes(100, blob) == dup

    def test_rotation_clear_leaves_pulled_snapshots_intact(self):
        store = HierarchicalPointerStore(n_slots=64, alpha=2, k=2)
        store.update(0, 5)
        snap = store.snapshot(1, 0)
        for epoch in range(1, 9):   # recycle every level-1 set
            store.update(epoch, 7)
        assert store.snapshot(1, 0) is None
        assert snap.slots() == [5]

    def test_iter_slots_ascending(self):
        ps = PointerSet(100)
        for s in (77, 3, 41):
            ps.set_slot(s)
        assert list(ps.iter_slots()) == [3, 41, 77]

    def test_union_into(self):
        a, b = PointerSet(32), PointerSet(32)
        a.set_slot(1)
        b.set_slot(2)
        a.union_into(b)
        assert sorted(b.iter_slots()) == [1, 2]
        assert b.popcount == 2

    def test_union_size_mismatch(self):
        with pytest.raises(ValueError):
            PointerSet(8).union_into(PointerSet(16))

    def test_bytes_roundtrip(self):
        ps = PointerSet(20)
        for s in (0, 7, 19):
            ps.set_slot(s)
        clone = PointerSet.from_bytes(20, ps.to_bytes())
        assert clone == ps
        assert clone.popcount == 3

    def test_load_rejects_bits_past_the_last_slot(self):
        # 10 slots fill two bytes; bits 10-15 of the second are padding.
        # Accepting them made popcount (8) and decode ([8, 9]) disagree.
        ps = PointerSet(10)
        with pytest.raises(ValueError, match=r"\[10, 11, 12, 13, 14, 15\]"):
            ps.load(b"\x00\xff")
        assert len(ps) == 0 and list(ps.iter_slots()) == []
        with pytest.raises(ValueError, match=r"\[12\] past .* 10 slots"):
            decode_directory_set("exact", 10, b"\x00\x10")
        ps.load(b"\x00\x03")  # slots 8 and 9 are real
        assert list(ps.iter_slots()) == [8, 9] and ps.estimate() == 2

    def test_size_bits_is_n(self):
        assert PointerSet(1234).size_bits == 1234

    def test_needs_a_slot(self):
        with pytest.raises(ValueError):
            PointerSet(0)


class TestStoreGeometry:
    def test_epochs_covered_per_level(self):
        store = HierarchicalPointerStore(10, alpha=10, k=3)
        assert store.epochs_covered(1) == 1
        assert store.epochs_covered(2) == 10
        assert store.epochs_covered(3) == 100

    def test_window_ms_matches_paper(self):
        """Level h sets cover αʰ ms (level 1: α ms ... top: αᵏ ms)."""
        store = HierarchicalPointerStore(10, alpha=10, k=3)
        assert store.window_ms(1) == 10
        assert store.window_ms(2) == 100
        assert store.window_ms(3) == 1000

    def test_memory_formula(self):
        """α·(k−1)·S + S bits."""
        store = HierarchicalPointerStore(1000, alpha=10, k=3)
        assert store.memory_bits == (10 * 2 + 1) * 1000
        assert store.total_pointer_sets == 21

    def test_level_bounds(self):
        store = HierarchicalPointerStore(10, alpha=10, k=2)
        with pytest.raises(ValueError):
            store.epochs_covered(0)
        with pytest.raises(ValueError):
            store.epochs_covered(3)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            HierarchicalPointerStore(10, alpha=1, k=3)
        with pytest.raises(ValueError):
            HierarchicalPointerStore(10, alpha=10, k=0)


class TestStoreUpdatesAndQueries:
    def test_level1_tracks_single_epoch(self):
        store = HierarchicalPointerStore(50, alpha=10, k=3)
        store.update(epoch=7, slot=42)
        snap = store.snapshot(1, 7)
        assert snap is not None
        assert snap.slots() == [42]
        assert store.snapshot(1, 6) is None  # untouched window

    def test_level2_aggregates_alpha_epochs(self):
        store = HierarchicalPointerStore(50, alpha=10, k=3)
        for e in range(10, 20):  # one level-2 window (segment 1)
            store.update(epoch=e, slot=e - 10)
        snap = store.snapshot(2, 15)
        assert set(snap.slots()) == set(range(10))
        assert snap.epoch_lo == 10 and snap.epoch_hi == 19

    def test_rotation_reuses_after_alpha_windows(self):
        store = HierarchicalPointerStore(50, alpha=4, k=2)
        store.update(epoch=0, slot=1)
        # epochs 1..3 use the other three level-1 sets; epoch 4 reuses set 0
        for e in (1, 2, 3):
            store.update(epoch=e, slot=2)
        store.update(epoch=4, slot=3)
        assert store.snapshot(1, 0) is None  # recycled
        assert store.snapshot(1, 4).slots() == [3]

    def test_unoverwritten_old_window_remains_queryable(self):
        """Lazy rotation: an old set stays valid until actually reused."""
        store = HierarchicalPointerStore(50, alpha=10, k=2)
        store.update(epoch=3, slot=9)
        store.update(epoch=7, slot=8)  # different level-1 set
        # much later epoch touches yet another set; sets 3 and 7 intact
        store.update(epoch=101, slot=7)
        assert store.snapshot(1, 3).slots() == [9]
        assert store.snapshot(1, 7).slots() == [8]

    def test_snapshots_covering_range(self):
        store = HierarchicalPointerStore(50, alpha=10, k=3)
        for e in (2, 3, 5):
            store.update(epoch=e, slot=e)
        snaps = store.snapshots_covering(1, 2, 5)
        assert [s.segment for s in snaps] == [2, 3, 5]

    def test_snapshots_covering_validates_range(self):
        store = HierarchicalPointerStore(10, alpha=10, k=2)
        with pytest.raises(ValueError):
            store.snapshots_covering(1, 5, 4)

    def test_update_counter(self):
        store = HierarchicalPointerStore(10, alpha=10, k=2)
        for _ in range(5):
            store.update(epoch=0, slot=1)
        assert store.updates == 5


class TestPushModel:
    def test_top_level_pushed_once_per_window(self):
        pushes = []
        store = HierarchicalPointerStore(50, alpha=10, k=2,
                                         on_push=pushes.append)
        # top level covers alpha^(k-1) = 10 epochs
        for e in range(35):
            store.update(epoch=e, slot=e % 50)
        assert len(pushes) == 3  # windows 0,1,2 pushed; window 3 live
        assert [p.segment for p in pushes] == [0, 1, 2]

    def test_pushed_snapshot_contents(self):
        pushes = []
        store = HierarchicalPointerStore(50, alpha=10, k=2,
                                         on_push=pushes.append)
        for e in range(10):
            store.update(epoch=e, slot=e)
        store.update(epoch=10, slot=49)  # triggers push of window 0
        assert set(pushes[0].slots()) == set(range(10))
        assert pushes[0].epoch_lo == 0 and pushes[0].epoch_hi == 9

    def test_flush_top_forces_push(self):
        pushes = []
        store = HierarchicalPointerStore(50, alpha=10, k=2,
                                         on_push=pushes.append)
        store.update(epoch=0, slot=5)
        assert pushes == []
        store.flush_top()
        assert len(pushes) == 1
        assert pushes[0].slots() == [5]

    def test_k1_store_is_push_only(self):
        pushes = []
        store = HierarchicalPointerStore(50, alpha=10, k=1,
                                         on_push=pushes.append)
        for e in range(25):
            store.update(epoch=e, slot=1)
        # top covers alpha^0 = 1 epoch -> push per epoch transition
        assert len(pushes) == 24
        assert store.memory_bits == 50  # single set


class TestSnapshotProperties:
    def test_epoch_bounds(self):
        snap = PointerSnapshot(level=2, segment=3, epochs_covered=10,
                               bits=bytes(7), n_slots=50)
        assert snap.epoch_lo == 30
        assert snap.epoch_hi == 39
        assert snap.size_bits == 50

    def test_slots_decoding(self):
        ps = PointerSet(16)
        ps.set_slot(4)
        ps.set_slot(12)
        snap = PointerSnapshot(level=1, segment=0, epochs_covered=1,
                               bits=ps.to_bytes(), n_slots=16)
        assert snap.slots() == [4, 12]


class TestEpochStatus:
    def test_live_empty_recycled_distinction(self):
        store = HierarchicalPointerStore(50, alpha=4, k=2)
        store.update(epoch=1, slot=9)
        assert store.epoch_status(1, 1) == "live"
        assert store.epoch_status(1, 0) == "empty"   # never written
        assert store.epoch_status(1, 3) == "empty"   # not reached yet
        # epoch 5 reuses epoch 1's set -> 1 becomes recycled
        store.update(epoch=5, slot=8)
        assert store.epoch_status(1, 1) == "recycled"
        assert store.epoch_status(1, 5) == "live"

    def test_negative_epoch_is_empty(self):
        store = HierarchicalPointerStore(50, alpha=4, k=2)
        assert store.epoch_status(1, -1) == "empty"

    def test_top_level_status(self):
        store = HierarchicalPointerStore(50, alpha=4, k=2)
        store.update(epoch=0, slot=1)
        assert store.epoch_status(2, 0) == "live"
        assert store.epoch_status(2, 20) == "empty"
        store.update(epoch=20, slot=2)  # top window advances
        assert store.epoch_status(2, 0) == "recycled"

    @pytest.mark.parametrize("level", [0, -1, 4])
    def test_level_outside_hierarchy_raises(self, level):
        """No negative-index wraparound and no ``None`` that reads as
        "no packets": a level the store does not have is an error."""
        store = HierarchicalPointerStore(50, alpha=4, k=3)
        for e in range(20):
            store.update(epoch=e, slot=e)
        with pytest.raises(ValueError, match=rf"level {level} outside"):
            store.epoch_status(level, 19)
        with pytest.raises(ValueError, match=rf"level {level} outside"):
            store.snapshot(level, 3)
