"""Directory-backend registry: contract enforcement and resolution."""

import pytest

from repro.core.pointer import PointerSet
from repro.directory import (
    DIRECTORIES,
    DirectoryError,
    decode_directory_set,
    make_directory_set,
    register_directory,
)


class TestRegistry:
    def test_ships_exact_bloom_lsh(self):
        assert set(DIRECTORIES.names()) >= {"exact", "bloom", "lsh"}

    def test_every_backend_has_summary_and_memory_note(self):
        for backend in DIRECTORIES.values():
            assert backend.summary and backend.memory_note

    def test_duplicate_registration_rejected(self):
        with pytest.raises(DirectoryError, match="duplicate"):
            register_directory(
                "exact", summary="dup", memory_note="dup"
            )(lambda n, bits, hashes: PointerSet(n))

    def test_lossy_backend_rejected_at_registration(self):
        """A sketch that can drop a true member never joins the registry."""

        class DroppySet(PointerSet):
            backend_name = "droppy"

            def set_slot(self, slot: int) -> None:
                if slot % 2 == 0:  # silently loses even slots
                    return
                super().set_slot(slot)

        with pytest.raises(DirectoryError, match="dropped true member"):
            register_directory(
                "droppy", summary="drops members", memory_note="n/a"
            )(lambda n, bits, hashes: DroppySet(n))
        assert "droppy" not in DIRECTORIES

    def test_non_roundtripping_backend_rejected(self):
        class ForgetfulSet(PointerSet):
            backend_name = "forgetful"

            def load(self, blob: bytes) -> None:
                super().load(blob)
                # superset-safe (adds a bit) but not a faithful round-trip
                self.set_slot(self.n_slots - 2)

        with pytest.raises(DirectoryError, match="round-trip"):
            register_directory(
                "forgetful", summary="lossy serialize", memory_note="n/a"
            )(lambda n, bits, hashes: ForgetfulSet(n))
        assert "forgetful" not in DIRECTORIES


class TestResolution:
    def test_auto_defaults_to_exact(self):
        assert DIRECTORIES.get("auto").name == "exact"
        assert make_directory_set("auto", 64).backend_name == "exact"

    def test_unknown_backend_raises(self):
        with pytest.raises(DirectoryError, match="unknown directory"):
            DIRECTORIES.get("cuckoo")
        with pytest.raises(DirectoryError, match="unknown directory"):
            make_directory_set("cuckoo", 64)


class TestBackendSurface:
    @pytest.mark.parametrize("backend", ["exact", "bloom", "lsh"])
    def test_serialize_roundtrip(self, backend):
        ds = make_directory_set(backend, 64, bits=24, hashes=2)
        for slot in (0, 7, 31, 63):
            ds.set_slot(slot)
        dup = decode_directory_set(backend, 64, ds.to_bytes(),
                                   bits=24, hashes=2)
        assert dup.to_bytes() == ds.to_bytes()
        assert all(dup.test_slot(s) for s in (0, 7, 31, 63))

    def test_saturating_bloom_is_bit_identical_to_exact(self):
        """bits=0 sizes the filter at one bit per slot: exact-equivalent."""
        exact = make_directory_set("exact", 128)
        bloom = make_directory_set("bloom", 128, bits=0)
        for slot in (0, 1, 17, 64, 127):
            exact.set_slot(slot)
            bloom.set_slot(slot)
        assert bloom.to_bytes() == exact.to_bytes()
        assert [s for s in range(128) if bloom.test_slot(s)] == \
            [s for s in range(128) if exact.test_slot(s)]
        assert bloom.estimate() == exact.estimate() == 5

    def test_sub_saturation_budget_is_the_modeled_cost(self):
        bloom = make_directory_set("bloom", 65536, bits=24, hashes=2)
        assert bloom.size_bits == 24
        assert bloom.sketch_params == (24, 2)
        # the shadow truth bitmap is measurement-only: not in the cost
        for slot in range(100):
            bloom.set_slot(slot)
        assert bloom.size_bits == 24

    def test_tight_budget_floods_but_never_drops(self):
        bloom = make_directory_set("bloom", 256, bits=8, hashes=4)
        members = set(range(0, 256, 17))
        for slot in members:
            bloom.set_slot(slot)
        assert all(bloom.test_slot(s) for s in members)
        # 8 bits for 16 members must flood — that is the memory trade
        positives = sum(bloom.test_slot(s) for s in range(256))
        assert positives > len(members)
