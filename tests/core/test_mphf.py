"""Unit tests for the minimal perfect hash function."""

import hashlib
import struct
from types import SimpleNamespace

import pytest

from repro.core import mphf as mphf_module
from repro.core.mphf import (HostDirectory, MinimalPerfectHash,
                             MphfBuildError, MphfFormatError)


def hosts(n, prefix="h"):
    return [f"{prefix}{i}" for i in range(n)]


@pytest.fixture
def hash_calls(monkeypatch):
    """Counts the ``hashlib.blake2b`` calls made from ``repro.core.mphf``
    (and only from there): ``hash_calls[0]``."""
    calls = [0]

    def blake2b(*args, **kwargs):
        calls[0] += 1
        return hashlib.blake2b(*args, **kwargs)

    monkeypatch.setattr(mphf_module, "hashlib",
                        SimpleNamespace(blake2b=blake2b))
    return calls


class TestConstruction:
    # 16384 and 65536 are the fabric sizes the perf ledger and the
    # nightly incast point build
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 1000, 16384, 65536])
    def test_minimal_and_perfect(self, n):
        keys = hosts(n)
        mphf = MinimalPerfectHash.build(keys)
        slots = [mphf.lookup(k) for k in keys]
        assert sorted(slots) == list(range(n))  # bijection onto [0, n)

    def test_duplicate_keys_rejected(self):
        with pytest.raises(MphfBuildError):
            MinimalPerfectHash.build(["a", "b", "a"])

    def test_empty_rejected(self):
        with pytest.raises(MphfBuildError):
            MinimalPerfectHash.build([])

    @pytest.mark.parametrize("load", [0, -1.0, float("nan")])
    def test_non_positive_bucket_load_rejected(self, load):
        with pytest.raises(MphfBuildError):
            MinimalPerfectHash.build(hosts(10), bucket_load=load)

    def test_ip_like_keys(self):
        keys = [f"10.{i // 256}.{i % 256}.1" for i in range(500)]
        mphf = MinimalPerfectHash.build(keys)
        assert sorted(mphf.lookup(k) for k in keys) == list(range(500))

    def test_bytes_and_str_keys_equivalent(self):
        mphf = MinimalPerfectHash.build(["alpha", "beta"])
        assert mphf.lookup("alpha") == mphf.lookup(b"alpha")

    def test_deterministic_across_builds(self):
        keys = hosts(200)
        a = MinimalPerfectHash.build(keys)
        b = MinimalPerfectHash.build(keys)
        assert all(a.lookup(k) == b.lookup(k) for k in keys)

    def test_bucket_load_variations(self):
        keys = hosts(300)
        for load in (2.0, 4.0, 6.0):
            mphf = MinimalPerfectHash.build(keys, bucket_load=load)
            assert sorted(mphf.lookup(k) for k in keys) == list(range(300))


class TestOneHashPerKey:
    """The mechanism, pinned by count: the build hashes every key once
    (plus the few reseeded buckets), never once per displacement trial."""

    def test_directory_build_hashes_each_host_once(self, hash_calls):
        n = 4096
        HostDirectory(hosts(n))
        assert n <= hash_calls[0] <= 1.02 * n

    def test_lookup_is_one_hash(self, hash_calls):
        keys = hosts(4096)
        mphf = MinimalPerfectHash.build(keys)
        per_lookup = []
        for k in keys:
            before = hash_calls[0]
            mphf.lookup(k)
            per_lookup.append(hash_calls[0] - before)
        # exactly one, except for keys of the few reseeded buckets
        assert set(per_lookup) <= {1, 2}
        assert per_lookup.count(1) >= 0.98 * len(keys)

    def test_reseeded_bucket_still_perfect(self, hash_calls):
        # bucket_load = n puts every key in one bucket, and 7 random
        # positions are rarely distinct on the first hash
        keys = hosts(7)
        mphf = MinimalPerfectHash.build(keys, bucket_load=7.0)
        built = hash_calls[0]
        slots = [mphf.lookup(k) for k in keys]
        # two hashes per lookup <=> the bucket really was reseeded
        assert hash_calls[0] == built + 2 * len(keys)
        assert sorted(slots) == list(range(len(keys)))
        assert all(mphf.contains(k) for k in keys)
        clone = MinimalPerfectHash.deserialize(mphf.serialize())
        assert [clone.lookup(k) for k in keys] == slots
        assert all(clone.contains(k) for k in keys)


class TestSizeAccounting:
    def test_bits_per_key_small(self):
        """Displacement state stays within a small constant per key."""
        mphf = MinimalPerfectHash.build(hosts(5000))
        assert mphf.bits_per_key() < 8.0

    def test_bits_per_key_under_the_papers_fch_figure(self):
        """§4.1.2 quotes 2.1 bits/key for FCH; measured 1.47 here."""
        mphf = MinimalPerfectHash.build(hosts(16384))
        assert mphf.bits_per_key() < 2.1

    def test_size_scales_with_n(self):
        small = MinimalPerfectHash.build(hosts(100)).size_bits()
        large = MinimalPerfectHash.build(hosts(2000)).size_bits()
        assert large > small

    def test_fingerprints_excluded_by_default(self):
        mphf = MinimalPerfectHash.build(hosts(100))
        assert (mphf.size_bits(include_fingerprints=True)
                >= mphf.size_bits() + 16 * 100)


class TestMembership:
    def test_contains_members(self):
        keys = hosts(300)
        mphf = MinimalPerfectHash.build(keys)
        assert all(mphf.contains(k) for k in keys)

    def test_contains_rejects_most_foreign_keys(self):
        mphf = MinimalPerfectHash.build(hosts(300))
        foreign = [f"x{i}" for i in range(300)]
        false_positives = sum(mphf.contains(k) for k in foreign)
        # 16-bit fingerprints: expected FP rate ~2^-16
        assert false_positives <= 2


class TestSerialization:
    def test_roundtrip_preserves_lookups(self):
        keys = hosts(400)
        mphf = MinimalPerfectHash.build(keys)
        clone = MinimalPerfectHash.deserialize(mphf.serialize())
        assert all(clone.lookup(k) == mphf.lookup(k) for k in keys)
        assert all(clone.contains(k) for k in keys)

    def test_serialized_size_reasonable(self):
        mphf = MinimalPerfectHash.build(hosts(1000))
        blob = mphf.serialize()
        # fingerprints (2 B/key) dominate; well under 10 B/key total
        assert len(blob) < 10_000


class TestMalformedBlobs:
    """Corrupt input raises the named error, never ``struct.error``."""

    def blob(self):
        return MinimalPerfectHash.build(hosts(50)).serialize()

    @pytest.mark.parametrize("size", [0, 5, 19])
    def test_short_header(self, size):
        with pytest.raises(MphfFormatError):
            MinimalPerfectHash.deserialize(self.blob()[:size])

    @pytest.mark.parametrize("cut", [1, 2, 101])
    def test_short_body(self, cut):
        with pytest.raises(MphfFormatError):
            MinimalPerfectHash.deserialize(self.blob()[:-cut])

    def test_trailing_bytes(self):
        with pytest.raises(MphfFormatError):
            MinimalPerfectHash.deserialize(self.blob() + b"\x00")

    @pytest.mark.parametrize("n, r", [(0, 12), (50, 0)])
    def test_zero_counts(self, n, r):
        # the length is consistent with the header; the counts are not
        with pytest.raises(MphfFormatError):
            MinimalPerfectHash.deserialize(
                struct.pack("<QQI", n, 0xB0, r) + bytes(4 * r + 2 * n))

    def test_displacement_out_of_range(self):
        blob = bytearray(self.blob())
        # first displacement := 2^32 - 1, a reseed no build can reach
        struct.pack_into("<I", blob, struct.calcsize("<QQI"), 0xFFFFFFFF)
        with pytest.raises(MphfFormatError):
            MinimalPerfectHash.deserialize(bytes(blob))

    def test_is_a_value_error_exported_from_core(self):
        from repro.core import MphfFormatError as exported
        assert exported is MphfFormatError
        assert issubclass(MphfFormatError, ValueError)


class TestHostDirectory:
    def test_roundtrip_host_slot_host(self):
        names = hosts(64)
        directory = HostDirectory(names)
        for name in names:
            assert directory.host_of(directory.slot_of(name)) == name

    @pytest.mark.parametrize("n", [7, 1000])
    def test_slot_vector_agrees_with_lookup(self, n):
        """The reverse map is filled from the build's own slot vector —
        it must name, slot for slot, what ``lookup`` computes (n = 7 is
        one reseeded bucket)."""
        names = hosts(n)
        directory = HostDirectory(names, bucket_load=4.0 if n > 7 else 7.0)
        assert [directory.host_of(directory.mphf.lookup(h))
                for h in names] == names

    def test_hosts_of_sorted(self):
        names = hosts(10)
        directory = HostDirectory(names)
        slots = [directory.slot_of(h) for h in ("h3", "h1", "h7")]
        assert directory.hosts_of(slots) == ["h1", "h3", "h7"]

    def test_n_matches(self):
        assert HostDirectory(hosts(17)).n == 17

    def test_hosts_property_copies(self):
        directory = HostDirectory(hosts(5))
        listing = directory.hosts
        listing.append("intruder")
        assert len(directory.hosts) == 5
