"""Unit tests for the minimal perfect hash function."""

import hashlib
from types import SimpleNamespace

import pytest

from repro.core import mphf as mphf_module
from repro.core.mphf import HostDirectory, MinimalPerfectHash, MphfBuildError


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


#: n -> (size_bits, sha256 of the comma-joined slots of h0..h{n-1}).
#: Every pointer bit, query answer and ledger fingerprint depends on
#: these assignments; a change to the hash, the bucket split or the
#: reseed bound moves them.
PINNED_ASSIGNMENTS = {
    1: (33, "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9"),
    2: (34, "83b97b859aa5f81b2f0f86ba2a675efaf515ad2d5e2b8652cf2de7e1c2267350"),
    3: (34, "c0be322c1ad6af50f418b96232d98fe25a36d5d0a557291833f8248f2084b8ef"),
    7: (43, "9c5425bea46c8f1c0345964a6dae01d554ba7a38fc1f5ee4518b42c4762d03ca"),
    100: (177, "19768fa9b8a47274b48e78a21f3e74e75e2e53af0a71832ad843fc5d779eb294"),
    1000: (1408, "91f5549c0c92f0c17b15519d277bd50cf142cbbe6cb3d7b2241ef8478cbc52e0"),
    16384: (24013, "aa704ec1c0bf9b56fec32c0f9850676f201af5d1c40a7a6c8f97e55fa183d786"),
    65536: (96572, "30f29de3c0c83cdec22ab7e06ca7d4d51aafb78a55e95f1793f5168a018806d1"),
}


@pytest.mark.parametrize("n", sorted(PINNED_ASSIGNMENTS))
def test_slot_assignment_pinned(n):
    names = hosts(n)
    directory = HostDirectory(names)
    blob = ",".join(str(directory.slot_of(h)) for h in names)
    assert (directory.mphf.size_bits(),
            hashlib.sha256(blob.encode()).hexdigest()) == PINNED_ASSIGNMENTS[n]


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


class TestHostDirectory:
    def test_roundtrip_host_slot_host(self):
        names = hosts(64)
        directory = HostDirectory(names)
        for name in names:
            assert directory.hosts_of([directory.slot_of(name)]) == [name]

    @pytest.mark.parametrize("n", [7, 1000])
    def test_slot_vector_agrees_with_lookup(self, n):
        """The reverse map is filled from the build's own slot vector —
        it must name, slot for slot, what ``lookup`` computes (n = 7 is
        one reseeded bucket)."""
        names = hosts(n)
        directory = HostDirectory(names, bucket_load=4.0 if n > 7 else 7.0)
        assert [directory.hosts_of([directory.mphf.lookup(h)])[0]
                for h in names] == names

    def test_hosts_of_sorted(self):
        names = hosts(10)
        directory = HostDirectory(names)
        slots = [directory.slot_of(h) for h in ("h3", "h1", "h7")]
        assert directory.hosts_of(slots) == ["h1", "h3", "h7"]

    def test_n_matches(self):
        assert HostDirectory(hosts(17)).n == 17
