"""Minimal perfect hash function (MPHF).

SwitchPointer's pointer sets are bit arrays with exactly one bit per
end-host, indexed by a minimal perfect hash of the destination address
(§4.1.2).  The paper uses the FCH algorithm from the CMPH C library; this
is FCH's own form — bucket, then *offset* — with a per-bucket reseed:

1. Hash every key **once** (blake2b, 24 bytes); its first two 64-bit
   words are the key's *bucket* and *position*.  The n keys fall into
   r = n/λ buckets by ``bucket mod r``.
2. Process buckets largest-first.  Bucket B gets the smallest offset
   such that ``(position + offset) mod n`` is a distinct, still free slot
   for every key of B.  No offset is tried one by one: the free slots
   are one Python ``int`` bitmask, rotated right by each key's position
   and ANDed — the set bits of the result are exactly the valid offsets,
   and the lowest one is taken (bitmask first-fit).
3. When B has no valid offset (two keys share a position, or the AND is
   empty) only B is *reseeded*: its keys are re-hashed with salt
   1, 2, … for new positions.  This is what makes the build terminate
   on any key set (a lone bucket of 7 keys needs a few hundred reseeds;
   at n ≥ 16384 at most one bucket needs one).
4. Store one integer ``reseed · n + offset`` per bucket.  Lookup is the
   key's one hash, plus a second only for a reseeded bucket.

The search is O(n²/64) machine-word operations (one n-bit rotation per
key) next to n hashes; measured for :class:`HostDirectory` on a 2-core
sandbox: 1024 keys 2.2 ms, 16384 keys 64 ms, 65536 keys 0.50 s, 262144
keys 6.0 s — fine at every size this repository runs.

Properties matching the paper's requirements:

* **minimal** — exactly n slots for n keys, so a pointer set is n bits;
* **perfect** — zero collisions, so one bit per destination suffices;
* **one probe per packet** — the same slot index is reused across every
  level of the hierarchical pointer store;
* **small** — a few bits per key of displacement state (the paper quotes
  2.1 bits/key for FCH's seed state, 70 KB total per 100K hosts
  including auxiliary tables; :meth:`MinimalPerfectHash.size_bits`
  reports our measured figure, ~1.5 bits/key at 16384 keys).

Construction is deliberately an *offline* job: in the paper the analyzer
rebuilds and redistributes the MPHF only when the host set changes
(hours+); §4.1.2 notes temporary host failures simply leave bits unused.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable, Sequence

_SEED_BUCKET = 0xB0
_MAX_RESEED = 1 << 20
_WORDS = struct.Struct("<QQ")


class MphfBuildError(Exception):
    """Raised when construction fails (duplicate keys, search overflow)."""


def _words(data: bytes, salt: int) -> tuple[int, int]:
    """The (bucket, position) words of one salted hash (deterministic,
    stable across processes; the digest size is part of the hash)."""
    return _WORDS.unpack_from(hashlib.blake2b(
        data, digest_size=24, salt=struct.pack("<Q", salt)).digest())


def _reseed_limit(n: int) -> int:
    """Reseeds a bucket may take: the search cap, and ``reseed · n +
    offset`` stays a 32-bit word per bucket (every slot assignment this
    repository has built depends on this bound)."""
    return min(_MAX_RESEED, (1 << 32) // n)


def _as_bytes(key) -> bytes:
    if isinstance(key, bytes):
        return key
    if isinstance(key, str):
        return key.encode("utf-8")
    return str(key).encode("utf-8")


class MinimalPerfectHash:
    """Minimal perfect hash over a fixed key set.

    Build with :meth:`build`; evaluate with :meth:`lookup`.  Lookup is
    defined only for member keys — foreign keys map to an arbitrary slot,
    exactly like the paper's switch-side bit update (a stale destination
    simply sets a bit nobody reads).
    """

    def __init__(self, n: int, bucket_seed: int, displacements: list[int]):
        self._n = n
        self._bucket_seed = bucket_seed
        self._displacements = displacements

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, keys: Iterable, *, bucket_load: float = 4.0,
              bucket_seed: int = _SEED_BUCKET) -> "MinimalPerfectHash":
        """Construct an MPHF for ``keys``.

        ``bucket_load`` λ is the average bucket size; smaller λ stores
        more displacement entries, larger λ reseeds more buckets.
        """
        return cls._build(keys, bucket_load, bucket_seed)[0]

    @classmethod
    def _build(cls, keys: Iterable, bucket_load: float, bucket_seed: int
               ) -> tuple["MinimalPerfectHash", list[int]]:
        """:meth:`build`, plus the slot it gave each key (in key order)."""
        key_bytes = [_as_bytes(k) for k in keys]
        n = len(key_bytes)
        if n == 0:
            raise MphfBuildError("cannot build an MPHF over zero keys")
        if len(set(key_bytes)) != n:
            raise MphfBuildError("duplicate keys")
        if not bucket_load > 0:
            raise MphfBuildError(f"bucket_load must be > 0, got {bucket_load}")
        r = max(1, int(n / bucket_load))
        words = [_words(kb, bucket_seed) for kb in key_bytes]
        buckets: list[list[int]] = [[] for _ in range(r)]
        for i, (bucket, _) in enumerate(words):
            buckets[bucket % r].append(i)

        displacements = [0] * r
        slots = [0] * n
        limit = _reseed_limit(n)
        full = free = (1 << n) - 1  # bit s set <=> slot s is free
        for b in sorted(range(r), key=lambda b: len(buckets[b]),
                        reverse=True):
            members = buckets[b]
            where = [words[i][1] % n for i in members]
            for reseed in range(limit):
                if reseed:
                    where = [_words(key_bytes[i], reseed)[1] % n
                             for i in members]
                # bit o of ``free`` rotated right by p <=> slot (p + o) % n
                # is free; the AND over the bucket leaves the valid offsets
                fit = full if len(set(where)) == len(where) else 0
                for p in where:
                    fit &= (free >> p) | (free << (n - p))
                if fit:
                    break
            else:
                raise MphfBuildError(
                    f"no offset after {limit} reseeds "
                    f"for a bucket of size {len(members)}")
            offset = (fit & -fit).bit_length() - 1
            displacements[b] = reseed * n + offset
            for i, p in zip(members, where):
                slots[i] = (p + offset) % n
                free ^= 1 << slots[i]
        return cls(n, bucket_seed, displacements), slots

    # -- evaluation ----------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of keys == number of slots."""
        return self._n

    def lookup(self, key) -> int:
        """Slot in [0, n) for ``key`` (meaningful for member keys only):
        one hash, plus a second only when the key's bucket was
        reseeded."""
        kb = _as_bytes(key)
        bucket, position = _words(kb, self._bucket_seed)
        reseed, offset = divmod(
            self._displacements[bucket % len(self._displacements)], self._n)
        if reseed:
            position = _words(kb, reseed)[1]
        return (position + offset) % self._n

    # -- size accounting ----------------------------------------------------

    def size_bits(self) -> int:
        """Bits of state a switch must hold to evaluate the function:
        the displacements (mirrors the paper's 2.1 bits/key FCH figure
        counting only seed state)."""
        bits = 0
        for d in self._displacements:
            bits += max(1, d.bit_length())
        bits += 32  # n, seed
        return bits

    def bits_per_key(self) -> float:
        return self.size_bits() / self._n


class HostDirectory:
    """Bidirectional host ↔ slot mapping built on the MPHF.

    Switches only need slot := lookup(dst).  The analyzer additionally
    needs the reverse direction (bit → host name) to turn a retrieved
    pointer set back into a list of end-hosts to contact; it keeps the
    host list it built the MPHF from, ordered by slot.
    """

    def __init__(self, hosts: Sequence[str], *, bucket_load: float = 4.0):
        self._hosts = list(hosts)
        self.mphf, slots = MinimalPerfectHash._build(
            self._hosts, bucket_load, _SEED_BUCKET)
        self._slot_to_host: list[str] = [""] * self.mphf.n
        for h, slot in zip(self._hosts, slots):
            self._slot_to_host[slot] = h

    @property
    def n(self) -> int:
        return self.mphf.n

    @property
    def hosts(self) -> list[str]:
        return list(self._hosts)

    def slot_of(self, host: str) -> int:
        return self.mphf.lookup(host)

    def hosts_of(self, slots: Iterable[int]) -> list[str]:
        return sorted(self._slot_to_host[s] for s in slots)
