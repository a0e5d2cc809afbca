"""Directory-backend registry (the ``directory_backend`` knob).

A switch's per-epoch directory — "which end-host slots did I forward
to?" — is held by one of several interchangeable *directory sets*: the
exact one-bit-per-host bitmap of :class:`~repro.core.pointer.PointerSet`
(the paper's §4.1.1 design and the equivalence reference), a bloom
filter whose bit budget trades memory against a false-positive rate,
and a banded-minhash variant whose signatures additionally answer
"which switches saw traffic *similar* to this one?" (the analyzer's
co-suspect ranking).  All of them expose the same
set/test/union/serialize surface, so which one a deployment uses is a
memory↔accuracy knob, not a code path.

The approximation contract is one-sided: a directory set may report
slots that were never touched (false positives widen the analyzer's
host consultation), but it must **never** drop a slot that was set —
the analyzer's answers stay supersets of the truth, so diagnosis can
degrade but not silently miss evidence.  :func:`register_directory`
probes every backend against that contract at registration time and
rejects any sketch that can lose a true member.

This module is the registry deployments select from:

* :func:`register_directory` — decorator registering a factory under a
  name (``reprolint``'s registry-coverage rule checks every registering
  module is reachable from the package ``__init__``).
* :data:`DIRECTORIES` — the registered :class:`DirectoryBackend`
  entries; ``"auto"``, the knob's default, is an alias of ``"exact"``.
* :func:`make_directory_set` — build a set by backend name or alias.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Protocol

from ..registry import Registry


class DirectoryError(Exception):
    """Raised for registry misuse or a backend breaking the contract."""


class DirectorySet(Protocol):
    """The surface every directory backend must implement.

    ``n_slots`` is the MPHF range (one logical slot per end-host);
    ``size_bits`` is the *modeled* switch-memory cost of one set —
    shadow bookkeeping a sketch keeps for measurement (a sketch's exact
    truth bitmap) is excluded by definition and must never influence
    query answers.
    """

    n_slots: int
    #: registry name of the backend that produced this set
    backend_name: str

    def set_slot(self, slot: int) -> None:
        """Record "forwarded to ``slot``" (the per-packet path)."""
        ...

    def test_slot(self, slot: int) -> bool:
        """Approximate membership: may false-positive, never false-negative."""
        ...

    def iter_slots(self) -> Iterator[int]:
        """Enumerate the member superset, ascending."""
        ...

    def union_into(self, other: "DirectorySet") -> None:
        """Merge this set into ``other`` (level coalescing)."""
        ...

    def to_bytes(self) -> bytes:
        """Serialize the sketch payload (what a push transfers)."""
        ...

    def load(self, blob: bytes) -> None:
        """Deserialize a :meth:`to_bytes` payload into this set."""
        ...

    @property
    def sketch_params(self) -> tuple[int, int]:
        """Resolved ``(bits, hashes)`` parameters (decode identity)."""
        ...

    @property
    def size_bits(self) -> int:
        """Modeled memory cost of this set in bits."""
        ...


#: factory signature: (n_slots, directory_bits, directory_hashes)
DirectoryFactory = Callable[[int, int, int], DirectorySet]


@dataclass(frozen=True)
class DirectoryBackend:
    """One registered directory-set backend.

    ``memory_note`` states how the backend spends the ``directory_bits``
    budget (the docs catalogue and ``cli directory list`` render it).
    """

    name: str
    summary: str
    memory_note: str
    factory: DirectoryFactory
    aliases: tuple[str, ...] = ()


#: deterministic probe the registration self-check runs every backend
#: through: a deliberately tight budget (24 bits for 64 slots) so a
#: backend that *can* drop members will
_PROBE_SLOTS = (0, 3, 7, 11, 29, 63)
_PROBE_EXTRA = (1, 29, 42)


def _superset_self_check(backend: DirectoryBackend) -> None:
    """Reject at registration any sketch that can drop a true member.

    Exercises the paths the hierarchy and the analyzer rely on: direct
    membership, enumeration, union coalescing, and a serialize →
    deserialize round-trip.  A false positive is fine (that is the
    memory trade); a false negative anywhere fails the registration.
    """
    name, factory = backend.name, backend.factory

    def missing(ds: DirectorySet, members: set[int], where: str) -> None:
        dropped = sorted(
            s for s in members if not ds.test_slot(s)
        ) or sorted(members - set(ds.iter_slots()))
        if dropped:
            raise DirectoryError(
                f"directory backend {name!r} dropped true member(s) "
                f"{dropped} {where} — sketches must answer with "
                f"supersets (no false negatives)"
            )

    probe = factory(64, 24, 2)
    for slot in _PROBE_SLOTS:
        probe.set_slot(slot)
    missing(probe, set(_PROBE_SLOTS), "after insertion")
    target = factory(64, 24, 2)
    for slot in _PROBE_EXTRA:
        target.set_slot(slot)
    probe.union_into(target)
    members = set(_PROBE_SLOTS) | set(_PROBE_EXTRA)
    missing(target, members, "after union_into")
    dup = factory(64, 24, 2)
    dup.load(target.to_bytes())
    missing(dup, members, "after a serialize round-trip")
    if dup.to_bytes() != target.to_bytes():
        raise DirectoryError(
            f"directory backend {name!r} does not round-trip its "
            f"serialized payload"
        )


#: Every registered backend, by name (``"auto"`` aliases ``"exact"``).
DIRECTORIES: Registry[DirectoryBackend] = Registry(
    "directory backend",
    DirectoryError,
    lambda backend: (backend.name, *backend.aliases),
    check=_superset_self_check,
)


def register_directory(
    name: str, *, summary: str, memory_note: str, aliases: tuple[str, ...] = ()
) -> Callable[[DirectoryFactory], DirectoryFactory]:
    """Register a directory-set factory under ``name`` (decorator).

    The factory is probed by :func:`_superset_self_check` before it is
    accepted.
    """

    def deco(factory: DirectoryFactory) -> DirectoryFactory:
        DIRECTORIES.register(
            DirectoryBackend(name, summary, memory_note, factory, aliases)
        )
        return factory

    return deco


def make_directory_set(
    backend: str, n_slots: int, *, bits: int = 0, hashes: int = 4
) -> DirectorySet:
    """Build one directory set by backend name or alias.

    ``bits`` is the per-set memory budget; 0 means "saturating" — the
    backend sizes itself so it is exact-equivalent (one bit per slot),
    which is what makes the default knob values match the exact backend
    bit for bit.
    """
    return DIRECTORIES.get(backend).factory(n_slots, bits, hashes)


def decode_directory_set(
    backend: str, n_slots: int, blob: bytes, *, bits: int = 0, hashes: int = 4
) -> DirectorySet:
    """Rebuild a set from a serialized payload (the analyzer pull path)."""
    ds = make_directory_set(backend, n_slots, bits=bits, hashes=hashes)
    ds.load(blob)
    return ds


def directory_markdown() -> str:
    """The ``docs/DIRECTORIES.md`` catalogue body (one source of truth)."""
    lines = [
        "# Directory backends",
        "",
        "<!-- generated by tools/gen_docs.py — do not edit; "
        "run `python tools/gen_docs.py directories` after changing "
        "src/repro/directory/ -->",
        "",
        "A switch's per-epoch directory is held by one of the backends",
        "below (the `directory_backend` deployment knob; `auto` is an",
        "alias of `exact`).  Every backend is probed at registration to",
        "guarantee *superset* answers: false positives trade memory for",
        "accuracy, false negatives are rejected outright.",
        "",
        "| backend | summary | memory (`directory_bits` budget) |",
        "|---|---|---|",
    ]
    for b in DIRECTORIES.values():
        lines.append(f"| `{b.name}` | {b.summary} | {b.memory_note} |")
    lines += [
        "",
        "## Knobs",
        "",
        "| knob | default | meaning |",
        "|---|---|---|",
        "| `directory_backend` | `auto` | backend name above, or `auto` |",
        "| `directory_bits` | `0` | per-set bit budget; 0 = saturating "
        "(exact-equivalent: one bit per host slot) |",
        "| `directory_hashes` | `4` | hash probes per insert (bloom/lsh) |",
        "",
        "## The superset contract",
        "",
        "`Analyzer.hosts_for` surfaces approximate answers as supersets",
        "of the true host set and stamps the verdicts it feeds with an",
        "`approx` evidence label; the measured false-positive rate rides",
        "sweep reports as the `directory_fpr` measurement (see the",
        "`directory-bits` sweep and the `directory-degradation` study).",
        "",
    ]
    return "\n".join(lines)
