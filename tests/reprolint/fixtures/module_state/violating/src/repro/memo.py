"""Fixture: process-wide state that functions grow."""

import functools
from collections import defaultdict
from functools import lru_cache

_hash_cache: dict[str, int] = {}
_seen = []
_tags = set()
_counts = defaultdict(int)
_never_grown = {}


def flow_hash(key: str) -> int:
    h = _hash_cache.get(key)
    if h is None:
        h = _hash_cache[key] = len(key)
    return h


class Recorder:
    def note(self, item: str) -> None:
        _seen.append(item)

    def forget(self, tag: str) -> None:
        _tags.discard(tag)


def bump(key: str) -> None:
    def inner() -> None:
        _counts[key] += 1

    inner()


@functools.cache
def squares(n: int) -> int:
    return n * n


@lru_cache(maxsize=None)
def cubes(n: int) -> int:
    return n**3


quads = functools.lru_cache(None)(lambda n: n**4)
