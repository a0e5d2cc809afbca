"""Fixture: state on objects callers own; module tables filled once."""

import functools

TABLE = {}
for _i in range(4):
    TABLE[_i] = _i * _i

_REGISTRY: dict[str, type] = {}  # reprolint: allow[module-state]


def register(cls: type) -> type:
    _REGISTRY[cls.__name__] = cls
    return cls


def lookup(n: int) -> int:
    return TABLE[n]


def shadowed(items: list[int]) -> list[int]:
    TABLE = {}
    for item in items:
        TABLE[item] = item
    return sorted(TABLE)


def parameter(TABLE: dict[int, int]) -> None:
    TABLE.clear()


class Hasher:
    def __init__(self) -> None:
        self.memo: dict[str, int] = {}

    def __call__(self, key: str) -> int:
        h = self.memo.get(key)
        if h is None:
            h = self.memo[key] = len(key)
        return h


@functools.lru_cache(maxsize=128)
def bounded(n: int) -> int:
    return n * n
