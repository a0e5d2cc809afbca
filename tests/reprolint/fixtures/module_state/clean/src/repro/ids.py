"""Fixture: counters on the objects that hand out the ids."""

import itertools

_PRIMES = iter((2, 3, 5))
SMALLEST = next(_PRIMES)  # advanced once, at import time


class Simulator:
    def __init__(self) -> None:
        self._seq = itertools.count()

    def ticket(self) -> int:
        return next(self._seq)


def shadowed() -> int:
    _PRIMES = iter((7,))
    return next(_PRIMES)


def first(items: list[int]) -> int:
    return next(iter(items))
