"""Fixture: process-wide counters that functions advance."""

import itertools
from itertools import count as counter

_link_ids = itertools.count(0)
_serials = counter()
_tokens = iter(range(10))
_never_advanced = itertools.count()


class Link:
    def __init__(self) -> None:
        self.link_id = next(_link_ids)


def serial() -> int:
    return next(_serials)


def token() -> int:
    return next(_tokens, -1)
