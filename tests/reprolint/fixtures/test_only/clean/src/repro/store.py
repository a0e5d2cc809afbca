"""Fixture: every definition has a caller outside tests/, or is exempt."""

from .registry import register_backend


class Store:
    def keep(self):
        return self

    def describe(self):
        return "store"

    def __len__(self):
        return 0


def traced_step():
    return None


class Planned:  # reprolint: allow[test-only]
    def later(self):
        return None


@register_backend("exact")
def _exact_factory():
    return Store()
