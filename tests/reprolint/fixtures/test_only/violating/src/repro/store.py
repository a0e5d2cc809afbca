"""Fixture: five definitions only tests reach.

spill_to_disk, orphan_helper and comment_only are named here, in a
docstring, which is not a use.  Planned and its method later are named
nowhere else at all.
"""

from .registry import register_backend


class Store:
    def keep(self):
        return self

    def describe(self):
        return "store"

    def __len__(self):
        return 0

    def spill_to_disk(self):
        """spill_to_disk: its own body does not count either."""
        return self.spill_to_disk


def orphan_helper():
    return None


def comment_only():
    # run.main could call comment_only(), but a comment is not a call
    return None


def traced_step():
    """Supersedes comment_only"""
    return None


class Planned:
    def later(self):
        return None


@register_backend("exact")
def _exact_factory():
    return Store()
