"""Fixture: tests are not callers."""

from repro import orphan_helper
from repro.store import Store, comment_only


def exercise_everything():
    Store().spill_to_disk()
    orphan_helper()
    comment_only()
