"""Fixture: a package re-export is not a use."""

from .store import Store, orphan_helper

__all__ = ["Store", "orphan_helper"]
