"""Fixture: a package re-export is not a use."""

from .store import Store

__all__ = ["Store"]
