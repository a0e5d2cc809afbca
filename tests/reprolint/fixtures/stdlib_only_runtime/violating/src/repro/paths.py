"""Fixture: third-party packages sneak back into the runtime."""

from __future__ import annotations

import heapq

import networkx as nx
from numpy.random import default_rng

from . import sibling


def shortest(adj: dict, src: str) -> list:
    import scipy.sparse.csgraph  # a function-local import still counts

    return [nx, default_rng, heapq, sibling]
