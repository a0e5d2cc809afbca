"""Fixture: the standard library, repro itself and relative imports."""

from __future__ import annotations

import collections.abc
import heapq
from typing import Optional

import repro.core
from repro.simnet import topology

from . import sibling
from .sibling import helper


def shortest(adj: dict, src: str) -> Optional[list]:
    import json  # function-local stdlib import

    return json.loads("null")
