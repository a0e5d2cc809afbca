#!/usr/bin/env python3
"""A fixed CPU-bound probe: the ledger's machine-speed annotation.

``benchmarks/ledger/report.py`` imports :func:`calibrate` by this
module path and writes its result to every root snapshot as
``machine.cpu_probe_s``, a note for the reader that never rescales a
number.  That import is why the module keeps its name after the
absolute-time baseline gate it once held was removed; a change to the
ledger may move the probe and this file with it.

The module imports nothing from ``repro``, so the probe measures the
interpreter alone.
"""

from __future__ import annotations

import time


def calibrate() -> float:
    """Wall time of a fixed CPU-bound probe (machine-speed yardstick).

    Best of three runs of a pure-Python arithmetic loop, the same kind
    of work the benchmarks spend their time on.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(1_500_000):
            acc += i * i
        best = min(best, time.perf_counter() - start)
    return best
