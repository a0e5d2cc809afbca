"""The seeded run stream: ambient randomness with a reproducible spine.

Every "ambient" random draw in the system — the background-workload
seed a scenario mints in ``launch_background``, the switch mask a
``partial-deployment`` fault samples — comes from one process-wide
seeded :class:`random.Random` instance, never from the module-level
``random`` functions.  The distinction is what makes a sweep point
replayable: run-table workers call :func:`seed_run` with the point's
recorded seed before the scenario builds, and ``cli run --seed`` does
the same, so a point reproduces bit-for-bit from its report entry.

Module-level ``random.<fn>()`` calls would silently share (and
reseed) interpreter-global state with anything else in the process —
a third-party library, a test harness — and break that contract.  The
``no-global-rng`` rule of ``tools/reprolint`` rejects them statically;
route new ambient draws through :func:`run_stream`, or give the
component its own ``random.Random`` / per-purpose ``_stream`` (see
:mod:`repro.simnet.workload`) when it owns a seed knob.
"""

from __future__ import annotations

import random

#: Seed a fresh process starts from when nothing calls seed_run() —
#: fixed, so two un-seeded CLI runs of the same scenario draw the same
#: ambient stream (determinism by default, not by accident).
DEFAULT_SEED = 0xD5EED

_RUN_STREAM = random.Random(DEFAULT_SEED)


def seed_run(seed: int) -> None:
    """Reset the run stream — the sweep-worker / ``--seed`` replay hook."""
    _RUN_STREAM.seed(seed)


def run_stream() -> random.Random:
    """The process-wide seeded stream ambient draws come from."""
    return _RUN_STREAM
