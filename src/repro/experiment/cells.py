"""The cell runner: every run-table cell executes here.

:func:`run_cells` is the one executor behind run tables
(:class:`repro.experiment.runner.Experiment`; a scale sweep is the
one-repetition table).  A cell
(:data:`~repro.experiment.registry.Cell`) is one scenario
execution at fixed knobs and seed; cells are independent, so they run
in ``multiprocessing`` workers (forked where available, spawned
otherwise), one per task, results streamed back as they finish, or
inline with ``workers=1`` (tests, one-core CI runners).  Workers return
plain :class:`PointResult` payloads — never the huge, unpicklable
network or deployment objects.  A cell that raises, or whose worker
dies, becomes an errored result; it never takes the run down.
Because :func:`execute_point` seeds before the scenario builds, any
cell replays bit-for-bit as a single run —
``cli run <scenario> --seed <seed> --knob ...``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, Optional

from ..core.rng import seed_run
from .registry import Cell
from .records import PointResult

DEFAULT_BASE_SEED = 1729


def execute_point(payload: Cell) -> PointResult:
    """Run one cell; the process-pool task function."""
    scenario, knobs, seed, expect_problem, expect_suspect, index, params = payload
    result = PointResult(index=index, params=params, knobs=knobs, seed=seed)
    seed_run(seed)
    start = time.perf_counter()  # reprolint: allow[wall-clock]
    try:
        # imported here so pool workers (and spawn children) pull in the
        # scenario registry themselves, and so this module never imports
        # scenarios at module scope (scenario modules import the
        # experiment registry to declare their run tables)
        from ..scenarios import run_scenario

        outcome = run_scenario(scenario, **knobs)
    except Exception as exc:  # noqa: BLE001 - a cell must never kill the run
        result.error = f"{type(exc).__name__}: {exc}"
        result.wall_time_s = (  # reprolint: allow[wall-clock]
            time.perf_counter() - start)
        return result
    result.wall_time_s = time.perf_counter() - start  # reprolint: allow[wall-clock]
    result.phase_s = dict(outcome.timings)
    result.sim_time_s = outcome.sim_time
    result.diagnosis_latency_sim_s = outcome.diagnosis_latency_sim
    result.freshness = outcome.freshness
    result.problems = [v.problem for v in outcome.verdicts]
    result.suspects = [v.suspect for v in outcome.verdicts if v.suspect]
    result.diagnosis_ok = expect_problem in result.problems and (
        expect_suspect is None or expect_suspect in result.suspects
    )
    result.measurements = dict(outcome.measurements)
    # scenarios that drive a traffic population report it under the
    # shared "flow_count" measurement key (see docs/WORKLOADS.md)
    result.flow_count = int(outcome.measurements.get("flow_count", 0))
    if outcome.deployment is not None:
        stats = outcome.deployment.record_stats()
        result.peak_records = stats["peak_records"]
        result.total_records = stats["total_records"]
        result.evicted_records = stats["evicted_records"]
        run_s = outcome.timings.get("run", 0.0)
        if run_s > 0:
            # packets decoded into host record tables per wall-clock
            # second of the run phase: each is decoded as it arrives,
            # so the run phase pays for all of them
            result.ingest_records_per_s = stats["ingested_records"] / run_s
    return result


def run_cells(
    cells: list[Cell],
    workers: Optional[int] = None,
    on_result: Optional[Callable[[PointResult], None]] = None,
) -> list[PointResult]:
    """Run every cell; returns one :class:`PointResult` per cell, in order.

    ``workers`` defaults to the CPU count and is capped at the cell
    count; ``workers=1`` (or a single cell) runs inline, otherwise the
    cells go to a process pool, one cell per task.  ``on_result``
    observes each result as it lands — the experiment runner persists
    each run from it.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    workers = min(workers, len(cells))
    results: list[PointResult] = []

    def land(result: PointResult) -> None:
        results.append(result)
        if on_result is not None:
            on_result(result)

    if workers <= 1:
        for cell in cells:
            land(execute_point(cell))
    else:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        # ProcessPoolExecutor (not multiprocessing.Pool) so a worker
        # killed outright — OOM, signal — surfaces as BrokenProcessPool
        # on its future instead of hanging forever; the dead worker's
        # cell (and any aborted with it) becomes an errored result like
        # any other failure
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            futures = {pool.submit(execute_point, cell): cell for cell in cells}
            for future in as_completed(futures):
                try:
                    result = future.result()
                except Exception as exc:  # noqa: BLE001
                    _, knobs, seed, _, _, index, params = futures[future]
                    result = PointResult(
                        index=index,
                        params=params,
                        knobs=knobs,
                        seed=seed,
                        error=f"worker died: {type(exc).__name__}: {exc}",
                    )
                land(result)
    results.sort(key=lambda r: r.index)
    return results
