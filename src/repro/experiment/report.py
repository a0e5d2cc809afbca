"""Machine-readable study results: :class:`ExperimentReport` + schema.

One experiment produces one *artifact directory* (see
:mod:`repro.experiment.runner`): a manifest, one :class:`RunArtifact`
document per ``(point, rep)`` run, and a final ``report.json``
aggregating the runs into per-point curves.  This module owns the
report side — the persisted run, the deterministic per-run record, the
per-point aggregate (mean/min/max accuracy and timing across
repetitions) — declared in the report table of
:mod:`repro.sweep.report`, which derives every writer and validator.

**Determinism contract.**  Everything in the report derives from the
run seeds alone — diagnosis outcomes, simulated time, record counts —
and nothing derives from the host (wall-clock timings stay in the
per-run artifact files, which keep the full
:class:`~repro.sweep.report.PointResult` payload).  That is what makes
the resumability guarantee byte-exact: a study interrupted after K of N
runs and re-invoked produces the same ``report.json``, byte for byte,
as an uninterrupted one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Optional

from ..sweep.report import PointResult, Record, col, derived, validate

SCHEMA = "switchpointer.experiment-report/v2"
RUN_SCHEMA = "switchpointer.experiment-run/v1"
MANIFEST_SCHEMA = "switchpointer.experiment-manifest/v1"


@dataclass(slots=True)
class RunArtifact(Record):
    """One persisted ``(point, rep)`` run: its table identity and the
    full :class:`PointResult`, wall-clock timings included."""

    SCHEMA: ClassVar[Optional[str]] = RUN_SCHEMA

    experiment: str = col(str)
    point: int = col(int)
    rep: int = col(int)
    params: dict[str, Any] = col(dict)
    seed: int = col(int)
    result: PointResult = col(dict, record=PointResult)


def _count_pending(result: dict[str, Any]) -> int:
    """Pending faults in one run's recorded fault plan.

    A fault scheduled past the run window surfaces as ``[pending]`` in
    the scenario's ``fault_plan`` measurement (one describe() line per
    composed fault); counting it here is what keeps such faults from
    silently vanishing out of a study's aggregates.
    """
    lines = result["measurements"].get("fault_plan", [])
    return sum(1 for line in lines if str(line).endswith("[pending]"))


@dataclass(slots=True)
class RunRecord(Record):
    """The deterministic (seed-derived) subset of one run's outcome."""

    point: int = col(int)
    rep: int = col(int)
    params: dict[str, Any] = col(dict)
    seed: int = col(int)
    diagnosis_ok: bool = col(bool, default=False)
    problems: list[str] = col(list, factory=list)
    suspects: list[str] = col(list, factory=list)
    sim_time_s: float = col(int, float, digits=9, default=0.0)
    diagnosis_latency_sim_s: float = col(int, float, digits=9, default=0.0)
    freshness: int = col(int, default=0)
    flow_count: int = col(int, default=0)
    peak_records: int = col(int, default=0)
    pending_faults: int = col(int, default=0)
    #: sketch-directory false-positive rate over the run's pointer
    #: queries (0.0 for the exact backend)
    directory_fpr: float = col(int, float, digits=6, default=0.0)
    error: Optional[str] = col(str, None, default=None)

    @derived(bool)
    def ok(self) -> bool:
        return self.error is None and self.diagnosis_ok

    @classmethod
    def from_artifact(cls, doc: dict[str, Any]) -> RunRecord:
        """Extract the record from one validated :class:`RunArtifact`
        document: only the seed-determined fields cross into the report.
        """
        result = doc["result"]
        return cls(
            point=doc["point"],
            rep=doc["rep"],
            params=dict(doc["params"]),
            seed=doc["seed"],
            diagnosis_ok=result["diagnosis_ok"],
            problems=list(result["problems"]),
            suspects=list(result["suspects"]),
            sim_time_s=result["sim_time_s"],
            diagnosis_latency_sim_s=result["diagnosis_latency_sim_s"],
            freshness=result["freshness"],
            flow_count=result["flow_count"],
            peak_records=result["peak_records"],
            pending_faults=_count_pending(result),
            # an errored run measured nothing
            directory_fpr=result["measurements"].get("directory_fpr", 0.0),
            error=result["error"],
        )


@dataclass(slots=True)
class Stats(Record):
    """One statistic across a point's repetitions."""

    mean: float = col(int, float)
    min: float = col(int, float)
    max: float = col(int, float)


def _stats(values: list[float], digits: int) -> Stats:
    return Stats(
        mean=round(sum(values) / len(values), digits),
        min=round(min(values), digits),
        max=round(max(values), digits),
    )


@dataclass(slots=True)
class PointAggregate(Record):
    """One grid point's statistics across its repetitions."""

    point: int = col(int, ordinal=True)
    params: dict[str, Any] = col(dict)
    knobs: dict[str, Any] = col(dict)
    reps: int = col(int)
    accuracy: Stats = col(dict, record=Stats)
    sim_time_s: Stats = col(dict, record=Stats)
    diagnosis_latency_sim_s: Stats = col(dict, record=Stats)
    freshness: Stats = col(dict, record=Stats)
    directory_fpr: Stats = col(dict, record=Stats)
    errors: int = col(int)
    pending_faults: int = col(int)
    peak_records: int = col(int)

    @classmethod
    def from_runs(cls, runs: list[RunRecord], knobs: dict[str, Any]) -> PointAggregate:
        return cls(
            point=runs[0].point,
            params=dict(runs[0].params),
            knobs=dict(knobs),
            reps=len(runs),
            accuracy=_stats([1.0 if r.ok else 0.0 for r in runs], 6),
            sim_time_s=_stats([r.sim_time_s for r in runs], 9),
            diagnosis_latency_sim_s=_stats(
                [r.diagnosis_latency_sim_s for r in runs], 9
            ),
            freshness=_stats([float(r.freshness) for r in runs], 6),
            directory_fpr=_stats([r.directory_fpr for r in runs], 6),
            errors=sum(1 for r in runs if r.error is not None),
            pending_faults=sum(r.pending_faults for r in runs),
            peak_records=max(r.peak_records for r in runs),
        )


@dataclass(slots=True)
class ExperimentReport(Record):
    """Everything one study produced, JSON-serializable."""

    SCHEMA: ClassVar[Optional[str]] = SCHEMA

    experiment: str = col(str)
    sweep: str = col(str)
    scenario: str = col(str)
    expect_problem: str = col(str)
    base_seed: int = col(int)
    reps: int = col(int)
    grid: dict[str, list[Any]] = col(dict)
    runs: list[RunRecord] = col(list, record=RunRecord, factory=list)
    points: list[PointAggregate] = col(list, record=PointAggregate, factory=list)

    @derived(dict)
    def summary(self) -> dict[str, Any]:
        oks = sum(1 for r in self.runs if r.ok)
        return {
            "runs": len(self.runs),
            "ok_runs": oks,
            "errors": sum(1 for r in self.runs if r.error is not None),
            "pending_faults": sum(r.pending_faults for r in self.runs),
            "points": len(self.points),
            "mean_accuracy": (
                round(oks / len(self.runs), 6) if self.runs else 0.0
            ),
        }


def aggregate_runs(
    *,
    experiment: str,
    sweep: str,
    scenario: str,
    expect_problem: str,
    base_seed: int,
    reps: int,
    grid: dict[str, list[Any]],
    artifacts: list[dict[str, Any]],
) -> ExperimentReport:
    """Fold the persisted run documents into one report.

    Order-independent: records sort by ``(point, rep)``, so the report
    is identical however the runs completed (workers, resume order).
    """
    records = sorted(
        (RunRecord.from_artifact(doc) for doc in artifacts),
        key=lambda r: (r.point, r.rep),
    )
    by_point: dict[int, list[RunRecord]] = {}
    for record in records:
        by_point.setdefault(record.point, []).append(record)
    knobs_by_point = {doc["point"]: doc["result"]["knobs"] for doc in artifacts}
    points = [
        PointAggregate.from_runs(by_point[point], knobs_by_point[point])
        for point in sorted(by_point)
    ]
    return ExperimentReport(
        experiment=experiment,
        sweep=sweep,
        scenario=scenario,
        expect_problem=expect_problem,
        base_seed=base_seed,
        reps=reps,
        grid=grid,
        runs=records,
        points=points,
    )


def validate_experiment_report(doc: Any) -> list[str]:
    """Structural check of an ExperimentReport document; [] = valid."""
    return validate(ExperimentReport, doc)
