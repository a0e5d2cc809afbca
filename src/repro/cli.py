"""Command-line interface: run scenarios and experiments from the shell.

Usage::

    python -m repro.cli list                     # every registered scenario
    python -m repro.cli run incast               # any name or alias
    python -m repro.cli run gray-failure --knob fault_switch=S2
    python -m repro.cli run fig3                 # fig ids are aliases
    python -m repro.cli run fig7 --knob m_flows=16 --knob duration=0.045
    python -m repro.cli sweep list               # registered scale sweeps
    python -m repro.cli sweep run incast --grid hosts=64,256,1024
    python -m repro.cli sweep run incast-scale --grid hosts=256 flows=2000
    python -m repro.cli sweep nightly            # every sweep, reduced grid
    python -m repro.cli experiment list          # registered run-table studies
    python -m repro.cli experiment run skew-degradation --reps 5
    python -m repro.cli experiment nightly       # every experiment
    python -m repro.cli faults list              # registered faults
    python -m repro.cli directory list           # directory-set backends
    python -m repro.cli sizing --hosts 100000 --alpha 10 --k 3

``list``, ``run``, ``sweep``, and ``faults`` are driven entirely by
the scenario, sweep, and fault registries (:mod:`repro.scenarios`,
:mod:`repro.sweep`, :mod:`repro.faults`): registering a new scenario
class, sweep spec, or fault class makes it appear here with no CLI
edits.  The paper's figure ids (``fig2a``, ``fig3``, ...) are registry
aliases, so one figure point is one ``run <fig id> --knob ...``; every
verdict line carries the modelled debugging time and hosts consulted
(the Fig 7 and Fig 8 y-axes).

``sweep`` and ``experiment`` share one runner: a sweep is a
one-repetition :class:`~repro.experiment.Experiment` over the sweep's
own grid, written to the same resumable artifact directory
(``results/sweeps/<name>/``, ``results/experiments/<name>/``) and
graded from the same report summary — a sweep passes only if every run
diagnosed correctly, an experiment unless a run errored.

The heavy lifting lives in :mod:`repro.scenarios`,
:mod:`repro.experiment`, :mod:`repro.sweep` and :mod:`repro.core.sizing`;
this module only parses arguments and prints.  Each subcommand's parser
names its handler (``set_defaults(func=...)``) and :func:`main` calls
it.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .core.rng import seed_run
from .core.sizing import (push_bandwidth_bps, recycling_period_ms,
                          total_switch_memory_bytes)
from .directory import DIRECTORIES
from .experiment import (EXPERIMENTS, Experiment, ExperimentError,
                         ExperimentSpec)
from .faults import FAULTS, FaultError
from .scenarios import REGISTRY, ScenarioError, run_scenario
from .simnet.engine import SimulationError
from .sweep import (SWEEPS, GridError, SweepError, coerce_value, parse_grid,
                    DEFAULT_BASE_SEED)

#: Non-scenario commands (the resource-arithmetic calculator).
SIZING_DESC = "Fig 10/11 resource arithmetic for one (n, alpha, k)"


# ---------------------------------------------------------------------------
# registry-driven commands
# ---------------------------------------------------------------------------

def _scenario_lines(cls) -> list[str]:
    spec = cls.spec
    aliases = f" [{','.join(spec.aliases)}]" if spec.aliases else ""
    return [f"  {spec.name:15s}{aliases:15s} {spec.summary}"]


def _fault_lines(cls) -> list[str]:
    spec = cls.spec
    return [f"  {spec.name:20s} params: {','.join(spec.params) or '-'}",
            f"  {'':20s} {spec.summary}"]


def _directory_lines(backend) -> list[str]:
    return [f"  {backend.name:20s} {backend.summary}",
            f"  {'':20s} memory: {backend.memory_note}"]


def _sweep_lines(spec) -> list[str]:
    return [f"  {spec.name:15s} scenario: {spec.scenario}  "
            f"axes: {','.join(spec.axes)}",
            f"  {'':15s} {spec.summary}"]


def _experiment_lines(spec) -> list[str]:
    points = math.prod(len(values) for values in spec.axes.values())
    return [f"  {spec.name:20s} sweep: {spec.sweep}  "
            f"axes: {','.join(spec.axes)}  table: {points}x{spec.reps}",
            f"  {'':20s} {spec.summary}"]


def _listings() -> dict:
    """Each ``list`` command: (header, the registry's items, one item's
    lines, closing lines)."""
    return {
        "scenarios": ("scenarios (python -m repro.cli run <name>):",
                      REGISTRY.values(), _scenario_lines,
                      ["other commands:", f"  {'sizing':30s} {SIZING_DESC}"]),
        "faults": ("faults (composable via scenario knobs / FaultPlan; "
                   "docs/FAULTS.md):", FAULTS.values(), _fault_lines,
                   [f"{len(FAULTS)} fault(s) registered; every fault also "
                    f"takes start= and stop="]),
        "directories": (
            "directory backends (scenario knobs directory_backend= / "
            "directory_bits= / directory_hashes=; docs/DIRECTORIES.md):",
            DIRECTORIES.values(), _directory_lines,
            [f"{len(DIRECTORIES)} backend(s) registered; \"auto\" resolves "
             f"to {DIRECTORIES.get('auto').name!r} (every sketch is "
             f"superset-checked at registration: no false negatives)"]),
        "sweeps": ("sweeps (python -m repro.cli sweep run <name>):",
                   SWEEPS.values(), _sweep_lines, []),
        "experiments": ("experiments (python -m repro.cli experiment run "
                        "<name>):", EXPERIMENTS.values(), _experiment_lines,
                        []),
    }


def cmd_list(args) -> int:
    """Print the registry ``args.listing`` names, one item at a time."""
    header, items, render, closing = _listings()[args.listing]
    for line in [header, *(ln for item in items for ln in render(item)),
                 *closing]:
        print(line)
    return 0


def _parse_knobs(pairs: list[str]) -> dict:
    knobs = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(
                f"error: --knob expects key=value, got {pair!r}")
        knobs[key] = coerce_value(value)
    return knobs


def cmd_run(args) -> int:
    try:
        if args.seed is not None:
            # replay path for run-table cells: seed exactly as the cell
            # runner does, so `run --seed <run seed> --knob ...`
            # reproduces that run bit-for-bit
            seed_run(args.seed)
        result = run_scenario(args.scenario,
                              **_parse_knobs(args.knob))
    except (ScenarioError, ValueError, TypeError, KeyError,
            SimulationError, FaultError) as exc:
        # registry misses and invalid knob names/values/types land here —
        # a clean message, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in result.summary_lines():
        print(line)
    return 0


# ---------------------------------------------------------------------------
# scale sweeps (registry-driven, like run/list)
# ---------------------------------------------------------------------------

def _sweep_table(spec) -> ExperimentSpec:
    """A sweep as a run table: its own axes, one repetition.  Built
    here, never registered."""
    return ExperimentSpec(sweep=spec.name, summary=spec.summary,
                          axes=spec.default_grid, reps=1)


def _grid(args):
    """``--grid`` accepts several axis expressions per flag and repeats:
    `--grid hosts=256 flows=2000` == `--grid hosts=256 --grid
    flows=2000`; argparse hands us one list per flag."""
    exprs = [expr for group in args.grid for expr in group]
    return parse_grid(exprs) if exprs else None


#: A table that cannot be built: bad name, axis, knob or reps.
_TABLE_ERRORS = (ExperimentError, SweepError, GridError, ScenarioError,
                 ValueError)


def cmd_sweep_run(args) -> int:
    try:
        spec = SWEEPS.get(args.sweep)
        experiment = Experiment(_sweep_table(spec), grid=_grid(args),
                                base_seed=args.seed,
                                extra_knobs=_parse_knobs(args.knob))
    except _TABLE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir) if args.out_dir else (
        Path("results") / "sweeps" / spec.name)
    return _execute(experiment, out_dir, strict=True, workers=args.workers)


def _nightly(registry, only: list[str], run_one) -> int:
    """Run every registered item (or the ``--only`` ones) through
    ``run_one``, which returns whether the item passed."""
    try:
        for name in only:
            registry.get(name)
    except registry.error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = [n for n in registry.names() if not only or n in only]
    failed = [name for name in names if not run_one(registry.get(name))]
    print(f"nightly: {len(names) - len(failed)}/{len(names)} "
          f"{registry.kind}s ok"
          + (f" (failed: {', '.join(failed)})" if failed else ""))
    return 1 if failed else 0


def cmd_sweep_nightly(args) -> int:
    """Run every registered sweep at its reduced nightly grid, plus its
    ``nightly_points``.

    The registry-driven replacement for hard-coding one CI step per
    sweep: registering a new ``SweepSpec`` (which must declare a
    nightly grid) is all it takes to join the scheduled run.  One
    artifact directory per sweep lands under ``--out-dir``.
    """
    def run_one(spec) -> bool:
        try:
            experiment = Experiment(_sweep_table(spec),
                                    grid=spec.nightly_grid,
                                    base_seed=args.seed,
                                    extra_points=spec.nightly_points)
        except _TABLE_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return False
        out_dir = Path(args.out_dir) / spec.name
        return _execute(experiment, out_dir, strict=True,
                        workers=args.workers) == 0

    return _nightly(SWEEPS, args.only, run_one)


# ---------------------------------------------------------------------------
# experiments (seeded run tables over registered sweeps)
# ---------------------------------------------------------------------------

def _show_run(run, event) -> None:
    """One progress line per accounted-for (point, rep) run."""
    params = ", ".join(f"{k}={v}" for k, v in run.params.items())
    print(f"  run {run.index} (point {run.point} rep {run.rep}): "
          f"{params}  seed={run.seed}  [{event}]")


def _execute(experiment, out_dir: Path, *, strict: bool, **kwargs) -> int:
    """Run one table into ``out_dir``, then summarise and grade it: 0
    passed (or partial), 1 failed, 2 the table could not run.

    A sweep (``strict``) fails unless every run diagnosed correctly; an
    experiment fails only on an errored run — misdiagnosis under
    stress is its measurement.
    """
    points = len({run.point for run in experiment.runs})
    print(f"{experiment.spec.name}: {points} point(s) x "
          f"{experiment.reps} rep(s) = {len(experiment.runs)} runs")
    try:
        report = experiment.execute(out_dir, on_run=_show_run, **kwargs)
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if report is None:
        done = sum(1 for p in (out_dir / "runs").glob("point*.json"))
        print(f"incomplete: {done}/{len(experiment.runs)} runs on disk; "
              f"re-invoke to finish (report not written)")
        return 0
    summary = report.summary
    print(f"{summary['ok_runs']}/{summary['runs']} runs diagnosed "
          f"correctly across {summary['points']} point(s) "
          f"(mean accuracy {summary['mean_accuracy']:.2f}, "
          f"{summary['errors']} errors, "
          f"{summary['pending_faults']} pending faults)")
    print(f"report: {out_dir / 'report.json'}")
    if strict:
        return 0 if summary["ok_runs"] == summary["runs"] else 1
    return 0 if summary["errors"] == 0 else 1


def cmd_experiment_run(args) -> int:
    try:
        spec = EXPERIMENTS.get(args.experiment)
        experiment = Experiment(spec, grid=_grid(args), reps=args.reps,
                                base_seed=args.seed,
                                extra_knobs=_parse_knobs(args.knob))
    except _TABLE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir) if args.out_dir else (
        Path("results") / "experiments" / spec.name)
    return _execute(experiment, out_dir, strict=False, workers=args.workers,
                    max_runs=args.max_runs)


def cmd_experiment_nightly(args) -> int:
    """Run every registered experiment at its declared run table.

    The registry-driven pattern ``sweep nightly`` set: registering an
    ``ExperimentSpec`` is all it takes to join the scheduled run; one
    artifact directory (with its ``report.json``) lands per experiment
    under ``--out-dir``.
    """
    def run_one(spec) -> bool:
        experiment = Experiment(spec, base_seed=args.seed)
        out_dir = Path(args.out_dir) / spec.name
        return _execute(experiment, out_dir, strict=False,
                        workers=args.workers) == 0

    return _nightly(EXPERIMENTS, args.only, run_one)


def cmd_sizing(args) -> int:
    n, alpha, k = args.hosts, args.alpha, args.k
    try:
        lines = [
            f"n={n}, alpha={alpha} ms, k={k}:",
            f"  switch memory: "
            f"{total_switch_memory_bytes(n, alpha, k) / 1e6:.3f} MB",
            f"  push bandwidth: "
            f"{push_bandwidth_bps(n, alpha, k) / 1e6:.4f} Mbps",
            *(f"  level {h} recycling period: "
              f"{recycling_period_ms(alpha, h):.0f} ms"
              for h in range(1, k)),
        ]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="SwitchPointer reproduction — experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered scenarios"
                   ).set_defaults(func=cmd_list, listing="scenarios")
    pr = sub.add_parser("run", help="run one scenario through "
                                    "build/run/collect/diagnose")
    pr.add_argument("scenario",
                    help="registry name or alias (see `list`)")
    pr.add_argument("--knob", action="append", default=[],
                    metavar="KEY=VALUE",
                    help="override a scenario knob (repeatable)")
    pr.add_argument("--seed", type=int, default=None,
                    help="seed the RNG before building (replays a "
                         "sweep point's recorded seed)")
    pr.set_defaults(func=cmd_run)

    psweep = sub.add_parser("sweep", help="scale sweeps: run a scenario "
                                          "across a parameter grid")
    sweep_sub = psweep.add_subparsers(dest="sweep_command", required=True)
    sweep_sub.add_parser("list", help="list registered sweeps"
                         ).set_defaults(func=cmd_list, listing="sweeps")
    psr = sweep_sub.add_parser("run", help="run one sweep (a one-rep "
                                           "run table) into a resumable "
                                           "artifact directory")
    psr.add_argument("sweep", help="sweep registry name (see "
                                   "`sweep list`)")
    psr.add_argument("--grid", action="append", nargs="+", default=[],
                     metavar="AXIS=V1,V2,...",
                     help="grid axes (one or more per flag, flag "
                          "repeatable); default: the sweep's declared "
                          "grid")
    psr.add_argument("--workers", type=int, default=None,
                     help="parallel run workers (default: cpu count, "
                          "capped at the run count)")
    psr.add_argument("--seed", type=int, default=DEFAULT_BASE_SEED,
                     help="base seed for per-point seeds")
    psr.add_argument("--out-dir", default=None,
                     help="artifact directory (default: "
                          "results/sweeps/<name>)")
    psr.add_argument("--knob", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="pin a scenario knob for every point "
                          "(repeatable)")
    psr.set_defaults(func=cmd_sweep_run)
    psn = sweep_sub.add_parser(
        "nightly", help="run every registered sweep at its reduced "
                        "nightly grid (one report per sweep)")
    psn.add_argument("--out-dir", default="results/sweeps",
                     help="directory for the per-sweep artifact "
                          "directories")
    psn.add_argument("--workers", type=int, default=None,
                     help="parallel run workers (default: cpu count, "
                          "capped at the run count)")
    psn.add_argument("--seed", type=int, default=DEFAULT_BASE_SEED,
                     help="base seed for per-point seeds")
    psn.add_argument("--only", action="append", default=[],
                     metavar="NAME",
                     help="restrict to this sweep (repeatable; "
                          "default: all registered)")
    psn.set_defaults(func=cmd_sweep_nightly)

    pexp = sub.add_parser("experiment",
                          help="seeded run tables: repeat a sweep's "
                               "points and aggregate degradation curves")
    exp_sub = pexp.add_subparsers(dest="experiment_command", required=True)
    exp_sub.add_parser("list", help="list registered experiments"
                       ).set_defaults(func=cmd_list, listing="experiments")
    per = exp_sub.add_parser("run", help="run one experiment into a "
                                         "resumable artifact directory")
    per.add_argument("experiment", help="experiment registry name (see "
                                        "`experiment list`)")
    per.add_argument("--grid", action="append", nargs="+", default=[],
                     metavar="AXIS=V1,V2,...",
                     help="override the run-table axes (one or more per "
                          "flag, flag repeatable); default: the "
                          "experiment's declared axes")
    per.add_argument("--reps", type=int, default=None,
                     help="repetitions per grid point (default: the "
                          "experiment's declared reps)")
    per.add_argument("--seed", type=int, default=DEFAULT_BASE_SEED,
                     help="base seed for per-(point,rep) seeds")
    per.add_argument("--out-dir", default=None,
                     help="artifact directory (default: "
                          "results/experiments/<name>)")
    per.add_argument("--workers", type=int, default=None,
                     help="parallel run workers (default: cpu count, "
                          "capped at the run count)")
    per.add_argument("--max-runs", type=int, default=None,
                     help="execute at most N new runs this invocation "
                          "(study resumes on re-invocation)")
    per.add_argument("--knob", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="pin a scenario knob for every run "
                          "(repeatable)")
    per.set_defaults(func=cmd_experiment_run)
    pen = exp_sub.add_parser(
        "nightly", help="run every registered experiment at its "
                        "declared run table (one report per experiment)")
    pen.add_argument("--out-dir", default="results/experiments",
                     help="directory for the per-experiment artifact "
                          "directories")
    pen.add_argument("--workers", type=int, default=None,
                     help="parallel run workers (default: cpu count, "
                          "capped at the run count)")
    pen.add_argument("--seed", type=int, default=DEFAULT_BASE_SEED,
                     help="base seed for per-(point,rep) seeds")
    pen.add_argument("--only", action="append", default=[],
                     metavar="NAME",
                     help="restrict to this experiment (repeatable; "
                          "default: all registered)")
    pen.set_defaults(func=cmd_experiment_nightly)

    pfaults = sub.add_parser("faults", help="composable fault injection: "
                                            "inspect the fault registry")
    faults_sub = pfaults.add_subparsers(dest="faults_command",
                                        required=True)
    faults_sub.add_parser("list", help="list registered faults"
                          ).set_defaults(func=cmd_list, listing="faults")

    pdir = sub.add_parser("directory", help="switch directory-set "
                                            "backends: inspect the "
                                            "sketch registry")
    dir_sub = pdir.add_subparsers(dest="directory_command", required=True)
    dir_sub.add_parser("list", help="list registered directory backends"
                       ).set_defaults(func=cmd_list, listing="directories")

    ps = sub.add_parser("sizing", help=SIZING_DESC)
    ps.add_argument("--hosts", type=int, default=100_000)
    ps.add_argument("--alpha", type=int, default=10)
    ps.add_argument("--k", type=int, default=3)
    ps.set_defaults(func=cmd_sizing)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
