"""Command-line interface: run scenarios and experiments from the shell.

Usage::

    python -m repro.cli list                     # every registered scenario
    python -m repro.cli run incast               # any name or alias
    python -m repro.cli run gray-failure --knob fault_switch=S2
    python -m repro.cli run fig3                 # fig ids are aliases
    python -m repro.cli run fig7 --knob m_flows=16 --knob duration=0.045
    python -m repro.cli experiment list          # registered run tables
    python -m repro.cli experiment run incast --grid hosts=64,256,1024
    python -m repro.cli experiment run incast-scale --grid hosts=256 bg_flows=2000
    python -m repro.cli experiment run skew-degradation --reps 5
    python -m repro.cli experiment nightly       # every experiment, nightly grid
    python -m repro.cli faults list              # registered faults
    python -m repro.cli directory list           # directory-set backends
    python -m repro.cli sizing --hosts 100000 --alpha 10 --k 3

``list``, ``run``, ``experiment``, and ``faults`` are driven entirely
by the scenario, experiment, and fault registries
(:mod:`repro.scenarios`, :mod:`repro.experiment`, :mod:`repro.faults`):
registering a new scenario class, experiment spec, or fault class makes
it appear here with no CLI edits.  The paper's figure ids (``fig2a``,
``fig3``, ...) are registry aliases, so one figure point is one
``run <fig id> --knob ...``; every verdict line carries the modelled
debugging time and hosts consulted (the Fig 7 and Fig 8 y-axes).

Every ``experiment`` verb runs one
:class:`~repro.experiment.runner.Experiment` — a scale sweep is the
table with one repetition — into a resumable artifact directory
(``results/experiments/<name>/``), graded from its report summary: a
table with a figure fails only if a run errored, any other unless every
run diagnosed correctly.

The heavy lifting lives in :mod:`repro.scenarios`,
:mod:`repro.experiment` and :mod:`repro.core.sizing`;
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
from .experiment import EXPERIMENTS, ExperimentError
from .experiment.cells import DEFAULT_BASE_SEED
from .experiment.grid import GridError, coerce_value, parse_grid
from .experiment.runner import Experiment
from .faults import FAULTS, FaultError
from .scenarios import REGISTRY, ScenarioError, run_scenario
from .simnet.engine import SimulationError

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


def _experiment_lines(spec) -> list[str]:
    points = math.prod(len(values) for values in spec.grid.values())
    return [f"  {spec.name:24s} scenario: {spec.scenario}  "
            f"grid: {','.join(spec.grid)}  table: {points}x{spec.reps}",
            f"  {'':24s} {spec.summary}"]


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
# experiments (seeded run tables over registered scenarios)
# ---------------------------------------------------------------------------

def _grid(args):
    """``--grid`` accepts several knob expressions per flag and repeats:
    `--grid hosts=256 bg_flows=2000` == `--grid hosts=256 --grid
    bg_flows=2000`; argparse hands us one list per flag."""
    exprs = [expr for group in args.grid for expr in group]
    return parse_grid(exprs) if exprs else None


#: A table that cannot be built: bad name, grid, knob or reps.
_TABLE_ERRORS = (ExperimentError, GridError, ScenarioError, ValueError)


def _show_run(run, event) -> None:
    """One progress line per accounted-for (point, rep) run."""
    params = ", ".join(f"{k}={v}" for k, v in run.params.items())
    print(f"  run {run.index} (point {run.point} rep {run.rep}): "
          f"{params}  seed={run.seed}  [{event}]")


def _execute(experiment, out_dir: Path, **kwargs) -> int:
    """Run one table into ``out_dir``, then summarise and grade it: 0
    passed (or partial), 1 failed, 2 the table could not run.

    A table with a figure fails only on an errored run — misdiagnosis
    under stress is its measurement; any other table fails unless every
    run diagnosed correctly (``ExperimentSpec.strict``).
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
    if experiment.spec.strict:
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
    return _execute(experiment, out_dir, workers=args.workers,
                    max_runs=args.max_runs)


def cmd_experiment_nightly(args) -> int:
    """Run every registered experiment (or the ``--only`` ones) at its
    nightly grid, plus its ``nightly_points``.

    Registry-driven: registering an ``ExperimentSpec`` is all it takes
    to join the scheduled run; one artifact directory (with its
    ``report.json``) lands per experiment under ``--out-dir``.
    """
    try:
        for name in args.only:
            EXPERIMENTS.get(name)
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def run_one(spec) -> bool:
        try:
            experiment = Experiment(spec, grid=spec.nightly_grid,
                                    extra_points=spec.nightly_points,
                                    base_seed=args.seed)
        except _TABLE_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return False
        out_dir = Path(args.out_dir) / spec.name
        return _execute(experiment, out_dir, workers=args.workers) == 0

    names = [n for n in EXPERIMENTS.names() if not args.only or n in args.only]
    failed = [name for name in names if not run_one(EXPERIMENTS.get(name))]
    print(f"nightly: {len(names) - len(failed)}/{len(names)} experiments ok"
          + (f" (failed: {', '.join(failed)})" if failed else ""))
    return 1 if failed else 0


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
                         "run-table cell's recorded seed)")
    pr.set_defaults(func=cmd_run)

    pexp = sub.add_parser("experiment",
                          help="seeded run tables: run a scenario "
                               "across a grid of its knobs, N repetitions "
                               "per point")
    exp_sub = pexp.add_subparsers(dest="experiment_command", required=True)
    exp_sub.add_parser("list", help="list registered experiments"
                       ).set_defaults(func=cmd_list, listing="experiments")
    per = exp_sub.add_parser("run", help="run one experiment into a "
                                         "resumable artifact directory")
    per.add_argument("experiment", help="experiment registry name (see "
                                        "`experiment list`)")
    per.add_argument("--grid", action="append", nargs="+", default=[],
                     metavar="KNOB=V1,V2,...",
                     help="override the grid (one or more knobs per "
                          "flag, flag repeatable); default: the "
                          "experiment's declared grid")
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
                        "nightly grid (one report per experiment)")
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
