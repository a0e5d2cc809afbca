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

The heavy lifting lives in :mod:`repro.scenarios`, :mod:`repro.sweep`,
and :mod:`repro.core.sizing`; this module only parses arguments and
prints.  Each subcommand's parser names its handler
(``set_defaults(func=...)``) and :func:`main` calls it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core.rng import seed_run
from .core.sizing import (push_bandwidth_bps, recycling_period_ms,
                          total_switch_memory_bytes)
from .experiment import EXPERIMENTS, Experiment, ExperimentError
from .faults import FAULTS
from .scenarios import REGISTRY, ScenarioError, run_scenario
from .simnet.engine import SimulationError
from .sweep import (SWEEPS, GridError, Sweep, SweepError, parse_grid,
                    write_report, DEFAULT_BASE_SEED)

#: Non-scenario commands (the resource-arithmetic calculator).
SIZING_DESC = "Fig 10/11 resource arithmetic for one (n, alpha, k)"


# ---------------------------------------------------------------------------
# registry-driven commands
# ---------------------------------------------------------------------------

def cmd_list(_args) -> int:
    print("scenarios (python -m repro.cli run <name>):")
    for spec in (cls.spec for cls in REGISTRY.values()):
        aliases = f" [{','.join(spec.aliases)}]" if spec.aliases else ""
        print(f"  {spec.name:15s}{aliases:15s} {spec.summary}")
    print("other commands:")
    print(f"  {'sizing':30s} {SIZING_DESC}")
    return 0


def _coerce(text: str):
    """Best-effort knob value parsing: bool, int, float, then str."""
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_knobs(pairs: list[str]) -> dict:
    knobs = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(
                f"error: --knob expects key=value, got {pair!r}")
        knobs[key] = _coerce(value)
    return knobs


def cmd_run(args) -> int:
    try:
        if args.seed is not None:
            # replay path for sweep points: seed exactly as the sweep
            # worker does, so `run --seed <point seed> --knob ...`
            # reproduces that point bit-for-bit
            seed_run(args.seed)
        result = run_scenario(args.scenario,
                              **_parse_knobs(args.knob))
    except (ScenarioError, ValueError, TypeError, KeyError,
            SimulationError) as exc:
        # registry misses and invalid knob names/values/types land here —
        # a clean message, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in result.summary_lines():
        print(line)
    return 0


# ---------------------------------------------------------------------------
# faults (registry-driven, like run/list)
# ---------------------------------------------------------------------------

def cmd_faults_list(_args) -> int:
    print("faults (composable via scenario knobs / FaultPlan; "
          "docs/FAULTS.md):")
    for spec in (cls.spec for cls in FAULTS.values()):
        params = ",".join(spec.params) or "-"
        print(f"  {spec.name:20s} params: {params}")
        print(f"  {'':20s} {spec.summary}")
    print(f"{len(FAULTS)} fault(s) registered; every fault also takes "
          f"start= and stop=")
    return 0


# ---------------------------------------------------------------------------
# directory backends (registry-driven, like faults)
# ---------------------------------------------------------------------------

def cmd_directory_list(_args) -> int:
    from .directory import DIRECTORIES
    print("directory backends (scenario knobs directory_backend= / "
          "directory_bits= / directory_hashes=; docs/DIRECTORIES.md):")
    for backend in DIRECTORIES.values():
        print(f"  {backend.name:20s} {backend.summary}")
        print(f"  {'':20s} memory: {backend.memory_note}")
    print(f"{len(DIRECTORIES)} backend(s) registered; \"auto\" resolves to "
          f"{DIRECTORIES.get('auto').name!r} (every sketch is "
          f"superset-checked at registration: no false negatives)")
    return 0


# ---------------------------------------------------------------------------
# scale sweeps (registry-driven, like run/list)
# ---------------------------------------------------------------------------

def cmd_sweep_list(_args) -> int:
    print("sweeps (python -m repro.cli sweep run <name>):")
    for spec in SWEEPS.values():
        axes = ",".join(spec.axes)
        print(f"  {spec.name:15s} scenario: {spec.scenario}  axes: {axes}")
        print(f"  {'':15s} {spec.summary}")
    return 0


def _show_point(point) -> None:
    """One progress line per finished grid point."""
    params = ", ".join(f"{k}={v}" for k, v in point.params.items())
    if point.error is not None:
        status = f"ERROR: {point.error}"
    elif point.diagnosis_ok:
        suspects = ",".join(point.suspects) or "-"
        status = f"ok [suspect: {suspects}]"
    else:
        status = f"MISDIAGNOSED: {point.problems or 'no verdict'}"
    fresh = (f"  freshness={point.freshness}"
             if point.freshness else "")
    print(f"  point {point.index}: {params}  "
          f"{point.wall_time_s:6.2f}s  "
          f"flows={point.flow_count}  "
          f"peak_records={point.peak_records}{fresh}  {status}")


def _run_sweep(sweep, out: Path, grid_note: str = "") -> int:
    """Run one sweep and write its report: 0 every point ok, 1 some
    point failed, 2 the report was invalid (and not written)."""
    print(f"sweep {sweep.spec.name}{grid_note}: {len(sweep.params)} "
          f"points, {sweep.workers} worker(s)")
    report = sweep.run(on_point=_show_point)
    problems = write_report(out, report)
    for problem in problems:
        print(f"error: invalid report: {problem}", file=sys.stderr)
    if problems:
        return 2
    summary = report.summary
    print(f"{summary['ok']}/{summary['points']} points ok "
          f"({summary['errors']} errors, "
          f"{summary['diagnosis_failures']} misdiagnosed) "
          f"in {summary['wall_time_s']:.2f}s")
    print(f"report: {out}")
    return 0 if report.all_ok else 1


def cmd_sweep_run(args) -> int:
    try:
        spec = SWEEPS.get(args.sweep)
        # --grid accepts several axis expressions per flag and repeats:
        # `--grid hosts=256 flows=2000` == `--grid hosts=256 --grid
        # flows=2000`; argparse hands us one list per flag
        exprs = [expr for group in args.grid for expr in group]
        grid = parse_grid(exprs) if exprs else None
        sweep = Sweep(spec, grid, workers=args.workers,
                      base_seed=args.seed,
                      extra_knobs=_parse_knobs(args.knob))
    except (SweepError, GridError, ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else (
        Path("results") / f"sweep_{spec.name}.json")
    return _run_sweep(sweep, out)


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
    """Run every registered sweep at its reduced nightly grid.

    The registry-driven replacement for hard-coding one CI step per
    sweep: registering a new ``SweepSpec`` (which must declare a
    nightly grid) is all it takes to join the scheduled run.  One
    report file per sweep lands under ``--out-dir``.
    """
    def run_one(spec) -> bool:
        try:
            sweep = Sweep(spec, spec.nightly_grid, workers=args.workers,
                          base_seed=args.seed,
                          extra_points=list(spec.nightly_points))
        except (SweepError, GridError, ScenarioError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return False
        nightly = " ".join(f"{axis}={','.join(str(v) for v in vals)}"
                           for axis, vals in sweep.grid.items())
        extra = "".join(
            " +" + ",".join(f"{a}={v}" for a, v in point.items())
            for point in spec.nightly_points)
        out = Path(args.out_dir) / f"sweep_nightly_{spec.name}.json"
        return _run_sweep(sweep, out, f" (nightly grid {nightly}{extra})") == 0

    return _nightly(SWEEPS, args.only, run_one)


# ---------------------------------------------------------------------------
# experiments (seeded run tables over registered sweeps)
# ---------------------------------------------------------------------------

def cmd_experiment_list(_args) -> int:
    print("experiments (python -m repro.cli experiment run <name>):")
    for spec in EXPERIMENTS.values():
        points = 1
        for values in spec.axes.values():
            points *= len(values)
        axes = ",".join(spec.axes)
        print(f"  {spec.name:20s} sweep: {spec.sweep}  axes: {axes}  "
              f"table: {points}x{spec.reps}")
        print(f"  {'':20s} {spec.summary}")
    return 0


def _show_run(run, event) -> None:
    """One progress line per accounted-for (point, rep) run."""
    params = ", ".join(f"{k}={v}" for k, v in run.params.items())
    print(f"  run {run.index} (point {run.point} rep {run.rep}): "
          f"{params}  seed={run.seed}  [{event}]")


def _execute(experiment, out_dir: Path, **kwargs) -> int:
    """Run one study into ``out_dir``, then summarise and grade it:
    0 done (or partial), 1 a run errored, 2 the study failed."""
    points = len({run.point for run in experiment.runs})
    print(f"experiment {experiment.spec.name}: {points} point(s) x "
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
    # misdiagnosis under stress is the measurement; only errors fail
    return 0 if report.error_free else 1


def cmd_experiment_run(args) -> int:
    try:
        spec = EXPERIMENTS.get(args.experiment)
        exprs = [expr for group in args.grid for expr in group]
        grid = parse_grid(exprs) if exprs else None
        experiment = Experiment(spec, grid=grid, reps=args.reps,
                                base_seed=args.seed,
                                extra_knobs=_parse_knobs(args.knob))
    except (ExperimentError, SweepError, GridError, ScenarioError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir) if args.out_dir else (
        Path("results") / "experiments" / spec.name)
    return _execute(experiment, out_dir, workers=args.workers,
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
        return _execute(experiment, out_dir, workers=args.workers) == 0

    return _nightly(EXPERIMENTS, args.only, run_one)


def cmd_sizing(args) -> int:
    n, alpha, k = args.hosts, args.alpha, args.k
    print(f"n={n}, alpha={alpha} ms, k={k}:")
    print(f"  switch memory: "
          f"{total_switch_memory_bytes(n, alpha, k) / 1e6:.3f} MB")
    print(f"  push bandwidth: "
          f"{push_bandwidth_bps(n, alpha, k) / 1e6:.4f} Mbps")
    for h in range(1, k):
        print(f"  level {h} recycling period: "
              f"{recycling_period_ms(alpha, h):.0f} ms")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="SwitchPointer reproduction — experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered scenarios"
                   ).set_defaults(func=cmd_list)
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
                         ).set_defaults(func=cmd_sweep_list)
    psr = sweep_sub.add_parser("run", help="run one sweep and write a "
                                           "SweepReport JSON")
    psr.add_argument("sweep", help="sweep registry name (see "
                                   "`sweep list`)")
    psr.add_argument("--grid", action="append", nargs="+", default=[],
                     metavar="AXIS=V1,V2,...",
                     help="grid axes (one or more per flag, flag "
                          "repeatable); default: the sweep's declared "
                          "grid")
    psr.add_argument("--workers", type=int, default=None,
                     help="parallel point workers (default: cpu count)")
    psr.add_argument("--seed", type=int, default=DEFAULT_BASE_SEED,
                     help="base seed for per-point seeds")
    psr.add_argument("--out", default=None,
                     help="report path (default: "
                          "results/sweep_<name>.json)")
    psr.add_argument("--knob", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="pin a scenario knob for every point "
                          "(repeatable)")
    psr.set_defaults(func=cmd_sweep_run)
    psn = sweep_sub.add_parser(
        "nightly", help="run every registered sweep at its reduced "
                        "nightly grid (one report per sweep)")
    psn.add_argument("--out-dir", default="results",
                     help="directory for the per-sweep "
                          "sweep_nightly_<name>.json reports")
    psn.add_argument("--workers", type=int, default=None,
                     help="parallel point workers (default: cpu count)")
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
                       ).set_defaults(func=cmd_experiment_list)
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
    per.add_argument("--workers", type=int, default=1,
                     help="parallel run workers (default: 1, inline)")
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
    pen.add_argument("--workers", type=int, default=1,
                     help="parallel run workers (default: 1, inline)")
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
                          ).set_defaults(func=cmd_faults_list)

    pdir = sub.add_parser("directory", help="switch directory-set "
                                            "backends: inspect the "
                                            "sketch registry")
    dir_sub = pdir.add_subparsers(dest="directory_command", required=True)
    dir_sub.add_parser("list", help="list registered directory backends"
                       ).set_defaults(func=cmd_directory_list)

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
