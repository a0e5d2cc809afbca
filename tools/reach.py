"""Reach census: which defs under ``src/repro`` the entry points run.

reprolint's ``test-only`` rule asks whether a name appears in ``src/``;
a def on a branch no entry point takes still passes it.  The census asks
what runs: ``python -m tools.reach`` drives the entry set below in one
process under ``sys.setprofile`` / ``threading.setprofile`` and lists
every def under ``src/repro`` (found by ``ast``) whose code never
started.  Dunders other than ``__init__`` / ``__post_init__`` are out of
scope: they decide how an object behaves in ``if``, ``for`` and ``==``.

The entry set: every ``list`` command and ``sizing``; every scenario at
default knobs; every one-repetition experiment at its full
``nightly_grid``; every repeated one at ``--max-runs 1``; ``experiment
nightly`` on one cheap experiment; the five examples; ``tools/gen_docs.py
--check`` and ``tools/plot_experiments.py --check``; the figure
benchmarks; and one setup → prepare → op → finish of each ledger
workload at its ledger shape.  Run tables run at ``--workers 1``.

A def the entry set never runs gets a caller that serves the program, or
goes, or is listed in ``tools/reach_allow.txt`` as ``path:qualname
reason`` (sorted) with a reason from ``REASONS``.  ``--check`` fails on
an unreached def that is not listed and on a listed def that ran, so the
list only shrinks; the nightly CI job runs it.
"""

from __future__ import annotations

import ast
import io
import runpy
import sys
import tempfile
import threading
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
ALLOW = REPO / "tools" / "reach_allow.txt"

#: Why a def the entry set never runs may stay in ``src/``.
REASONS = {
    "protocol": "a Protocol or abstract stub",
    "guard": "a branch for input no entry point produces: it rejects the "
    "input, raises, or restores an order the input broke",
    "fault-verb": "a registered fault's inject/heal the entry set does not "
    "fire, or a helper only that verb calls",
    "ledger-traced": "named in benchmarks/ledger/trace.py's TABLE (frozen)",
}

#: The run seed of every scenario and run table the census drives.
SEED = 1729

Entry = tuple[str, Callable[[], object]]


def _walk(node: ast.AST, prefix: str) -> Iterator[tuple[str, ast.AST]]:
    """(qualname, node) for every def below ``node``, named the way
    ``code.co_qualname`` names it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            yield qualname, child
            yield from _walk(child, qualname + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _walk(child, prefix + child.name + ".")
        else:
            yield from _walk(child, prefix)


def defs() -> dict[tuple[str, str, int], tuple[str, int]]:
    """Every def in scope: (file, qualname, first line) → (its
    ``path:qualname`` name, its line count)."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(REPO).as_posix()
        for qualname, node in _walk(ast.parse(path.read_text()), ""):
            name = qualname.rsplit(".", 1)[-1]
            dunder = name[:2] == name[-2:] == "__"
            if dunder and name not in ("__init__", "__post_init__"):
                continue
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            lines = node.end_lineno - first + 1
            found[(str(path), qualname, first)] = (f"{rel}:{qualname}", lines)
    return found


def read_allow(path: Path = ALLOW) -> dict[str, str]:
    """``reach_allow.txt``: ``path:qualname`` → reason, in file order."""
    return dict(line.partition(" ")[::2] for line in path.read_text().splitlines())


def _script(path: Path, *argv: str) -> object:
    """Run ``path`` as ``__main__`` with ``argv``; its exit status."""
    saved, sys.argv = sys.argv, [str(path), *argv]
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        return exc.code
    finally:
        sys.argv = saved
    return 0


def _pytest(*argv: str) -> object:
    import pytest
    from pytest_benchmark import fixture

    # pytest-benchmark takes the profile hook off while it times a
    # function; the census needs it on for every call
    pause, fixture.PauseInstrumentation = fixture.PauseInstrumentation, nullcontext
    try:
        return pytest.main([*argv, "-q", "-p", "no:cacheprovider"])
    finally:
        fixture.PauseInstrumentation = pause


def _ledger(workload: str) -> object:
    """One setup → prepare → op → finish at the ledger shape; its failures."""
    from benchmarks.ledger.workloads import make_workload

    wl = make_workload(workload)
    state = wl.setup(SEED)
    inputs = wl.prepare(state, SEED, 0)
    return len(wl.finish(state, inputs, wl.op(state, inputs), None).failures)


def entries(out: Path) -> list[Entry]:
    """The entry set as (label, run) pairs; each run returns its exit
    status, and run tables write under ``out``, not over committed ones."""
    from benchmarks.ledger.workloads import WORKLOADS
    from repro import cli
    from repro.experiment import EXPERIMENTS
    from repro.scenarios import REGISTRY

    seed = ("--seed", str(SEED))

    def command(*argv: str, extra: tuple[str, ...] = ()) -> Entry:
        return f"cli {' '.join(argv)}", partial(cli.main, [*argv, *extra])

    def table(name: str) -> tuple[str, ...]:
        return ("--workers", "1", *seed, "--out-dir", str(out / name))

    lists = ("list", "experiment list", "faults list", "directory list")
    found = [command(*argv.split()) for argv in (*lists, "sizing")]
    found += [command("run", name, extra=seed) for name in REGISTRY.names()]
    for spec in EXPERIMENTS.values():
        argv: tuple[str, ...] = ("experiment", "run", spec.name)
        if spec.reps == 1:
            grid = [
                f"{k}={','.join(map(str, vs))}" for k, vs in spec.nightly_grid.items()
            ]
            argv += ("--grid", *grid)
        else:
            argv += ("--max-runs", "1")
        found.append(command(*argv, extra=table(spec.name)))
    argv = ("experiment", "nightly", "--only", "clock-skew")
    found.append(command(*argv, extra=table("nightly")))
    for path in sorted((REPO / "examples").glob("*.py")):
        found.append((f"example {path.name}", partial(_script, path)))
    for tool in ("gen_docs.py", "plot_experiments.py"):
        script = partial(_script, REPO / "tools" / tool, "--check")
        found.append((f"tools/{tool} --check", script))
    bench = REPO / "benchmarks"
    figures = partial(_pytest, str(bench), f"--ignore={bench / 'ledger'}")
    found.append(("pytest benchmarks (figures)", figures))
    found += [(f"ledger {name}", partial(_ledger, name)) for name in WORKLOADS]
    return found


def census() -> set[tuple[str, str, int]]:
    """Run every entry under the profile hook, which is on before the
    first ``repro`` import (so import-time registration counts); the
    (file, qualname, first line) of every code object that started."""
    seen: set = set()

    def hook(frame, event, arg):  # noqa: ANN001 - the profile signature
        if event == "call":
            seen.add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
            for label, run in entries(Path(tmp)):
                sink = io.StringIO()
                try:
                    with redirect_stdout(sink), redirect_stderr(sink):
                        status = run()
                except Exception:  # noqa: BLE001 - report it, run the rest
                    traceback.print_exc(file=sink)
                    status = "raised"
                if status in (0, None):
                    print(f"  {label}: ok")
                    continue
                tail = sink.getvalue().splitlines()[-3:]
                print(f"  {label}: {status}" + "".join(f"\n    | {ln}" for ln in tail))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)  # type: ignore[arg-type]
    return {(code.co_filename, code.co_qualname, code.co_firstlineno) for code in seen}


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(REPO / "src"), str(REPO)]
    everything = defs()
    print(f"census: {len(everything)} defs under src/repro; entry set:")
    ran = census()
    unreached = {
        name: lines for key, (name, lines) in everything.items() if key not in ran
    }
    reached = {everything[key][0] for key in ran if key in everything}
    allow = read_allow()
    unlisted = sorted(set(unreached) - set(allow))
    stale = sorted(set(allow) & reached)
    print(
        f"unreached: {len(unreached)} of {len(everything)} defs "
        f"({sum(unreached.values())} lines); listed: {len(allow)}"
    )
    for name in unlisted:
        print(f"unreached, not listed: {name} ({unreached[name]} lines)")
    for name in stale:
        print(f"listed, but reached (drop it from {ALLOW.name}): {name}")
    return 1 if "--check" in argv and (unlisted or stale) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
