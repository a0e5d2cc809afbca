"""Every scenario module imports the experiment package to declare its
run tables, and every process that runs a scenario (a CLI run, a cell
worker, a perf-ledger child) imports the scenarios: the package may
load its spec and registry there, and none of the runner, cell
executor, report, record table, catalogue or figure modules."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def _experiment_modules_after(module):
    """The ``repro.experiment`` modules a fresh interpreter holds after
    importing ``module``."""
    probe = (
        f"import json, sys; import {module}; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.startswith('repro.experiment'))))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_importing_scenarios_loads_only_the_spec_and_registry():
    assert _experiment_modules_after("repro.scenarios") == [
        "repro.experiment", "repro.experiment.registry"]


def test_importing_the_package_loads_only_the_spec_and_registry():
    assert _experiment_modules_after("repro.experiment") == [
        "repro.experiment", "repro.experiment.registry"]


def test_sweep_is_no_second_package():
    """Sweeps are one-repetition experiments: no alias package remains."""
    assert importlib.util.find_spec("repro.sweep") is None
