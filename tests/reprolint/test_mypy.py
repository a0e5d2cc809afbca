"""mypy over the typed core — the same invocation CI's
static-analysis job runs.  Skipped where mypy is not installed (the
default container image); reprolint's ``typed-defs`` rule covers
annotation *completeness* everywhere, mypy adds consistency in CI.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

#: One definition of "the typed core", shared with the CI job and the
#: typed-defs rule (tools/reprolint/rules.py TYPED_CORE).
TYPED_CORE = (
    "src/repro/sweep",
    "src/repro/faults",
    "src/repro/analyzer",
    "src/repro/directory",
    "src/repro/scenarios/base.py",
    "src/repro/simnet/workload.py",
)


def test_typed_core_matches_rule_definition():
    from tools.reprolint.rules import TYPED_CORE as RULE_CORE

    assert tuple(TYPED_CORE) == tuple(RULE_CORE)


@pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None,
    reason="mypy not installed (CI's static-analysis job runs it)",
)
def test_mypy_typed_core_is_clean():
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", *TYPED_CORE],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
