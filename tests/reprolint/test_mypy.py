"""mypy over the typed core — the same invocation CI's
static-analysis job runs.  Skipped where mypy is not installed (the
default container image); reprolint's ``typed-defs`` rule covers
annotation *completeness* everywhere, mypy adds consistency in CI.
"""

import importlib.util
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


def test_typed_core_matches_rule_definition():
    """``[tool.mypy] files`` — what CI's bare ``python -m mypy`` checks —
    is the list the typed-defs rule polices."""
    from tools.reprolint.rules import TYPED_CORE

    with open(REPO / "pyproject.toml", "rb") as fh:
        files = tomllib.load(fh)["tool"]["mypy"]["files"]
    assert tuple(files) == TYPED_CORE


@pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None,
    reason="mypy not installed (CI's static-analysis job runs it)",
)
def test_mypy_typed_core_is_clean():
    proc = subprocess.run(
        [sys.executable, "-m", "mypy"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
