"""Every script under ``examples/`` runs to completion.

The examples call the public entry points (``run_scenario``,
``WorkloadGenerator.launch``, the analyzer apps), so a removed or
renamed entry point fails here instead of silently breaking a script.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_present():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path, monkeypatch, capsys):
    # scripts that read sys.argv must see their defaults, not pytest's
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
