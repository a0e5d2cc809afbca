"""The ledger's CPU probe imports by its module path and stays bare.

``benchmarks/ledger/report.py`` imports ``calibrate`` from
``tools.check_bench_regression`` and writes ``cpu_probe_s: null`` to a
snapshot when that import fails, so a moved or broken probe would go
unnoticed there; this test is where it shows.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

PROBE = """\
import json, sys
from tools.check_bench_regression import calibrate
loaded = sorted(name for name in sys.modules
                if name == "repro" or name.startswith("repro."))
print(json.dumps({"probe_s": calibrate(), "repro": loaded}))
"""


def test_probe_imports_by_its_ledger_path_without_repro():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert isinstance(out["probe_s"], float) and out["probe_s"] > 0
    assert out["repro"] == []


def test_ledger_machine_note_carries_a_probe_reading():
    """The snapshot's machine note holds a reading, not the ``None``
    the ledger falls back to when the probe cannot be imported."""
    from benchmarks.ledger.report import _machine

    probe_s = _machine()["cpu_probe_s"]
    assert isinstance(probe_s, float) and probe_s > 0
