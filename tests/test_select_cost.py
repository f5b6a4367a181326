"""Smoke test of ``tools/select_cost.py``, which swaps the name ``policy.optimize_fj_power`` to record the
optimizer's arguments: a renamed layer or result field breaks the script, and this shows it. Timings are
not checked."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROWS = [
    "scenario", "n", "select_us.normal", "select_us.smart", "select_us.smart_fj",
    "optimize_fj_power_us", "selection_result_us",
]


def test_select_cost_prints_every_row():
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "select_cost.py"), "--scenario", "scenario2", "--n", "40", "--repeat", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ROWS
    assert lines[:2] == ["scenario scenario2", "n 40"]
    assert all(line.endswith(" us") and float(line.split()[1]) > 0.0 for line in lines[2:])
