"""Smoke test of ``tools/sample_cost.py``, which wraps the private ``sweep._evaluate_grid`` and
``sweep._metrics``: a renamed or re-shaped private function breaks the script, and this shows it.
Timings are not checked."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROWS = [
    "scenario", "n", "workers", "ms_per_sample", "minor_faults_per_sample", "system_ms_per_sample",
    "user_ms_per_sample", "split_samples", "evaluate_grid_ms_per_sample", "metrics_ms_per_sample",
    "tracemalloc_peak_kb", "ru_maxrss_mb", "ru_maxrss_children_mb",
]


def test_sample_cost_prints_every_row_and_splits_each_sample():
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "sample_cost.py"), "--n", "2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ROWS
    assert "split_samples 2" in lines
