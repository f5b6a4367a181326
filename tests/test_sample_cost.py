"""Smoke test of ``tools/sample_cost.py``, which wraps the private ``sweep._evaluate_grid`` and
``sweep._metrics``: a renamed or re-shaped private function breaks the script, and this shows it.
Timings are not checked."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROWS = [
    "scenario", "n", "workers", "ms_per_sample", "minor_faults_per_sample", "system_ms_per_sample",
    "user_ms_per_sample", "split_samples", "evaluate_grid_ms_per_sample", "metrics_ms_per_sample",
    "workspace_float", "workspace_int", "workspace_bool", "workspace_mb", "tracemalloc_peak_kb", "ru_maxrss_mb",
    "ru_maxrss_children_mb",
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


def test_sample_cost_reads_a_scenario_file_path(tmp_path):
    # a path as the command line takes it: here scenario2 on a K=8 grid, under a name no bundled scenario has
    doc = json.loads((ROOT / "src" / "secrecysim" / "data" / "scenario2.json").read_text())
    doc["grid"] = {"k": 8, "step_m": 15.0}
    scenario = tmp_path / "drawn.json"
    scenario.write_text(json.dumps(doc))
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "sample_cost.py"), "--scenario", str(scenario), "--n", "2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == f"scenario {scenario}"
    # the workspace is the K=8 grid's: 18 arrays of 64 float64 lanes, one of 64 int8 and 2 of 64 bools
    assert "workspace_mb 0.01 MB" in lines and "split_samples 2" in lines
