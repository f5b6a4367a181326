"""Smoke test of ``tools/peak_rss.py``: two runs of one checkout at K=8 exit 0 and print one
summary line per checkout and K. The figures are not checked."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_peak_rss_runs_the_sweep_and_prints_quartiles():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "peak_rss.py"), "--checkout", str(ROOT), "--k", "8", "--runs", "2"],
        capture_output=True, text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert sum(line.startswith("# run ") for line in lines) == 2
    fields = lines[-1].split()
    assert fields[:3] == [str(ROOT), "k=8", "peak_rss_mb"] and fields[6] == "wall_s"
    assert all(float(v) > 0 for v in fields[3:6] + fields[7:])


def test_peak_rss_runs_monte_carlo_on_a_scenario_file(tmp_path):
    # the benchmark's Monte Carlo shape on a file path: one run of 2 samples on 2 workers at K=8
    scenario = tmp_path / "drawn.json"
    scenario.write_text((ROOT / "src" / "secrecysim" / "data" / "scenario3.json").read_text())
    argv = [
        sys.executable, str(ROOT / "tools" / "peak_rss.py"), "--checkout", str(ROOT), "--k", "8", "--runs", "1",
        "--scenario", str(scenario), "--threads", "2", "--seed", "7", "--monte-carlo-n",
    ]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([*argv, "2"], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert sum(line.startswith("# run ") for line in lines) == 1
    fields = lines[-1].split()
    assert fields[:3] == [str(ROOT), "k=8", "peak_rss_mb"] and float(fields[3]) > 0
    # the count reaches the command line, which refuses 0 samples
    refused = subprocess.run([*argv, "0"], capture_output=True, text=True, env=env, timeout=120)
    assert refused.returncode != 0 and "error: --monte-carlo-n must be an integer >= 1" in refused.stderr
