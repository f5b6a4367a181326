"""Smoke test of ``tools/peak_rss.py``: two runs of one checkout at K=8 and K=12 exit 0 and print one
summary line per checkout and K, then the bytes per extra cell. The figures are not checked."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_peak_rss_runs_the_sweep_and_prints_quartiles():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "peak_rss.py"), "--checkout", str(ROOT), "--k", "8", "12", "--runs", "2"],
        capture_output=True, text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert sum(line.startswith("# run ") for line in lines) == 4
    for line, k in zip(lines[-3:-1], ("k=8", "k=12")):
        fields = line.split()
        assert fields[:3] == [str(ROOT), k, "peak_rss_mb"] and fields[6] == "wall_s"
        assert all(float(v) > 0 for v in fields[3:6] + fields[7:])
    # the median peaks' difference over the 80 extra cells, which may be of either sign at these sizes
    medians = [float(line.split()[3]) for line in lines[-3:-1]]
    fields = lines[-1].split()
    assert fields[:2] == [str(ROOT), "bytes_per_extra_cell"] and fields[3] == "k=8..12"
    # the medians are printed to 1e-4 MB, 1.3 bytes per extra cell here
    assert abs(float(fields[2]) - (medians[1] - medians[0]) * 2**20 / 80) <= 1.5


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
