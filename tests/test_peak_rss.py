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
