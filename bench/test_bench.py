"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from secrecysim import bundled_scenario_path  # noqa: E402


def test_smoke_emits_every_declared_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"smoke": "ok"}


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_all", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_solver_counts_of_scenario1():
    ref = checks.sweep_reference(bundled_scenario_path("scenario1"), np.random.default_rng(0))
    assert ref.problems == []
    assert (ref.fj_jamming_cells, ref.fj_at_cap_cells) == (12881, 433)


def test_outputs_found_with_either_separator(tmp_path):
    (tmp_path / "smart.secrecy.csv").write_text("")
    (tmp_path / "smart_fj_secrecy.csv").write_text("")
    assert checks.find_output(tmp_path, "smart", "secrecy", ".csv").name == "smart.secrecy.csv"
    assert checks.find_output(tmp_path, "smart_fj", "secrecy", ".csv").name == "smart_fj_secrecy.csv"
    assert checks.find_output(tmp_path, "normal", "secrecy", ".csv") is None
    (tmp_path / "smart_secrecy.csv").write_text("")
    assert checks.find_output(tmp_path, "smart", "secrecy", ".csv") is None


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile([float(i) for i in range(10)]) is None
    assert run.tail_percentile([float(i) for i in range(20)]) == (50, 9.0)
    assert run.tail_percentile([float(i) for i in range(11)]) == (9, 0.0)
