"""Print the peak resident memory and wall time of a ``sweep`` run per checkout and grid size.

Usage::

    python3 tools/peak_rss.py --checkout PARENT_DIR --checkout CHANGE_DIR --k 120 480 [--runs 5]
        [--scenario scenario1] [--monte-carlo-n N [--threads T] [--seed S]]

For each ``--k`` the script writes a copy of a scenario into a temporary
directory, with ``grid.k`` set to K and ``grid.step_m`` scaled so that the map
keeps its extent ``k * step_m``. ``--scenario`` is a file path or, as the command
line takes it, the name of a scenario bundled in this repository. Each run is
``python -m secrecysim.cli sweep --scenario COPY --policy all --out-dir DIR``, or
with ``--monte-carlo-n`` the shape of the benchmark's Monte Carlo workload,
``... --policy smart_fj --monte-carlo-n N --seed S --threads T``; the seed
draws the stations, and with them the samples whose policies secure no cell.
Each command runs with ``PYTHONPATH`` set to the checkout's ``src``, started
through this repository's ``bench/launch.py``, which reports the command's wall
time and the peak resident set from ``wait4``. Run ``i`` takes the checkouts in
the order given when ``i`` is even and in reverse when it is odd, at every K, so
that a drift in machine speed favours none of them. A command that exits non-zero stops the
script, which prints its log. Nothing is written under the checkouts.

The last lines give, per checkout and K, the median, first and third quartile of
``peak_rss_mb`` (MB, 2**20 bytes) and of ``wall_s``::

    CHECKOUT k=K peak_rss_mb MEDIAN Q1 Q3 wall_s MEDIAN Q1 Q3

then, given two or more distinct ``--k``, the bytes each checkout's peak grows by
per extra cell: the difference of its median peaks at the largest and smallest
K, divided by the difference of their cell counts ``K * K``::

    CHECKOUT bytes_per_extra_cell BYTES k=KMIN..KMAX
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAUNCH = ROOT / "bench" / "launch.py"
TIMEOUT_S = 600


def scenario_copy(name: str, k: int, directory: Path) -> Path:
    """A copy of the scenario ``name`` with a K x K grid over the same map: an existing file first, else a
    bundled scenario of this repository, the order the command line resolves them in."""
    source = Path(name) if Path(name).exists() else ROOT / "src" / "secrecysim" / "data" / f"{name}.json"
    doc = json.loads(source.read_text(encoding="utf-8"))
    grid = doc.setdefault("grid", {})
    extent = grid.get("k", 120) * grid.get("step_m", 1.0)
    grid.update(k=k, step_m=extent / k)
    path = directory / f"{source.stem}_k{k}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def run_sweep(checkout: Path, scenario: Path, work: Path, options: list[str]) -> dict:
    """One measured ``sweep`` of ``scenario`` with ``checkout``'s package and the command-line ``options``."""
    log, out = work / "run.log", work / "out"
    command = [sys.executable, "-m", "secrecysim.cli", "sweep", "--scenario", str(scenario), *options]
    launcher = [sys.executable, str(LAUNCH), str(TIMEOUT_S), str(log), "--", *command, "--out-dir", str(out)]
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    done = subprocess.run(launcher, env=env, capture_output=True, text=True, check=True)
    usage = json.loads(done.stdout.splitlines()[-1])
    if usage["returncode"] != 0:
        raise RuntimeError(f"{' '.join(command)} from {checkout} exited {usage['returncode']}:\n{log.read_text()}")
    shutil.rmtree(out)  # every run makes its output directory
    return usage


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--checkout", type=Path, action="append", required=True, help="source checkout; repeatable")
    parser.add_argument("--k", type=int, nargs="+", required=True, help="grid sizes K (K x K cells)")
    parser.add_argument("--runs", type=int, default=5, help="runs per checkout and K (default 5)")
    parser.add_argument("--scenario", default="scenario1", help="scenario file or bundled name (default scenario1)")
    parser.add_argument("--monte-carlo-n", type=int, help="run Monte Carlo with N samples instead of --policy all")
    parser.add_argument("--threads", type=int, default=1, help="Monte Carlo worker processes (default 1)")
    parser.add_argument("--seed", type=int, default=0, help="Monte Carlo seed (default 0)")
    args = parser.parse_args(argv)
    if args.runs < 1 or min(args.k) < 1:
        parser.error("--runs and every --k must be >= 1")
    options = ["--policy", "all"]
    if args.monte_carlo_n is not None:
        options = ["--policy", "smart_fj", "--monte-carlo-n", str(args.monte_carlo_n), "--seed", str(args.seed)]
        options += ["--threads", str(args.threads)]
    runs = {(checkout, k): [] for checkout in args.checkout for k in args.k}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        scenarios = {k: scenario_copy(args.scenario, k, tmp) for k in args.k}
        for index in range(args.runs):
            order = args.checkout if index % 2 == 0 else args.checkout[::-1]
            for k in args.k:
                for checkout in order:
                    usage = run_sweep(checkout, scenarios[k], tmp, options)
                    runs[checkout, k].append(usage)
                    print(f"# run {index + 1} {checkout} k={k} {json.dumps(usage)}", flush=True)
    for (checkout, k), usages in runs.items():
        figures = " ".join(
            f"{metric} " + " ".join(f"{v:.4f}" for v in quartiles([u[metric] for u in usages]))
            for metric in ("peak_rss_mb", "wall_s")
        )
        print(f"{checkout} k={k} {figures}")
    small, large = min(args.k), max(args.k)
    if large > small:
        for checkout in args.checkout:
            peaks = [quartiles([u["peak_rss_mb"] for u in runs[checkout, k]])[0] for k in (small, large)]
            per_cell = (peaks[1] - peaks[0]) * 2**20 / (large * large - small * small)
            print(f"{checkout} bytes_per_extra_cell {per_cell:.1f} k={small}..{large}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
