"""Print what one Monte Carlo sample costs: time, minor page faults, system time and memory.

Usage::

    PYTHONPATH=src python tools/sample_cost.py [--scenario scenario1] [--n 32] [--workers 1]

The script loads a bundled scenario and runs ``monte_carlo`` on it twice. The
first run is measured with ``time.perf_counter`` and ``resource.getrusage``:
milliseconds, minor page faults and system time per sample, summed over this
process and the workers it forks and reaps. The second run is traced with
``tracemalloc``, which reports the peak of this process's traced memory above
the traced memory at the call's start. ``ru_maxrss`` is printed at the end, for
this process and for its largest reaped worker. Per-sample figures include the
call's one-off work (the eavesdropper terms, the workers' fork) divided by n.

The timed run also splits a sample's time between its two layers: the grid
engine (``sweep._evaluate_grid``, the three policy steps) and the metric
reduction (``sweep._metrics``, the exact sums). Wrappers installed by this
script time each step of the engine's generator and each ``_metrics`` call
with ``time.perf_counter``; the split is per sample of the chunk that runs in
this process, since a forked worker's timers stay in the worker. The program
itself carries no timer. A third wrapper keeps the workspace that
``sweep._workspace`` makes for that chunk, and the script prints its buffers
per dtype and their size in MB (2**20 bytes).

Run it as its own command, in a fresh interpreter, never after other work in
the same process. glibc's malloc returns the free top of its heap to the
system once it exceeds the trim threshold (128 KB by default), and a program
that frees grid arrays of ~115 KB in every sample faults the same pages in
again in the next one. But glibc raises that threshold for good the first time
the process frees one block above 128 KB that came from ``mmap``, and from
then on the churn no longer shows as faults. Freeing one 1.6 MB array before
Monte Carlo took scenario1's faults from 353 to 54 per sample (Python 3.11,
numpy 2.4, glibc x86-64). So the timed run comes first, and nothing before it
frees such a block on purpose.
"""

import argparse
import os
import resource
import sys
import time
import tracemalloc

# as the command line does: numpy's OpenBLAS threads would spin through the timed run
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from secrecysim import bundled_scenario_path, load_scenario, monte_carlo, sweep  # noqa: E402


def split_timers(spent: dict):
    """Wrap ``sweep._evaluate_grid`` and ``sweep._metrics`` so that they add their seconds to ``spent``
    under ``"evaluate_grid"`` and ``"metrics"``, and count the engine's calls, one per sample, under
    ``"samples"``; wrap ``sweep._workspace`` so that ``spent["workspace"]`` keeps the last workspace
    made in this process. Returns a function that puts the unwrapped three back."""
    evaluate_grid, metrics, workspace = sweep._evaluate_grid, sweep._metrics, sweep._workspace

    def timed_grid(*args):
        spent["samples"] += 1
        steps = evaluate_grid(*args)
        while True:
            start = time.perf_counter()
            item = next(steps, None)
            spent["evaluate_grid"] += time.perf_counter() - start
            if item is None:
                return
            yield item

    def timed_metrics(*args):
        start = time.perf_counter()
        try:
            return metrics(*args)
        finally:
            spent["metrics"] += time.perf_counter() - start

    def kept_workspace(like):
        spent["workspace"] = workspace(like)
        return spent["workspace"]

    def restore():
        sweep._evaluate_grid, sweep._metrics, sweep._workspace = evaluate_grid, metrics, workspace

    sweep._evaluate_grid, sweep._metrics, sweep._workspace = timed_grid, timed_metrics, kept_workspace
    return restore


def usage() -> tuple:
    """Minor faults, system seconds and user seconds of this process and its reaped children."""
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_minflt + kids.ru_minflt, own.ru_stime + kids.ru_stime, own.ru_utime + kids.ru_utime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="scenario1", help="bundled scenario name")
    parser.add_argument("--n", type=int, default=32, help="Monte Carlo samples")
    parser.add_argument("--workers", type=int, default=1, help="Monte Carlo worker processes")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    loaded = load_scenario(bundled_scenario_path(args.scenario))

    def run():
        return monte_carlo(loaded.scenario, loaded.sweep, n=args.n, seed=args.seed, workers=args.workers)

    spent = {"samples": 0, "evaluate_grid": 0.0, "metrics": 0.0}
    restore = split_timers(spent)
    before, start = usage(), time.perf_counter()
    run()
    wall, after = time.perf_counter() - start, usage()
    faults, system, user = (b - a for a, b in zip(before, after))
    restore()

    # the float64, int64 and bool buffers the chunk in this process made, as many as a sample holds at once
    made = [buffers.made for buffers in spent["workspace"]]
    workspace_mb = sum(a.nbytes for arrays in made for a in arrays) / 2.0 ** 20

    tracemalloc.start()
    start_traced = tracemalloc.get_traced_memory()[0]
    run()
    peak = tracemalloc.get_traced_memory()[1] - start_traced
    tracemalloc.stop()

    rows = [
        ("scenario", args.scenario, ""),
        ("n", args.n, ""),
        ("workers", args.workers, ""),
        ("ms_per_sample", f"{1e3 * wall / args.n:.3f}", "ms"),
        ("minor_faults_per_sample", f"{faults / args.n:.1f}", ""),
        ("system_ms_per_sample", f"{1e3 * system / args.n:.3f}", "ms"),
        ("user_ms_per_sample", f"{1e3 * user / args.n:.3f}", "ms"),
        ("split_samples", spent["samples"], ""),
        ("evaluate_grid_ms_per_sample", f"{1e3 * spent['evaluate_grid'] / spent['samples']:.3f}", "ms"),
        ("metrics_ms_per_sample", f"{1e3 * spent['metrics'] / spent['samples']:.3f}", "ms"),
        ("workspace_float", len(made[0]), ""),
        ("workspace_int", len(made[1]), ""),
        ("workspace_bool", len(made[2]), ""),
        ("workspace_mb", f"{workspace_mb:.2f}", "MB"),
        ("tracemalloc_peak_kb", f"{peak / 1024.0:.1f}", "KB"),
        ("ru_maxrss_mb", f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.2f}", "MB"),
        ("ru_maxrss_children_mb", f"{resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0:.2f}", "MB"),
    ]
    for name, value, unit in rows:
        print(f"{name} {value} {unit}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
