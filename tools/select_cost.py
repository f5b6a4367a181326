"""Print what one call of the scalar path costs: ``select`` per policy, the jamming optimizer and a result.

Usage::

    PYTHONPATH=src python tools/select_cost.py [--scenario scenario1] [--n 2000] [--repeat 7] [--seed 0]

The script loads a bundled scenario and draws ``n`` eavesdropper points
uniformly on its map with a seeded numpy generator. It then prints the
microseconds per call, the best of ``repeat`` timed loops over the points
(``time.perf_counter``, loop overhead included), of:

- ``select`` for each policy (``select_us.normal``, ``.smart``, ``.smart_fj``);
- ``optimize_fj_power`` on the arguments ``select`` passed it at those points,
  recorded by a wrapper on ``policy.optimize_fj_power`` during one untimed
  ``smart_fj`` pass (``optimize_fj_power_us``);
- the public constructor ``SelectionResult(...)`` with the fields of the
  ``smart_fj`` results (``selection_result_us``).

The figures drift with the machine's speed: compare two checkouts only in
alternating runs on one machine. It uses only names that older revisions
have too, so ``PYTHONPATH=OTHER/src`` times another checkout.
"""

import argparse
import os
import sys
import time

# as the command line does: numpy's OpenBLAS threads would spin through the timed loops
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from secrecysim import Point2D, PolicyKind, bundled_scenario_path, load_scenario, policy  # noqa: E402
from secrecysim.policy import SelectionResult, select  # noqa: E402


def best_us(loop, count: int, repeat: int) -> float:
    """The fastest of ``repeat`` runs of ``loop()``, in microseconds per each of its ``count`` calls."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - start)
    return 1e6 * best / count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="scenario1", help="bundled scenario name")
    parser.add_argument("--n", type=int, default=2000, help="eavesdropper points")
    parser.add_argument("--repeat", type=int, default=7, help="timed loops per row; the fastest is printed")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    scenario = load_scenario(bundled_scenario_path(args.scenario)).scenario
    xy = np.random.default_rng(args.seed).uniform(0.0, scenario.map_extent, (args.n, 2)).tolist()
    points = [Point2D(x, y) for x, y in xy]

    rows = [("scenario", args.scenario, ""), ("n", args.n, "")]
    for kind in PolicyKind:
        def loop(kind=kind):
            for point in points:
                select(scenario, point, kind)

        rows.append((f"select_us.{kind.value}", f"{best_us(loop, args.n, args.repeat):.3f}", "us"))

    calls, optimize = [], policy.optimize_fj_power

    def recorder(*call):
        calls.append(call)
        return optimize(*call)

    policy.optimize_fj_power = recorder
    try:
        results = [select(scenario, point, PolicyKind.SMART_AP_FJ) for point in points]
    finally:
        policy.optimize_fj_power = optimize

    def optimizer_loop():
        for call in calls:
            optimize(*call)

    fields = [(r.chosen_ap, r.cap_legit, r.cap_eve, r.secrecy, r.fj_power) for r in results]

    def result_loop():
        for values in fields:
            SelectionResult(*values)

    rows.append(("optimize_fj_power_us", f"{best_us(optimizer_loop, len(calls), args.repeat):.3f}", "us"))
    rows.append(("selection_result_us", f"{best_us(result_loop, len(fields), args.repeat):.3f}", "us"))
    for name, value, unit in rows:
        print(f"{name} {value} {unit}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
