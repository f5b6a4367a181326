"""Scalar-library driver of the ``library_scalar`` workload.

Calls ``policy.select`` for all three policies at every eavesdropper
point of a points file, the way a library user evaluates single
positions, and saves the selections as one array of shape
(policies, points, fields) with the fields of ``FIELDS``.

Usage: python bench/library_driver.py SCENARIO.json POINTS.npy OUT.npy
(with the package's ``src`` directory on PYTHONPATH).
"""

import sys

import numpy as np

from secrecysim import Point2D, load_scenario
from secrecysim.policy import select
from secrecysim.sweep import ALL_POLICIES

FIELDS = ("chosen_ap", "cap_legit", "cap_eve", "secrecy", "fj_power")


def evaluate(scenario, xy: np.ndarray) -> np.ndarray:
    """Selections of every policy at every point, in ``ALL_POLICIES`` order."""
    points = [Point2D(float(x), float(y)) for x, y in xy]
    rows = []
    for policy in ALL_POLICIES:
        for point in points:
            r = select(scenario, point, policy)
            rows.append((r.chosen_ap, r.cap_legit, r.cap_eve, r.secrecy, r.fj_power))
    return np.array(rows, dtype=float).reshape(len(ALL_POLICIES), len(points), len(FIELDS))


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    scenario_path, points_path, out_path = argv
    scenario = load_scenario(scenario_path).scenario
    np.save(out_path, evaluate(scenario, np.load(points_path)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
