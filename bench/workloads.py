"""Seeded inputs and the command line of each benchmark workload.

Every workload runs as a closed loop with one client: the next program
invocation starts only after the previous one has exited. The program
receives nothing but the files written here; the benchmark seed decides
their contents, so the same seed always gives the same inputs.

Scenario files vary what the physics depends on -- AP and station
geometry, the path-loss exponent, transmit powers and their caps, and the
``noise_e/noise_m`` ratio -- but stay inside what ``load_scenario``
accepts. All workloads share one generator, so a seed gives each of them
the same scenarios.
"""

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Scenarios the traced run cycles through.
TRACE_SCENARIOS = 3
# Monte Carlo worker processes: the machine's two cores.
MC_THREADS = 2


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one benchmark mode."""

    grid_k: int
    mc_n: int
    library_points: int
    # the traced run records a span per scalar call, so it uses fewer points
    trace_library_points: int
    trace_mc_n: int


FULL = Sizes(grid_k=120, mc_n=32, library_points=6000, trace_library_points=400, trace_mc_n=12)
SMOKE = Sizes(grid_k=12, mc_n=2, library_points=30, trace_library_points=30, trace_mc_n=2)


@dataclass(frozen=True)
class Workload:
    """One workload: its program and why it is in the benchmark."""

    name: str
    why: str
    # Scenarios one run cycles through. More of them average out how the
    # program's run time depends on the scenario: output text length, and
    # with it sweep_all's time, differs by about 8 % between scenarios.
    scenarios: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_all",
            "sweep --policy all at K=120 writing 15 files: per-cell objects and CSV text dominate, physics is small",
            scenarios=6,
        ),
        Workload(
            "mc_pool",
            "Monte Carlo smart_fj sweep with a 2-process pool: grid evaluation, fsum and the pool dominate",
            scenarios=3,
        ),
        Workload(
            "library_scalar",
            "policy.select for all three policies at random points: the only path through policy, fjopt and channel",
            scenarios=3,
        ),
    )
}


def scenario_document(rng: np.random.Generator, grid_k: int) -> dict:
    """One random scenario on a ``grid_k`` x ``grid_k`` map with a 1 m step."""
    extent = float(grid_k)
    while True:
        ap1 = rng.uniform(0.15 * extent, 0.85 * extent, size=2)
        ap2 = rng.uniform(0.15 * extent, 0.85 * extent, size=2)
        if np.hypot(*(ap1 - ap2)) >= 0.25 * extent:
            break
    sta = rng.uniform(1.0, extent, size=2)
    noise_m = 1e-10 * 10.0 ** rng.uniform(-0.5, 0.5)
    tx = rng.uniform(0.01, 0.1, size=2)
    tx_max = tx * rng.uniform(1.0, 2.0, size=2)
    return {
        "channel": {
            "bandwidth_hz": 1.0,
            "center_freq_hz": 2.4e9,
            "ref_distance_m": 1.0,
            "alpha": round(float(rng.uniform(2.0, 3.5)), 3),
            "noise_m_watt": float(noise_m),
            "noise_e_watt": float(noise_m * 10.0 ** rng.uniform(-1.0, 1.0)),
        },
        "aps": [
            {
                "x": round(float(ap[0]), 2),
                "y": round(float(ap[1]), 2),
                "tx_power_watt": float(p),
                "tx_power_max_watt": float(p_max),
            }
            for ap, p, p_max in zip((ap1, ap2), tx, tx_max)
        ],
        "sta_m": {"x": round(float(sta[0]), 2), "y": round(float(sta[1]), 2)},
        "grid": {"k": grid_k, "step_m": 1.0},
        "policy": "smart_fj",
    }


@dataclass(frozen=True)
class Inputs:
    """The generated files of one run."""

    scenarios: tuple[Path, ...]
    points: tuple[Path, ...]  # eavesdropper points, one file per scenario
    mc_seed: int


def write_inputs(seed: int, sizes: Sizes, work_dir: Path, count: int) -> Inputs:
    """Write ``count`` scenario and point files of one run from ``seed``.

    Each file has its own random stream, so scenario ``i`` is the same for
    any ``count`` or point count, and the points keep a common prefix.
    """
    scenarios, points = [], []
    for index in range(count):
        doc = scenario_document(np.random.default_rng([seed, index, 0]), sizes.grid_k)
        path = work_dir / f"scenario{index}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        scenarios.append(path)
        rng = np.random.default_rng([seed, index, 1])
        xy = rng.uniform(0.0, float(sizes.grid_k), size=(sizes.library_points, 2))
        point_path = work_dir / f"points{index}.npy"
        np.save(point_path, xy)
        points.append(point_path)
    mc_seed = int(np.random.default_rng([seed, 0, 2]).integers(0, 2**31))
    return Inputs(tuple(scenarios), tuple(points), mc_seed)


def command(workload: Workload, sizes: Sizes, inputs: Inputs, index: int, out: Path) -> list[str]:
    """Program invocation number ``index`` of a run; ``out`` receives its outputs."""
    scenario = str(inputs.scenarios[index % len(inputs.scenarios)])
    if workload.name == "library_scalar":
        driver = Path(__file__).resolve().parent / "library_driver.py"
        points = str(inputs.points[index % len(inputs.points)])
        return [sys.executable, str(driver), scenario, points, str(out / "selections.npy")]
    argv = [sys.executable, "-m", "secrecysim.cli", "sweep", "--scenario", scenario, "--out-dir", str(out)]
    if workload.name == "sweep_all":
        return argv + ["--policy", "all"]
    return argv + [
        "--policy", "smart_fj",
        "--monte-carlo-n", str(sizes.mc_n),
        "--seed", str(inputs.mc_seed),
        "--threads", str(MC_THREADS),
    ]


def cells_per_invocation(workload: Workload, sizes: Sizes) -> int:
    """Policy x cell evaluations one invocation performs (a computed count)."""
    cells = sizes.grid_k ** 2
    if workload.name == "sweep_all":
        return 3 * cells
    if workload.name == "mc_pool":
        # every sample evaluates all three policies, plus the one smart_fj sweep
        return (3 * sizes.mc_n + 1) * cells
    return 3 * sizes.library_points
