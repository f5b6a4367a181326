import concurrent.futures
import math
from typing import NamedTuple

import numpy as np
import pytest

from secrecysim import (
    ApConfig,
    ChannelParams,
    Point2D,
    Scenario,
    distance_corrected_power,
)

# Standard layout used throughout: two 50 mW APs at (40,60) and (80,60) on a
# 120 m map, 2.4 GHz, alpha=2, -70 dBm noise, 1 Hz bandwidth.
STA_SCENARIO_1 = (20.0, 100.0)
STA_SCENARIO_2 = (80.0, 20.0)
STA_SCENARIO_3 = (60.0, 38.0)


def build_scenario(
    sta_m=STA_SCENARIO_1,
    tx=0.05,
    tx_max=0.05,
    bandwidth=1.0,
    noise_m=1e-10,
    noise_e=1e-10,
    alpha=2.0,
    extent=120.0,
    ap1=(40.0, 60.0),
    ap2=(80.0, 60.0),
):
    params = ChannelParams(
        bandwidth_w=bandwidth,
        center_freq_f0=2.4e9,
        ref_distance_d0=1.0,
        pathloss_alpha=alpha,
        noise_m=noise_m,
        noise_e=noise_e,
    )
    return Scenario(
        ap1=ApConfig(position=Point2D(*ap1), tx_power=tx, tx_power_max=tx_max),
        ap2=ApConfig(position=Point2D(*ap2), tx_power=tx, tx_power_max=tx_max),
        sta_m=Point2D(*sta_m),
        params=params,
        map_extent=extent,
    )


# A micrometre map at alpha 173.4 whose noises multiply to 1e-33: once
# accepted, its ratio terms K and p_i*D underflowed to 0 and log2 met 0.
UNDERFLOW_DOCUMENT = {
    "channel": {"center_freq_hz": 2.4e9, "ref_distance_m": 0.0515, "alpha": 173.4,
                "noise_m_watt": 7.5e-135, "noise_e_watt": 1.3e101},
    "aps": [{"x": 0.0, "y": 0.0, "tx_power_watt": 1.0, "tx_power_max_watt": 1.0},
            {"x": 1e-5, "y": 0.0, "tx_power_watt": 1.0, "tx_power_max_watt": 1.0}],
    "sta_m": {"x": 5e-6, "y": 1e-5}, "grid": {"k": 1, "step_m": 1.4e-6}, "policy": "smart_fj",
}


@pytest.fixture
def scenario1():
    return build_scenario(STA_SCENARIO_1)


class PoolLog(list):
    """The pool sizes requested, in order; ``ranges`` holds the sample index
    ranges of the tasks the pools were given, in task order."""

    def __init__(self):
        super().__init__()
        self.ranges = []


@pytest.fixture
def recording_pool(monkeypatch):
    """Replace the process pool by one that runs the tasks in this process;
    returns a :class:`PoolLog` of what the pools were asked for."""
    started = PoolLog()

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            # a Monte Carlo task ends with the range of sample indices it runs
            started.ranges.extend(task[-1] for task in tasks)
            return map(fn, tasks)

    # monte_carlo imports the pool inside its pool branch, from concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return started


class FjArgs(NamedTuple):
    """The arguments of ``fjopt.optimize_fj_power``, in its order: distances
    clamped to the reference distance (m), noise powers (W) and corrected
    powers (Watt*m^alpha). ``geom[:8]`` are the arguments of ``_coefficients``."""

    d_im: float
    d_ie: float
    d_jm: float
    d_je: float
    alpha: float
    noise_m: float
    noise_e: float
    p_i: float
    p_max: float


def random_fj_geometry(
    rng: np.random.Generator, d_low=1.0, d_high=170.0, noise_e=1e-10
) -> FjArgs:
    """Random geometry matching the randomized-oracle setup: distances
    uniform in [1,170] m, alpha in {2,3}, -70 dBm noise at the station
    (``noise_e`` at the eavesdropper), 50 mW powers."""
    params = ChannelParams(pathloss_alpha=float(rng.choice([2.0, 3.0])))
    p_ref = distance_corrected_power(0.05, params)
    d = rng.uniform(d_low, d_high, size=4)
    return FjArgs(
        d_im=float(d[0]),
        d_ie=float(d[1]),
        d_jm=float(d[2]),
        d_je=float(d[3]),
        alpha=params.pathloss_alpha,
        noise_m=1e-10,
        noise_e=noise_e,
        p_i=p_ref,
        p_max=p_ref,
    )


def direct_secrecy_curve(geom: FjArgs, powers: np.ndarray) -> np.ndarray:
    """Secrecy per Hz over an array of jamming powers, composed directly
    from the two SINRs; shares no code with the closed-form optimizer."""
    a = geom.alpha
    sinr_m = geom.p_i * geom.d_im ** -a / (powers * geom.d_jm ** -a + geom.noise_m)
    sinr_e = geom.p_i * geom.d_ie ** -a / (powers * geom.d_je ** -a + geom.noise_e)
    return np.log2(1.0 + sinr_m) - np.log2(1.0 + sinr_e)


def grid_search_best(geom: FjArgs, points: int = 100001) -> tuple[float, float]:
    """Dense-grid oracle: best secrecy per Hz over [0, p_max] and its power."""
    powers = np.linspace(0.0, geom.p_max, points)
    secrecy = direct_secrecy_curve(geom, powers)
    best = int(np.argmax(secrecy))
    return float(secrecy[best]), float(powers[best])


def assert_close(actual, expected, rel=1e-12, abs_floor=0.0, label=""):
    tol = max(rel * max(abs(actual), abs(expected)), abs_floor)
    assert abs(actual - expected) <= tol, (
        f"{label}: {actual!r} vs {expected!r} (tol {tol:g}, diff {abs(actual - expected):g})"
    )


def dbm(power_watt: float) -> float:
    return 10.0 * math.log10(power_watt * 1000.0)
