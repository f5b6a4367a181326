import math
import os
import subprocess
import sys
from pathlib import Path
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
from secrecysim import sweep
from secrecysim.fjopt import _best_power, _clamped_roots, _coefficients, _ratio_terms

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


def run_fresh(script, *args):
    """Run ``script`` with ``args`` in a new interpreter that imports secrecysim from this checkout."""
    src = Path(sweep.__file__).resolve().parent.parent
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", script, *map(str, args)], capture_output=True, text=True, env=env)


class ChunkLog:
    """Where Monte Carlo ran its chunks. Each chunk appends ``pid start stop`` to
    ``path``, from whichever process runs it; ``forked`` holds the pids
    ``os.fork`` returned, in the order the workers were started."""

    def __init__(self, path):
        self.path = path
        self.forked = []

    def take(self) -> list[range]:
        """The sample index ranges of the chunks run since the last call, in chunk
        order: this process's first, then each forked worker's. Checks that each
        process ran one chunk and that this process forked exactly those workers."""
        ran = {}
        for line in self.path.read_text().splitlines() if self.path.exists() else ():
            pid, start, stop = map(int, line.split())
            assert pid not in ran, "a process ran two chunks"
            ran[pid] = range(start, stop)
        order = [os.getpid()] + self.forked if ran else []
        assert sorted(ran) == sorted(order)
        self.path.unlink(missing_ok=True)
        self.forked = []
        return [ran[pid] for pid in order]


@pytest.fixture
def recording_pool(monkeypatch, tmp_path):
    """Record the real forked workers and the chunk each process runs; returns
    a :class:`ChunkLog`."""
    log = ChunkLog(tmp_path / "chunks.log")
    run_chunk, fork = sweep._run_chunk, os.fork

    def recorded_chunk(*args):
        # a Monte Carlo chunk's last argument is the range of sample indices it runs
        chunk = args[-1]
        with open(log.path, "a") as out:  # one short append: whole lines from every process
            out.write(f"{os.getpid()} {chunk.start} {chunk.stop}\n")
        return run_chunk(*args)

    def recorded_fork():
        pid = fork()
        if pid:
            log.forked.append(pid)
        return pid

    monkeypatch.setattr(sweep, "_run_chunk", recorded_chunk)
    monkeypatch.setattr(os, "fork", recorded_fork)
    return log


@pytest.fixture
def usable_cpus(monkeypatch):
    """``usable_cpus(count)`` makes Monte Carlo see ``count`` CPUs, in this process's
    affinity mask and in ``os.cpu_count``."""

    def set_count(count: int):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    return set_count


@pytest.fixture
def failing_chunks(monkeypatch):
    """``fail(first)`` makes Monte Carlo's ``_run_chunk`` raise ``ValueError("chunk
    failed")`` for the chunk that starts at sample 0 (``first``) or for every other one."""
    run_chunk = sweep._run_chunk

    def fail(first: bool):
        def failing(*args):
            if (args[-1].start == 0) == first:
                raise ValueError("chunk failed")
            return run_chunk(*args)

        monkeypatch.setattr(sweep, "_run_chunk", failing)

    return fail


class FjArgs(NamedTuple):
    """The arguments of ``fjopt.optimize_fj_power``, in its order: distances
    clamped to the reference distance (m), noise powers (W) and corrected
    powers (Watt*m^alpha). :func:`coefficients` gives ``_coefficients`` of them."""

    d_im: float
    d_ie: float
    d_jm: float
    d_je: float
    alpha: float
    noise_m: float
    noise_e: float
    p_i: float
    p_max: float


def coefficients(geom: FjArgs):
    """``fjopt._coefficients`` of ``geom``, floats or arrays, its distances raised
    to alpha as the optimizers raise them."""
    a = geom.alpha
    return _coefficients(geom.d_im ** a, geom.d_ie ** a, geom.d_jm ** a, geom.d_je ** a, geom.noise_m, geom.noise_e, geom.p_i)


def buffers(like, count: int, dtype=float) -> list:
    """``count`` fresh buffers shaped like ``like``, as the array statement of ``fjopt`` takes them."""
    return [np.empty(np.shape(like), dtype) for _ in range(count)]


def best_power(geom: FjArgs) -> np.ndarray:
    """``fjopt._best_power`` of ``geom``, whose distances and powers are 1-d arrays, its distances
    raised to alpha as the grid engine raises them, on fresh buffers; ``geom`` is left as it was."""
    a = geom.alpha
    powers = [np.asarray(d, dtype=float) ** a for d in (geom.d_im, geom.d_ie, geom.d_jm, geom.d_je)]
    p_i, p_max = np.array(geom.p_i, dtype=float), np.array(geom.p_max, dtype=float)
    floats, flags = buffers(p_max, 8), buffers(p_max, 1, bool)
    return _best_power(*powers, geom.noise_m, geom.noise_e, p_i, p_max, floats, flags)


def clamped_roots(quad, p_max) -> tuple[np.ndarray, np.ndarray]:
    """``fjopt._clamped_roots`` of the 1-d arrays ``quad = (a, b, c)`` and ``p_max``, on fresh buffers."""
    return _clamped_roots(quad, p_max, buffers(p_max, 3))


def log2_ratio(ratio, p_j: float) -> float:
    """log2 of the objective ratio at ``p_j`` from ``_coefficients``' ratio terms: the
    secrecy per Hz, as a difference of logs."""
    num, den = _ratio_terms(ratio, p_j)
    return math.log2(num) - math.log2(den)


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
