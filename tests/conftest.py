import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from secrecysim import (
    ApConfig,
    ChannelParams,
    Point2D,
    Scenario,
    ScenarioValidationError,
    bundled_scenario_path,
    distance,
    distance_corrected_power,
    effective_distance,
    load_scenario,
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
    f0=2.4e9,
    d0=1.0,
):
    params = ChannelParams(
        bandwidth_w=bandwidth,
        center_freq_f0=f0,
        ref_distance_d0=d0,
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


def run_python(*args):
    """Run ``python ARGS`` in a new interpreter that imports secrecysim from this checkout."""
    src = Path(sweep.__file__).resolve().parent.parent
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True, env=env)


def run_fresh(script, *args):
    """Run ``script`` with ``args`` in a new interpreter that imports secrecysim from this checkout."""
    return run_python("-c", script, *args)


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


class CutShort:
    """A text file open for writing whose write number ``after`` (from 0) writes half its text and
    raises ``fault``; the writes before it go through whole."""

    def __init__(self, handle, fault, after):
        self.handle, self.fault, self.after = handle, fault, after

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.handle.__exit__(*exc)

    def write(self, text):
        if self.after == 0:
            self.handle.write(text[: len(text) // 2])
            raise self.fault
        self.after -= 1
        return self.handle.write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


def cut_short_writes(monkeypatch, fault, after=0):
    """Open every file that ``Path.open`` opens for writing as a :class:`CutShort` one: the
    writers of ``scenario_io`` write their text through ``Path.open``, so the fault hits them there."""
    real_open = Path.open

    def cut_short_open(self, mode="r", *args, **kwargs):
        handle = real_open(self, mode, *args, **kwargs)
        return CutShort(handle, fault, after) if "w" in mode else handle

    monkeypatch.setattr(Path, "open", cut_short_open)


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


def direct_sinrs(geom: FjArgs, powers):
    """The station's and the eavesdropper's SINR at the jamming power or array of
    powers ``powers``; shares no code with the closed-form optimizer."""
    a = geom.alpha
    sinr_m = geom.p_i * geom.d_im ** -a / (powers * geom.d_jm ** -a + geom.noise_m)
    sinr_e = geom.p_i * geom.d_ie ** -a / (powers * geom.d_je ** -a + geom.noise_e)
    return sinr_m, sinr_e


def direct_ratio(geom: FjArgs, p):
    """The objective ratio ``(1 + SINR_m) / (1 + SINR_e)`` at ``p``, composed directly from the two SINRs."""
    sinr_m, sinr_e = direct_sinrs(geom, p)
    return (1.0 + sinr_m) / (1.0 + sinr_e)


def ratio_denominator(geom: FjArgs, p):
    """The denominator polynomial of the objective ratio at ``p``, grouped as a product:
    the derivative of the ratio is the closed form's quadratic over its square."""
    dim_a, die_a, djm_a, dje_a = (d ** geom.alpha for d in (geom.d_im, geom.d_ie, geom.d_jm, geom.d_je))
    n_m, n_e = geom.noise_m, geom.noise_e
    return (p * dim_a + n_m * dim_a * djm_a) * (p * die_a + n_e * die_a * dje_a + geom.p_i * dje_a)


def direct_secrecy_curve(geom: FjArgs, powers: np.ndarray) -> np.ndarray:
    """Secrecy per Hz over an array of jamming powers, composed directly
    from the two SINRs; shares no code with the closed-form optimizer."""
    sinr_m, sinr_e = direct_sinrs(geom, powers)
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


def hexed(value):
    """``value`` with every float in it as its ``float.hex``, so that ``==`` compares bits:
    ``-0.0`` differs from ``0.0`` and a nan equals a nan. Arrays, lists, tuples and
    dataclasses become lists, dicts keep their keys, other values stay."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return hexed(value.tolist())
    if dataclasses.is_dataclass(value):
        return [hexed(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        return {key: hexed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(item) for item in value]
    return value


def log_uniform(low_exp, high_exp):
    """Floats ``10**e``, with ``e`` drawn from ``[low_exp, high_exp]``."""
    return st.floats(low_exp, high_exp).map(lambda e: 10.0 ** e)


# a place on the standard 120 m map
place = st.tuples(st.floats(0.0, 120.0), st.floats(0.0, 120.0))


@st.composite
def drawn_scenarios(draw, caps):
    """Scenarios on a 120 m map with the two APs at distinct places and the station
    anywhere, tx powers over 10**[-3, 0] W, each cap the power times a draw of ``caps``,
    noises over 10**[-12, -8] W and alpha in [2, 4]."""
    ap1 = draw(place)
    ap2 = draw(place.filter(lambda p: p != ap1))
    sta_m = draw(place)
    powers = [draw(log_uniform(-3.0, 0.0)) for _ in range(2)]
    aps = [ApConfig(Point2D(*at), tx, tx * draw(caps)) for at, tx in zip((ap1, ap2), powers)]
    noise_m, noise_e = (draw(log_uniform(-12.0, -8.0)) for _ in range(2))
    params = ChannelParams(pathloss_alpha=draw(st.floats(2.0, 4.0)), noise_m=noise_m, noise_e=noise_e)
    return Scenario(*aps, Point2D(*sta_m), params, 120.0)


def document(places, powers, channel, grid=None):
    """A ``smart_fj`` scenario document as the loader reads it: the APs at ``places[0]`` and
    ``places[1]`` with ``powers`` as their ``(tx, cap)`` pairs (W), the station at ``places[2]``,
    the ``channel`` section and, when given, the ``grid`` section."""
    aps = [{"x": x, "y": y, "tx_power_watt": tx, "tx_power_max_watt": cap} for (x, y), (tx, cap) in zip(places, powers)]
    doc = {"channel": channel, "aps": aps, "sta_m": dict(zip("xy", places[2])), "policy": "smart_fj"}
    return doc if grid is None else {**doc, "grid": grid}


@st.composite
def loadable_documents(draw):
    """A scenario document the loader accepts and an eavesdropper position;
    the station and the eavesdropper may sit on an AP (the distance clamp),
    and caps may equal tx."""
    ap1 = draw(place)
    ap2 = draw(place.filter(lambda p: p != ap1))
    sta_m = draw(st.sampled_from([ap1, ap2]) | place)
    sta_e = draw(st.sampled_from([ap1, ap2, sta_m]) | place)
    powers = []
    for _ in range(2):
        tx = draw(log_uniform(-6.0, 2.0))
        powers.append((tx, tx * draw(st.sampled_from([1.0]) | st.floats(1.0, 100.0))))
    channel = {
        "center_freq_hz": draw(log_uniform(6.0, 11.0)),
        "ref_distance_m": draw(log_uniform(-3.0, 1.0)),
        "alpha": draw(st.floats(1.0, 6.0)),
        "noise_m_watt": draw(log_uniform(-16.0, -6.0)),
        "noise_e_watt": draw(log_uniform(-16.0, -6.0)),
    }
    return document((ap1, ap2, sta_m), powers, channel), Point2D(*sta_e)


def accepted(doc) -> bool:
    """Whether ``Scenario`` accepts ``doc``, built as the loader builds it."""
    ch, sta, grid = doc["channel"], doc["sta_m"], doc["grid"]
    keys = ("center_freq_hz", "ref_distance_m", "alpha", "noise_m_watt", "noise_e_watt")
    try:
        ap1, ap2 = (ApConfig(Point2D(ap["x"], ap["y"]), ap["tx_power_watt"], ap["tx_power_max_watt"]) for ap in doc["aps"])
        Scenario(ap1, ap2, Point2D(sta["x"], sta["y"]), ChannelParams(1.0, *map(ch.get, keys)), grid["k"] * grid["step_m"])
    except ValueError:
        return False
    return True


@st.composite
def extreme_documents(draw):
    """Scenario documents over the whole float range: powers, noises and
    frequencies over hundreds of decades, maps from micrometres to 1e6 m.

    Such draws are mostly refused, so two in three are pulled toward a safe
    scenario (10 mW, 2.4 GHz, 1e-10 W noise, alpha 2): the logs of the powers,
    the frequency and the noises, and alpha, move the fraction ``t`` of the way
    from it to the draw, with ``t`` at the largest that ``Scenario`` accepts
    (found by bisection) or below it."""
    scale = draw(log_uniform(-7.0, 6.0))
    where = st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)).map(lambda p: (p[0] * scale, p[1] * scale))
    ap1 = draw(where)
    ap2 = draw(where.filter(lambda p: p != ap1))
    sta = draw(where)
    grid = {"k": draw(st.integers(1, 4)), "step_m": scale * draw(st.floats(0.01, 1.0))}
    d0 = draw(log_uniform(-6.0, 3.0))
    # (safe log10 or alpha, drawn log10 or alpha) per magnitude
    tx = [(-2.0, draw(st.floats(-300.0, 300.0))) for _ in range(2)]
    caps = [draw(st.floats(1.0, 100.0)) for _ in range(2)]
    f0 = (math.log10(2.4e9), draw(st.floats(-200.0, 12.0)))
    alpha = (2.0, draw(st.floats(1.0, 400.0)))
    noises = [(-10.0, draw(st.floats(-300.0, 300.0))) for _ in range(2)]

    def pulled(t):
        def at(pair, log=True):
            value = pair[1] if t == 1.0 else pair[0] + t * (pair[1] - pair[0])
            return 10.0 ** value if log else value

        channel = {
            "center_freq_hz": at(f0), "ref_distance_m": d0, "alpha": at(alpha, log=False),
            "noise_m_watt": at(noises[0]), "noise_e_watt": at(noises[1]),
        }
        return document((ap1, ap2, sta), [(at(p), at(p) * cap) for p, cap in zip(tx, caps)], channel, grid)

    pull = draw(st.sampled_from(["none", "edge", "inside"]))
    if pull == "none" or accepted(pulled(1.0)):
        return pulled(1.0)
    low, high = 0.0, 1.0
    for _ in range(40):
        middle = (low + high) / 2
        low, high = (middle, high) if accepted(pulled(middle)) else (low, middle)
    return pulled(low if pull == "edge" else low * draw(st.floats(0.0, 1.0)))


def bundled_document(name, **channel):
    """A fresh copy of the bundled scenario document ``name``, its channel keys updated by ``channel``."""
    doc = json.loads(bundled_scenario_path(name).read_text())
    doc["channel"].update(channel)
    return doc


def write_document(directory, doc, name="scenario.json"):
    """Write the scenario document ``doc`` as JSON to ``directory / name``; returns that path."""
    path = directory / name
    path.write_text(json.dumps(doc))
    return path


def load_document(doc, **channel):
    """``load_scenario`` of the scenario document ``doc`` with its channel keys updated by
    ``channel``, through a temporary file; None when the loader refuses it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_document(Path(tmp), {**doc, "channel": {**doc["channel"], **channel}})
        try:
            return load_scenario(path)
        except ScenarioValidationError:
            return None


def closed_form_values(loaded):
    """Every AP order at every grid cell, with the station at its own place and
    at the corners of the Monte Carlo square: ``_coefficients`` from the grid engine's
    eavesdropper terms, the roots' ``b*b`` and ``4*a*c`` and the ratio terms at ``p_max``."""
    scenario, par = loaded.scenario, loaded.scenario.params
    _, _, aps = sweep._eve_terms(scenario, sweep._grid_cells(scenario, loaded.sweep))
    extent = scenario.map_extent
    stations = [scenario.sta_m] + [Point2D(x, y) for x in (0.0, extent) for y in (0.0, extent)]
    values = []
    for sta in stations:
        links = [
            (effective_distance(distance(ap.position, sta), par) ** par.pathloss_alpha, d_a, ap)
            for ap, (d_a, *_) in zip((scenario.ap1, scenario.ap2), aps)
        ]
        for (dim_a, die_a, ap_i), (djm_a, dje_a, ap_j) in (links, links[::-1]):
            p_i = np.full(die_a.shape, distance_corrected_power(ap_i.tx_power, par))
            p_max = np.full(die_a.shape, distance_corrected_power(ap_j.tx_power_max, par))
            dim_a, djm_a = np.full(die_a.shape, dim_a), np.full(die_a.shape, djm_a)
            caps, (a, b, c), ratio = _coefficients(dim_a, die_a, djm_a, dje_a, par.noise_m, par.noise_e, p_i)
            values += [*caps, *ratio, a, b, c, b * b, 4.0 * a * c]
            values += _ratio_terms(ratio, p_max)
    return values
