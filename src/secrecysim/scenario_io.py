"""Scenario files, heatmap CSVs, and summary JSON documents.

The scenario file is strict JSON: unknown keys are rejected so a typo in
a physical parameter fails loudly instead of silently running a different
experiment. Heatmaps are ``x,y,value`` CSV with 9 significant digits in a
fixed row order; summaries are JSON with a stable key order, so every
file byte-round-trips through its own reader.
"""

import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .channel import ApConfig, ChannelParams, Point2D
from .policy import PolicyKind, Scenario
from .sweep import SweepConfig

BUNDLED_SCENARIOS = ("scenario1", "scenario2", "scenario3")


class ScenarioValidationError(ValueError):
    """A scenario file violates the schema or a physical invariant."""


@dataclass(frozen=True)
class McSettings:
    """Monte Carlo section of a scenario file."""

    enabled: bool
    n: int
    seed: int


@dataclass(frozen=True)
class LoadedScenario:
    """A validated scenario plus its sweep layout and optional Monte Carlo plan.

    ``echo`` is the normalized configuration (defaults applied), suitable
    for embedding in result summaries.
    """

    scenario: Scenario
    sweep: SweepConfig
    monte_carlo: McSettings | None
    echo: dict


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of one of the scenario files shipped with the package."""
    if name not in BUNDLED_SCENARIOS:
        raise ValueError(f"unknown bundled scenario {name!r}; choose from {BUNDLED_SCENARIOS}")
    return Path(str(resources.files("secrecysim").joinpath(f"data/{name}.json")))


# One table per section: its keys in echo order, each as (key, type) when
# required or (key, type, default) when optional; a default of None leaves
# an absent key out. Each section is unpacked into its constructor in this
# order. ``object`` leaves a top-level value to its own section's checks.
_SCENARIO = (
    ("channel", object), ("aps", object), ("sta_m", object),
    ("grid", object, {}), ("policy", object), ("monte_carlo", object, None),
)
_CHANNEL = (
    ("bandwidth_hz", float, 1.0),
    ("center_freq_hz", float),
    ("ref_distance_m", float),
    ("alpha", float),
    ("noise_m_watt", float),
    ("noise_e_watt", float),
)
_AP = (("x", float), ("y", float), ("tx_power_watt", float), ("tx_power_max_watt", float))
_POINT = (("x", float), ("y", float))
_GRID = (("k", int, 120), ("step_m", float, 1.0))
_MONTE_CARLO = (("enabled", bool), ("n", int), ("seed", int))

_KINDS = {float: ((int, float), "a number"), int: (int, "an integer"), bool: (bool, "a boolean")}


def _section(doc, fields, where: str) -> dict:
    """Check one section against its table and return it normalized:
    defaults filled in, float fields as finite floats, keys in table order."""
    if not isinstance(doc, dict):
        raise ScenarioValidationError(f"{where} must be an object")
    keys = [key for key, *_ in fields]
    for key in doc:
        if key not in keys:
            raise ScenarioValidationError(f"unknown key {key!r} in {where}")
    out = {}
    for key, kind, *default in fields:
        if key not in doc:
            if not default:
                raise ScenarioValidationError(f"missing key {key!r} in {where}")
            if default[0] is not None:
                out[key] = default[0]
            continue
        value = doc[key]
        if kind is not object:
            accepted, noun = _KINDS[kind]
            if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
                raise ScenarioValidationError(f"{where}.{key} must be {noun}")
        if kind is float:
            # also refuses nan, and ints that float() cannot hold
            if not abs(value) <= sys.float_info.max:
                raise ScenarioValidationError(f"{where}.{key} must be a finite number")
            value = float(value)
        out[key] = value
    return out


def load_scenario(path) -> LoadedScenario:
    """Read and fully validate a scenario file.

    Only the channel bandwidth (1 Hz) and the grid (K=120, 1 m step)
    have defaults; everything else must be present, and every number
    finite. Cells sit at ``step_m * {1..k}`` on the map ``[0, k*step_m]**2``.
    Raises :class:`ScenarioValidationError` naming the offending key or a
    constraint of the objects built, or the ``OSError`` of an unreadable path.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioValidationError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioValidationError("top level must be an object")
    echo = _section(doc, _SCENARIO, "scenario")
    echo["channel"] = _section(echo["channel"], _CHANNEL, "channel")
    if not isinstance(echo["aps"], list) or len(echo["aps"]) != 2:
        raise ScenarioValidationError("aps must be a list of exactly 2 access points")
    echo["aps"] = [_section(ap, _AP, f"aps[{i}]") for i, ap in enumerate(echo["aps"], start=1)]
    echo["sta_m"] = _section(echo["sta_m"], _POINT, "sta_m")
    echo["grid"] = _section(echo["grid"], _GRID, "grid")
    try:
        policy = PolicyKind(echo["policy"])
    except ValueError:
        names = ", ".join(repr(p.value) for p in PolicyKind)
        raise ScenarioValidationError(f"policy must be one of {names}, got {echo['policy']!r}") from None
    echo["policy"] = policy.value

    mc = None
    if "monte_carlo" in echo:
        echo["monte_carlo"] = _section(echo["monte_carlo"], _MONTE_CARLO, "monte_carlo")
        mc = McSettings(*echo["monte_carlo"].values())
        if mc.n < 1:
            raise ScenarioValidationError("monte_carlo.n must be >= 1")
        if mc.seed < 0:
            raise ScenarioValidationError("monte_carlo.seed must be nonnegative")

    grid_k, step_m = echo["grid"].values()
    if abs(grid_k) > sys.float_info.max or not math.isfinite(grid_k * step_m):
        raise ScenarioValidationError("grid extent k * step_m must be finite")
    try:
        ap1, ap2 = (
            ApConfig(Point2D(x, y), tx_power, tx_power_max)
            for x, y, tx_power, tx_power_max in (ap.values() for ap in echo["aps"])
        )
        params = ChannelParams(*echo["channel"].values())
        scenario = Scenario(ap1, ap2, Point2D(*echo["sta_m"].values()), params, grid_k * step_m)
        sweep = SweepConfig(grid_k=grid_k, cell_origin=Point2D(step_m, step_m), cell_step=step_m, policy=policy)
    except ValueError as exc:
        raise ScenarioValidationError(str(exc)) from exc
    return LoadedScenario(scenario=scenario, sweep=sweep, monte_carlo=mc, echo=echo)


def temp_path(path) -> Path:
    """The sibling file a write goes through before it replaces ``path``."""
    path = Path(path)
    return path.with_name(path.name + ".tmp")


def _write_atomic(path, text: str) -> None:
    """Write through :func:`temp_path`, so ``path`` is never partly written."""
    tmp = temp_path(path)
    try:
        tmp.write_text(text, encoding="utf-8", newline="\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_heatmap(path, x, y, values) -> None:
    """Write one ``x,y,value`` CSV; the arrays must already be in row order
    (y outer ascending, x inner ascending).

    Each number is converted to a float and written with 9 significant
    digits (``-0``, ``inf``, ``-inf`` and ``nan`` as Python prints them).
    """
    rows = np.column_stack([np.asarray(column, dtype=float) for column in (x, y, values)])
    if rows.ndim != 2 or rows.shape[1] != 3:  # column_stack itself refuses unequal lengths
        raise ValueError(f"x, y and values must be 1-D columns, got rows of shape {rows.shape}")
    template = _row_template(rows[:, :2].tobytes())
    _write_atomic(path, "x,y,value\n" + template % tuple(rows[:, 2].tolist()))


@functools.lru_cache(maxsize=1)
def _row_template(xy: bytes) -> str:
    """Heatmap rows with x, y written and ``%.9g`` left for the value; keyed
    by the exact bits of the pairs, as ``-0.0`` and ``nan`` defeat ``==``."""
    pairs = np.frombuffer(xy).tolist()
    return ("%.9g,%.9g,%%.9g\n" * (len(pairs) // 2)) % tuple(pairs)


def read_heatmap(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a heatmap CSV back into (x, y, value) arrays."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "x,y,value":
        raise ValueError(f"{path} is not a heatmap file (bad header)")
    rows = [line.split(",") for line in lines[1:]]
    data = np.array([[float(a), float(b), float(c)] for a, b, c in rows])
    if data.size == 0:
        return np.array([]), np.array([]), np.array([])
    return data[:, 0], data[:, 1], data[:, 2]


def write_summary(path, document: dict) -> None:
    """Serialize a summary document as JSON with a stable key order."""
    _write_atomic(path, json.dumps(document, indent=2) + "\n")


def read_summary(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def watt_to_dbm(power_watt: float) -> float:
    """Transmit power in dBm; zero maps to -inf."""
    if power_watt <= 0.0:
        return -math.inf
    return 10.0 * math.log10(power_watt * 1000.0)
