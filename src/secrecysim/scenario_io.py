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


def _require_keys(section: dict, allowed: set[str], required: set[str], where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ScenarioValidationError(f"unknown key {key!r} in {where}")
    for key in required:
        if key not in section:
            raise ScenarioValidationError(f"missing key {key!r} in {where}")


def _number(section: dict, key: str, where: str) -> float:
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioValidationError(f"{where}.{key} must be a number")
    return float(value)


def _integer(section: dict, key: str, where: str) -> int:
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioValidationError(f"{where}.{key} must be an integer")
    return value


def _point(section: dict, where: str) -> Point2D:
    if not isinstance(section, dict):
        raise ScenarioValidationError(f"{where} must be an object")
    _require_keys(section, {"x", "y"}, {"x", "y"}, where)
    return Point2D(_number(section, "x", where), _number(section, "y", where))


def load_scenario(path) -> LoadedScenario:
    """Read and fully validate a scenario file.

    Only the channel bandwidth (1 Hz) and the grid (K=120, 1 m step)
    have defaults; everything else must be present. Raises
    :class:`ScenarioValidationError` naming the offending key or
    constraint, or the underlying ``OSError`` for unreadable paths.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioValidationError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioValidationError("top level must be an object")
    _require_keys(
        doc,
        {"channel", "aps", "sta_m", "grid", "policy", "monte_carlo"},
        {"channel", "aps", "sta_m", "policy"},
        "scenario",
    )

    channel = doc["channel"]
    if not isinstance(channel, dict):
        raise ScenarioValidationError("channel must be an object")
    _require_keys(
        channel,
        {"bandwidth_hz", "center_freq_hz", "ref_distance_m", "alpha", "noise_m_watt", "noise_e_watt"},
        {"center_freq_hz", "ref_distance_m", "alpha", "noise_m_watt", "noise_e_watt"},
        "channel",
    )
    bandwidth = _number(channel, "bandwidth_hz", "channel") if "bandwidth_hz" in channel else 1.0

    aps_doc = doc["aps"]
    if not isinstance(aps_doc, list) or len(aps_doc) != 2:
        raise ScenarioValidationError("aps must be a list of exactly 2 access points")
    aps = []
    for idx, ap_doc in enumerate(aps_doc, start=1):
        where = f"aps[{idx}]"
        if not isinstance(ap_doc, dict):
            raise ScenarioValidationError(f"{where} must be an object")
        _require_keys(
            ap_doc,
            {"x", "y", "tx_power_watt", "tx_power_max_watt"},
            {"x", "y", "tx_power_watt", "tx_power_max_watt"},
            where,
        )
        aps.append(ap_doc)

    grid_doc = doc.get("grid", {})
    if not isinstance(grid_doc, dict):
        raise ScenarioValidationError("grid must be an object")
    _require_keys(grid_doc, {"k", "step_m"}, set(), "grid")
    grid_k = _integer(grid_doc, "k", "grid") if "k" in grid_doc else 120
    step_m = _number(grid_doc, "step_m", "grid") if "step_m" in grid_doc else 1.0

    policy_doc = doc["policy"]
    try:
        policy = PolicyKind(policy_doc)
    except ValueError:
        raise ScenarioValidationError(
            f"policy must be one of 'normal', 'smart', 'smart_fj', got {policy_doc!r}"
        ) from None

    mc = None
    if "monte_carlo" in doc:
        mc_doc = doc["monte_carlo"]
        if not isinstance(mc_doc, dict):
            raise ScenarioValidationError("monte_carlo must be an object")
        _require_keys(mc_doc, {"enabled", "n", "seed"}, {"enabled", "n", "seed"}, "monte_carlo")
        if not isinstance(mc_doc["enabled"], bool):
            raise ScenarioValidationError("monte_carlo.enabled must be a boolean")
        mc = McSettings(
            enabled=mc_doc["enabled"],
            n=_integer(mc_doc, "n", "monte_carlo"),
            seed=_integer(mc_doc, "seed", "monte_carlo"),
        )
        if mc.n < 1:
            raise ScenarioValidationError("monte_carlo.n must be >= 1")
        if mc.seed < 0:
            raise ScenarioValidationError("monte_carlo.seed must be nonnegative")

    try:
        params = ChannelParams(
            bandwidth_w=bandwidth,
            center_freq_f0=_number(channel, "center_freq_hz", "channel"),
            ref_distance_d0=_number(channel, "ref_distance_m", "channel"),
            pathloss_alpha=_number(channel, "alpha", "channel"),
            noise_m=_number(channel, "noise_m_watt", "channel"),
            noise_e=_number(channel, "noise_e_watt", "channel"),
        )
        ap_cfgs = [
            ApConfig(
                position=Point2D(_number(ap, "x", f"aps[{i}]"), _number(ap, "y", f"aps[{i}]")),
                tx_power=_number(ap, "tx_power_watt", f"aps[{i}]"),
                tx_power_max=_number(ap, "tx_power_max_watt", f"aps[{i}]"),
            )
            for i, ap in enumerate(aps, start=1)
        ]
        scenario = Scenario(
            ap1=ap_cfgs[0],
            ap2=ap_cfgs[1],
            sta_m=_point(doc["sta_m"], "sta_m"),
            params=params,
            map_extent=grid_k * step_m,
        )
        sweep = SweepConfig(grid_k=grid_k, cell_step=step_m, policy=policy)
    except ScenarioValidationError:
        raise
    except ValueError as exc:
        raise ScenarioValidationError(str(exc)) from exc

    echo = {
        "channel": {
            "bandwidth_hz": bandwidth,
            "center_freq_hz": params.center_freq_f0,
            "ref_distance_m": params.ref_distance_d0,
            "alpha": params.pathloss_alpha,
            "noise_m_watt": params.noise_m,
            "noise_e_watt": params.noise_e,
        },
        "aps": [
            {
                "x": cfg.position.x,
                "y": cfg.position.y,
                "tx_power_watt": cfg.tx_power,
                "tx_power_max_watt": cfg.tx_power_max,
            }
            for cfg in ap_cfgs
        ],
        "sta_m": {"x": scenario.sta_m.x, "y": scenario.sta_m.y},
        "grid": {"k": grid_k, "step_m": step_m},
        "policy": policy.value,
    }
    if mc is not None:
        echo["monte_carlo"] = {"enabled": mc.enabled, "n": mc.n, "seed": mc.seed}
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
