import json
import math
import sys

import numpy as np
import pytest

from secrecysim import (
    PolicyKind,
    ScenarioValidationError,
    bundled_scenario_path,
    load_scenario,
    read_heatmap,
    read_summary,
    watt_to_dbm,
    write_heatmap,
    write_summary,
)
from secrecysim.sweep import grid_coordinates

from conftest import assert_close, cut_short_writes, write_document

MINIMAL = {
    "channel": {
        "center_freq_hz": 2.4e9,
        "ref_distance_m": 1.0,
        "alpha": 2.0,
        "noise_m_watt": 1e-10,
        "noise_e_watt": 1e-10,
    },
    "aps": [
        {"x": 40.0, "y": 60.0, "tx_power_watt": 0.05, "tx_power_max_watt": 0.05},
        {"x": 80.0, "y": 60.0, "tx_power_watt": 0.05, "tx_power_max_watt": 0.05},
    ],
    "sta_m": {"x": 20.0, "y": 100.0},
    "policy": "smart_fj",
}


def test_bundled_scenario1_loads():
    loaded = load_scenario(bundled_scenario_path("scenario1"))
    assert loaded.scenario.sta_m.x == 20.0
    assert loaded.scenario.sta_m.y == 100.0
    assert loaded.scenario.ap1.position.x == 40.0
    assert loaded.scenario.ap2.position.x == 80.0
    assert loaded.scenario.ap1.tx_power == 0.05
    assert loaded.scenario.params.noise_m == 1e-10
    assert loaded.scenario.params.pathloss_alpha == 2.0
    assert loaded.scenario.map_extent == 120.0
    assert loaded.sweep.grid_k == 120
    assert loaded.sweep.policy is PolicyKind.SMART_AP_FJ
    assert loaded.monte_carlo is None


def test_bundled_scenarios_2_and_3():
    assert load_scenario(bundled_scenario_path("scenario2")).scenario.sta_m.x == 80.0
    assert load_scenario(bundled_scenario_path("scenario3")).scenario.sta_m.y == 38.0


def test_bundled_unknown_name_rejected():
    with pytest.raises(ValueError, match="scenario9"):
        bundled_scenario_path("scenario9")


def test_defaults_bandwidth_and_grid(tmp_path):
    loaded = load_scenario(write_document(tmp_path, MINIMAL))
    assert loaded.scenario.params.bandwidth_w == 1.0
    assert loaded.sweep.grid_k == 120
    assert loaded.sweep.cell_step == 1.0
    assert loaded.scenario.map_extent == 120.0


def test_zero_tx_power_rejected(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["aps"][0]["tx_power_watt"] = 0.0
    with pytest.raises(ScenarioValidationError, match=r"aps\[\]\.tx_power_watt must be a finite number > 0"):
        load_scenario(write_document(tmp_path, doc))


def test_unknown_key_rejected_top_level(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["fading"] = {"model": "rayleigh"}
    with pytest.raises(ScenarioValidationError, match="fading"):
        load_scenario(write_document(tmp_path, doc))


def test_unknown_key_rejected_in_channel(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["channel"]["fading"] = 1.0
    with pytest.raises(ScenarioValidationError, match="fading"):
        load_scenario(write_document(tmp_path, doc))


def test_missing_required_key_named(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    del doc["channel"]["alpha"]
    with pytest.raises(ScenarioValidationError, match="alpha"):
        load_scenario(write_document(tmp_path, doc))


def test_missing_file_raises_os_error(tmp_path):
    with pytest.raises(OSError):
        load_scenario(tmp_path / "nope.json")


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioValidationError, match="JSON"):
        load_scenario(path)


def test_policy_name_validated(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["policy"] = "stealth"
    with pytest.raises(ScenarioValidationError, match="stealth"):
        load_scenario(write_document(tmp_path, doc))


def test_aps_must_be_exactly_two(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["aps"] = doc["aps"][:1]
    with pytest.raises(ScenarioValidationError, match="exactly 2"):
        load_scenario(write_document(tmp_path, doc))


def test_boolean_is_not_a_number(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["channel"]["alpha"] = True
    with pytest.raises(ScenarioValidationError, match="alpha"):
        load_scenario(write_document(tmp_path, doc))


def test_monte_carlo_section(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["monte_carlo"] = {"enabled": True, "n": 50, "seed": 7}
    loaded = load_scenario(write_document(tmp_path, doc))
    assert loaded.monte_carlo.enabled is True
    assert loaded.monte_carlo.n == 50
    assert loaded.monte_carlo.seed == 7
    assert loaded.echo["monte_carlo"] == {"enabled": True, "n": 50, "seed": 7}


def test_monte_carlo_section_validated(tmp_path):
    for bad in [
        {"enabled": True, "n": 0, "seed": 7},
        {"enabled": True, "n": 5, "seed": -1},
        {"enabled": "yes", "n": 5, "seed": 7},
        {"enabled": True, "n": 5},
    ]:
        doc = json.loads(json.dumps(MINIMAL))
        doc["monte_carlo"] = bad
        with pytest.raises(ScenarioValidationError):
            load_scenario(write_document(tmp_path, doc))


def test_grid_partial_defaults(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["grid"] = {"k": 40}
    loaded = load_scenario(write_document(tmp_path, doc))
    assert loaded.sweep.grid_k == 40
    assert loaded.sweep.cell_step == 1.0
    assert loaded.scenario.map_extent == 40.0


@pytest.mark.parametrize(
    "k, step, first, last", [(120, 0.5, 0.5, 60.0), (12, 10.0, 10.0, 120.0), (40, 1.0, 1.0, 40.0)]
)
def test_grid_cells_sit_at_step_multiples_on_the_map(tmp_path, k, step, first, last):
    doc = json.loads(json.dumps(MINIMAL))
    doc["grid"] = {"k": k, "step_m": step}
    loaded = load_scenario(write_document(tmp_path, doc))
    assert loaded.scenario.map_extent == last
    for axis in grid_coordinates(loaded.sweep):
        assert (axis.min(), axis.max()) == (first, last)
        assert np.array_equal(np.unique(axis), step * np.arange(1, k + 1))


# integer literals where floats go, every section's keys shuffled, and
# bandwidth_hz and grid left out
SHUFFLED = {
    "monte_carlo": {"seed": 3, "n": 4, "enabled": False},
    "policy": "smart",
    "sta_m": {"y": 100, "x": 20},
    "aps": [
        {"tx_power_max_watt": 1, "y": 60, "x": 40, "tx_power_watt": 0.05},
        {"x": -80, "tx_power_watt": 0.05, "tx_power_max_watt": 0.05, "y": 0},
    ],
    "channel": {
        "noise_e_watt": 1e-10,
        "alpha": 3,
        "noise_m_watt": 1e-10,
        "ref_distance_m": 1,
        "center_freq_hz": 2400000000,
    },
}

SHUFFLED_ECHO = """{
  "channel": {
    "bandwidth_hz": 1.0,
    "center_freq_hz": 2400000000.0,
    "ref_distance_m": 1.0,
    "alpha": 3.0,
    "noise_m_watt": 1e-10,
    "noise_e_watt": 1e-10
  },
  "aps": [
    {
      "x": 40.0,
      "y": 60.0,
      "tx_power_watt": 0.05,
      "tx_power_max_watt": 1.0
    },
    {
      "x": -80.0,
      "y": 0.0,
      "tx_power_watt": 0.05,
      "tx_power_max_watt": 0.05
    }
  ],
  "sta_m": {
    "x": 20.0,
    "y": 100.0
  },
  "grid": {
    "k": 120,
    "step_m": 1.0
  },
  "policy": "smart",
  "monte_carlo": {
    "enabled": false,
    "n": 4,
    "seed": 3
  }
}
"""


def test_echo_is_normalized(tmp_path):
    loaded = load_scenario(write_document(tmp_path, MINIMAL))
    assert loaded.echo["channel"]["bandwidth_hz"] == 1.0
    assert loaded.echo["grid"] == {"k": 120, "step_m": 1.0}
    assert loaded.echo["policy"] == "smart_fj"
    # floats as floats, keys in the documented order, defaults present
    loaded = load_scenario(write_document(tmp_path, SHUFFLED))
    assert loaded.echo == json.loads(SHUFFLED_ECHO)
    path = tmp_path / "echo.json"
    write_summary(path, loaded.echo)
    assert path.read_bytes() == SHUFFLED_ECHO.encode("utf-8")


FULL = {
    "channel": {"bandwidth_hz": 1.0, **MINIMAL["channel"]},
    "aps": MINIMAL["aps"],
    "sta_m": MINIMAL["sta_m"],
    "grid": {"k": 40, "step_m": 1.0},
    "policy": "smart_fj",
    "monte_carlo": {"enabled": True, "n": 5, "seed": 7},
}

# each section by the name error messages give it, as a path from the top
SECTIONS = {
    "channel": ("channel",),
    "aps[1]": ("aps", 0),
    "aps[2]": ("aps", 1),
    "sta_m": ("sta_m",),
    "grid": ("grid",),
    "monte_carlo": ("monte_carlo",),
}
REQUIRED = {
    "channel": ("center_freq_hz", "ref_distance_m", "alpha", "noise_m_watt", "noise_e_watt"),
    "aps[1]": ("x", "y", "tx_power_watt", "tx_power_max_watt"),
    "aps[2]": ("x", "y", "tx_power_watt", "tx_power_max_watt"),
    "sta_m": ("x", "y"),
    "grid": (),
    "monte_carlo": ("enabled", "n", "seed"),
}
FLOAT_KEYS = {
    "channel": ("bandwidth_hz",) + REQUIRED["channel"],
    "aps[1]": REQUIRED["aps[1]"],
    "aps[2]": REQUIRED["aps[2]"],
    "sta_m": REQUIRED["sta_m"],
    "grid": ("step_m",),
}
INTEGER_KEYS = (("grid", "k"), ("monte_carlo", "n"), ("monte_carlo", "seed"))
DROP = object()


def with_fault(path, key, value):
    """A deep copy of FULL with ``value`` at ``path + (key,)`` (the whole
    document when ``key`` is None), or that key deleted for DROP."""
    if key is None:
        return value
    doc = json.loads(json.dumps(FULL))
    parent = doc
    for step in path:
        parent = parent[step]
    if value is DROP:
        del parent[key]
    else:
        parent[key] = value
    return doc


def single_faults():
    """(path, key, value, message): scenario files with exactly one fault
    and the exact message each must give."""
    policy = "policy must be one of 'normal', 'smart', 'smart_fj', got {!r}"
    cases = [((), None, value, "top level must be an object") for value in ([], "x", 1, None)]
    cases.append(((), "fading", {}, "unknown key 'fading' in scenario"))
    cases += [((), key, DROP, f"missing key {key!r} in scenario") for key in ("channel", "aps", "sta_m", "policy")]
    for where, path in SECTIONS.items():
        cases += [(path[:-1], path[-1], value, f"{where} must be an object") for value in ([], "x", 1.0, None)]
        cases.append((path, "fading", 1.0, f"unknown key 'fading' in {where}"))
        cases += [(path, key, DROP, f"missing key {key!r} in {where}") for key in REQUIRED[where]]
    for where, keys in FLOAT_KEYS.items():
        for key in keys:
            cases += [(SECTIONS[where], key, value, f"{where}.{key} must be a number") for value in ("1", True, None)]
    for where, key in INTEGER_KEYS:
        cases += [(SECTIONS[where], key, value, f"{where}.{key} must be an integer") for value in ("1", True, 1.0, None)]
    cases += [(SECTIONS["monte_carlo"], "enabled", value, "monte_carlo.enabled must be a boolean") for value in ("yes", 1, None)]
    positive = "{} must be a finite number > 0"
    # numbers each valid alone whose derived corrected powers, capacity sum or closed form leave the float range
    powers = (
        "aps[].tx_power_watt and tx_power_max_watt at channel.center_freq_hz, ref_distance_m and alpha must give "
        "finite positive corrected powers, and 1 W a normal one"
    )
    bound = (
        "channel.bandwidth_hz times the largest capacity per Hz must be below 2**960, the largest SINR being "
        "aps[].tx_power_max_watt at channel.ref_distance_m over the smaller of noise_m_watt and noise_e_watt"
    )
    closed_form = (
        "channel.alpha, ref_distance_m, noise_m_watt, noise_e_watt and aps[].tx_power_max_watt overflow the "
        "jamming power's closed form on this map or its cells"
    )
    ranges = [
        ("channel", "bandwidth_hz", (0, -1.0), positive.format("channel.bandwidth_hz")),
        ("channel", "center_freq_hz", (0, -2.4e9), positive.format("channel.center_freq_hz")),
        ("channel", "ref_distance_m", (0.0, -1), positive.format("channel.ref_distance_m")),
        ("channel", "alpha", (0.5, -2.0), "channel.alpha must be a finite number >= 1"),
        ("channel", "noise_m_watt", (0, -0.0, -1e-10), positive.format("channel.noise_m_watt")),
        ("channel", "noise_e_watt", (0.0, -1e-10), positive.format("channel.noise_e_watt")),
        ("aps[1]", "tx_power_watt", (0, -0.05), positive.format("aps[].tx_power_watt")),
        ("aps[2]", "tx_power_watt", (0.0, -1), positive.format("aps[].tx_power_watt")),
        ("aps[1]", "tx_power_max_watt", (0.01,), "aps[].tx_power_watt must be a finite number <= tx_power_max_watt"),
        ("aps[2]", "tx_power_max_watt", (0,), "aps[].tx_power_watt must be a finite number <= tx_power_max_watt"),
        ("channel", "center_freq_hz", (1e-200, 1e200), powers),
        ("channel", "ref_distance_m", (5e-324, 1e300), powers),
        ("channel", "bandwidth_hz", (1e305,), bound),
        ("channel", "noise_e_watt", (1e-320,), bound),
        ("channel", "alpha", (30.0,), closed_form),
        ("channel", "noise_m_watt", (1e300,), closed_form),
        ("aps[2]", "tx_power_max_watt", (1e200,), closed_form),
        ("grid", "k", (0, -3), "grid.k must be an integer >= 1"),
        ("grid", "step_m", (0, -1.0), positive.format("grid.step_m")),
        ("monte_carlo", "n", (0, -1), "monte_carlo.n must be an integer >= 1"),
        ("monte_carlo", "seed", (-1,), "monte_carlo.seed must be an integer >= 0"),
    ]
    for where, key, values, message in ranges:
        cases += [(SECTIONS[where], key, value, message) for value in values]
    ap = FULL["aps"][0]
    one_ap_lists = ({}, "x", None, [], [ap], [ap, ap, ap])
    cases += [((), "aps", value, "aps must be a list of exactly 2 access points") for value in one_ap_lists]
    cases.append((("aps", 1), "x", ap["x"], "the two APs must not share a position"))
    cases += [((), "policy", value, policy.format(value)) for value in ("stealth", "", 1, None, True)]
    return cases


def fault_id(case):
    path, key, value, _ = case
    return ".".join(str(step) for step in path + (key,)) + ("-dropped" if value is DROP else f"={value!r}")


SINGLE_FAULTS = single_faults()


@pytest.mark.parametrize("path, key, value, message", SINGLE_FAULTS, ids=[fault_id(c) for c in SINGLE_FAULTS])
def test_single_fault_message(tmp_path, path, key, value, message):
    with pytest.raises(ScenarioValidationError) as info:
        load_scenario(write_document(tmp_path, with_fault(path, key, value)))
    assert type(info.value) is ScenarioValidationError
    assert str(info.value) == message


def write_with_literal(tmp_path, path, key, literal):
    """FULL as JSON text with ``literal`` written verbatim at ``path + (key,)``."""
    text = json.dumps(with_fault(path, key, "@literal@")).replace('"@literal@"', literal)
    target = tmp_path / "scenario.json"
    target.write_text(text)
    return target


# JSON literals that Python's json module reads as nan, +-inf, or an int
# too large for a float
NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "1e999": "1e999", "400-digits": "9" * 400}
FLOAT_FIELDS = [(where, key) for where, keys in FLOAT_KEYS.items() for key in keys]


@pytest.mark.parametrize("literal", NON_FINITE.values(), ids=NON_FINITE.keys())
@pytest.mark.parametrize("where, key", FLOAT_FIELDS, ids=[f"{where}.{key}" for where, key in FLOAT_FIELDS])
def test_non_finite_number_rejected(tmp_path, where, key, literal):
    path = write_with_literal(tmp_path, SECTIONS[where], key, literal)
    with pytest.raises(ScenarioValidationError) as info:
        load_scenario(path)
    assert str(info.value) == f"{where}.{key} must be a finite number"


@pytest.mark.parametrize(
    "grid", [{"k": 10**400}, {"k": 10**200, "step_m": 1e200}, {"k": -(10**400)}], ids=["400-digits", "inf", "-400-digits"]
)
def test_grid_extent_must_be_finite(tmp_path, grid):
    doc = json.loads(json.dumps(FULL))
    doc["grid"] = grid
    with pytest.raises(ScenarioValidationError, match="grid"):
        load_scenario(write_document(tmp_path, doc))


def test_an_integer_literal_longer_than_int_reads_is_a_scenario_error(tmp_path):
    # json.loads refuses more digits than sys.get_int_max_str_digits() with a plain ValueError
    with pytest.raises(ScenarioValidationError) as info:
        load_scenario(write_with_literal(tmp_path, SECTIONS["grid"], "k", "9" * 5000))
    assert type(info.value) is ScenarioValidationError


def test_heatmap_write_format(tmp_path):
    path = tmp_path / "map.csv"
    x = [1.0, 2.0, 1.0, 2.0]
    y = [1.0, 1.0, 2.0, 2.0]
    v = [0.123456789123, -math.inf, 2.0, 1e-12]
    write_heatmap(path, x, y, v)
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == "x,y,value"
    assert lines[1] == "1,1,0.123456789"
    assert lines[2] == "2,1,-inf"
    assert lines[3] == "1,2,2"
    assert lines[4] == "2,2,1e-12"
    assert text.endswith("\n")
    assert "\r" not in text


def test_heatmap_round_trip(tmp_path):
    path = tmp_path / "map.csv"
    rng = np.random.default_rng(1)
    # 12 x 12 cells, then none: the header alone
    for k in 12, 0:
        x = np.tile(np.arange(1.0, k + 1.0), k)
        y = np.repeat(np.arange(1.0, k + 1.0), k)
        v = rng.normal(size=k * k)
        write_heatmap(path, x, y, v)
        first = path.read_bytes()
        assert first.split(b"\n", 1)[0] == b"x,y,value" and first.count(b"\n") == k * k + 1 and first.endswith(b"\n")
        rx, ry, rv = read_heatmap(path)
        assert [(a.dtype, a.size) for a in (rx, ry, rv)] == [(np.float64, k * k)] * 3
        write_heatmap(path, rx, ry, rv)
        assert path.read_bytes() == first
        # values survive to 9 significant digits
        np.testing.assert_allclose(rv, v, rtol=1e-8)


def test_heatmap_reader_rejects_other_files(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_heatmap(path)


def test_summary_round_trip_is_byte_identical(tmp_path):
    path = tmp_path / "summary.json"
    document = {
        "tool_version": "0.1.0",
        "policy": "smart_fj",
        "avg_secrecy": 1.277581868982547,
        "coverage_ratio": 0.9922222222222222,
        "scenario": {"sta_m": {"x": 20.0, "y": 100.0}},
    }
    write_summary(path, document)
    first = path.read_bytes()
    write_summary(path, read_summary(path))
    assert path.read_bytes() == first


def test_watt_to_dbm():
    assert_close(watt_to_dbm(0.05), 16.98970004336019, rel=1e-12)
    assert_close(watt_to_dbm(0.001), 0.0, rel=0, abs_floor=1e-12)
    assert watt_to_dbm(0.0) == -math.inf
    # above 1.797e305 W, power_watt * 1000 overflows; the dBm is still finite
    assert_close(watt_to_dbm(1e306), 3090.0, rel=1e-15)
    assert 3112.54 < watt_to_dbm(sys.float_info.max) < 3112.55
    edge = sys.float_info.max / 1000.0  # the largest power whose product is finite
    assert_close(watt_to_dbm(math.nextafter(edge, math.inf)), watt_to_dbm(edge), rel=1e-15)
    # where the product is finite, its log keeps its bits
    for p in (1e305, edge, 0.05, 5e-324):
        assert watt_to_dbm(p) == 10.0 * math.log10(p * 1000.0)


def per_value_lines(x, y, values):
    """The heatmap text as one f-string per value, the reference format."""
    rows = "".join(
        f"{float(a):.9g},{float(b):.9g},{float(c):.9g}\n" for a, b, c in zip(x, y, values)
    )
    return "x,y,value\n" + rows


def block_edge_columns():
    """2,500 rows, two full blocks of 1,024 and a partial one, with a special
    float in x, y and values on each side of every block edge and in the last row."""
    x, y, values = (np.arange(2500) * step for step in (0.5, 1.25, 0.1))
    specials = [-0.0, math.nan, math.inf, -math.inf, 5e-324]
    for k, row in enumerate([1023, 1024, 2047, 2048, 2499]):
        x[row], y[row], values[row] = (specials[(k + shift) % 5] for shift in range(3))
    return x, y, values


@pytest.mark.parametrize(
    "x, y, values",
    [
        (
            [-0.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0],
            [1.0, -0.0, math.inf, 2.0, 1e300, 5e-324, 7.0],
            [-0.0, math.nan, math.inf, -math.inf, 5e-324, 123456789.5, 0.1],
        ),
        (
            np.arange(5, dtype=float),
            np.arange(5, dtype=float),
            np.array([1, 2, -7, 0, 2**62 + 1], dtype=np.int64),
        ),
        ([1, 2, 3], [4, 5, 6], [1, 2.5, -3]),
        ([], [], []),
        (np.array([]), np.array([]), np.array([])),
        block_edge_columns(),
    ],
    ids=["special-floats", "int64-values", "python-lists", "empty-lists", "empty-arrays", "block-edges"],
)
def test_heatmap_matches_per_value_formatting(tmp_path, x, y, values):
    path = tmp_path / "map.csv"
    write_heatmap(path, x, y, values)
    assert path.read_bytes() == per_value_lines(x, y, values).encode("utf-8")


def test_heatmap_row_template_follows_the_coordinates(tmp_path):
    values = [0.5, -1.0, math.inf, 7.0]
    grids = {
        "a": ([1.0, 2.0, 1.0, 2.0], [1.0, 1.0, 2.0, 2.0]),
        "b": ([3.0, 4.0, 3.0, 4.0], [5.0, 5.0, 6.0, 6.0]),
        # each equal under == to the grid before it, but printed differently
        "plus-zero": ([0.0, 2.0, 0.0, 2.0], [1.0, 1.0, 2.0, 0.0]),
        "minus-zero": ([-0.0, 2.0, -0.0, 2.0], [1.0, 1.0, 2.0, -0.0]),
        "plus-zero-again": ([0.0, 2.0, 0.0, 2.0], [1.0, 1.0, 2.0, 0.0]),
        # nan never compares equal, yet the same grid twice must print the same
        "nan": ([math.nan, 2.0, 1.0, 2.0], [1.0, math.nan, 2.0, 2.0]),
        "nan-again": ([math.nan, 2.0, 1.0, 2.0], [1.0, math.nan, 2.0, 2.0]),
    }
    order = ["a", "b", "a", "plus-zero", "minus-zero", "plus-zero-again", "nan", "nan-again"]
    for index, name in enumerate(order):
        x, y = grids[name]
        path = tmp_path / f"{index}_{name}.csv"
        write_heatmap(path, np.array(x), y, values)
        assert path.read_bytes() == per_value_lines(x, y, values).encode("utf-8"), name


@pytest.mark.parametrize(
    "x, y, values",
    [
        ([1.0, 2.0], [1.0, 1.0], [0.5]),
        ([1.0, 2.0], [1.0], [0.5, 0.5]),
        ([1.0], [1.0, 1.0], [0.5]),
        # 2-D columns would stack to more than three values per row
        (*np.meshgrid([1.0, 2.0], [1.0, 2.0]), [[0.5, 0.5], [0.5, 0.5]]),
        ([1.0, 2.0], [1.0, 1.0], [[0.5, 0.5], [0.5, 0.5]]),
        # a 0-d cell is no column
        (1.0, 1.0, 0.5),
    ],
    ids=["short-values", "short-y", "short-x", "2d-grid", "2d-values", "0d-scalars"],
)
def test_heatmap_unequal_columns_raise_value_error(tmp_path, x, y, values):
    write_heatmap(tmp_path / "warm.csv", [1.0, 2.0], [1.0, 1.0], [0.5, 0.5])
    target = tmp_path / "map.csv"
    with pytest.raises(ValueError):
        write_heatmap(target, x, y, values)
    assert not target.exists()
    assert not (tmp_path / "map.csv.tmp").exists()


WRITERS = {
    "heatmap": lambda path: write_heatmap(path, [1.0, 2.0], [1.0, 1.0], [0.5, -0.5]),
    "summary": lambda path: write_summary(path, {"policy": "smart", "avg_secrecy": 1.5}),
}


@pytest.mark.parametrize("fault", [OSError("disk full"), KeyboardInterrupt()], ids=["oserror", "interrupt"])
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_leaves_no_partial_target_or_temp(tmp_path, monkeypatch, writer, existing, fault):
    target = tmp_path / "out.txt"
    if existing:
        target.write_text("previous")
    cut_short_writes(monkeypatch, fault)
    with pytest.raises(type(fault)):
        WRITERS[writer](target)
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == (["out.txt"] if existing else [])
    if existing:
        assert target.read_text() == "previous"
    # a write that completes replaces the target in full
    WRITERS[writer](target)
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize("fault", [OSError("disk full"), KeyboardInterrupt()], ids=["oserror", "interrupt"])
def test_a_heatmap_write_cut_short_after_its_first_block_leaves_the_previous_file(tmp_path, monkeypatch, fault):
    # the header and the first block of rows reach the temp file whole; the second block fails half-way
    target = tmp_path / "out.csv"
    target.write_text("previous")
    x, y, values = block_edge_columns()
    cut_short_writes(monkeypatch, fault, after=2)
    with pytest.raises(type(fault)):
        write_heatmap(target, x, y, values)
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert target.read_text() == "previous"
