import importlib.util
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from secrecysim import ALL_POLICIES, load_scenario, monte_carlo, sweep_eavesdropper

TOOL = Path(__file__).resolve().parents[1] / "tools" / "goldens.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("goldens", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_goldens_inventory_and_byte_identical_reruns(tmp_path):
    goldens = load_tool()
    rows = {"scenario1": goldens.GOLDEN_ROWS["scenario1"]}
    goldens.write_goldens(tmp_path / "a", rows)
    goldens.write_goldens(tmp_path / "b", rows)
    first, second = tree(tmp_path / "a"), tree(tmp_path / "b")

    policies = ("normal", "smart", "smart_fj")
    kinds = ("secrecy", "eve_capacity", "association", "fj_power_dbm")
    sweep = {f"{p}_{k}.csv" for p in policies for k in kinds} | {f"{p}_summary.json" for p in policies}
    expected = {"scenario1/scenario1.json", "scenario1/compare.json", "scenario1/compare_mc.json"}
    expected |= {f"scenario1/{d}/{name}" for d in ("sweep", "sweep_mc_threads1", "sweep_mc_threads2") for name in sweep}
    expected |= {f"scenario1/arrays_{p}.hex" for p in policies}
    expected |= {f"scenario1/select_{p}.hex" for p in policies}
    expected |= {f"scenario1/mc_means_workers{w}.hex" for w in (1, 2)}
    assert set(first) == expected
    assert first == second
    # the worker count never changes a bit
    assert first["scenario1/mc_means_workers1.hex"] == first["scenario1/mc_means_workers2.hex"]
    for name in sweep:
        assert first[f"scenario1/sweep_mc_threads1/{name}"] == first[f"scenario1/sweep_mc_threads2/{name}"]


GOLDENS = load_tool()


@pytest.mark.parametrize("name", list(GOLDENS.GOLDEN_ROWS))
def test_golden_rows_evaluate_without_floating_point_errors(name, tmp_path):
    # a RuntimeWarning is a defect: every row must evaluate with numpy
    # raising on overflow, underflow, invalid operations and division by zero
    path = tmp_path / f"{name}.json"
    GOLDENS._write_scenario(path, *GOLDENS.GOLDEN_ROWS[name])
    loaded = load_scenario(path)
    cfg = replace(loaded.sweep, grid_k=12, cell_step=10.0)
    with np.errstate(all="raise"):
        for policy in ALL_POLICIES:
            arrays = sweep_eavesdropper(loaded.scenario, replace(cfg, policy=policy), retain_cells=False).arrays
            assert all(np.isfinite(getattr(arrays, f.name)).all() for f in fields(arrays))
        summary = monte_carlo(loaded.scenario, cfg, n=3, seed=7, workers=1)
    assert summary.n_samples == 3


def test_compare_trees_names_every_differing_or_missing_file(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        (root / "row").mkdir(parents=True)
        (root / "same.txt").write_bytes(b"1\n")
        (root / "row" / "arrays.hex").write_bytes(b"0x1.0p+0\n")
    assert GOLDENS.compare_trees(parent, change) == []
    (change / "row" / "arrays.hex").write_bytes(b"0x1.0000000000001p+0\n")
    (parent / "row" / "gone.json").write_bytes(b"{}\n")
    (change / "new.csv").write_bytes(b"x,y,value\n")
    assert GOLDENS.compare_trees(parent, change) == [
        "only in change: new.csv",
        "differs: row/arrays.hex",
        "only in parent: row/gone.json",
    ]
