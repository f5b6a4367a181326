import importlib.util
from pathlib import Path

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
