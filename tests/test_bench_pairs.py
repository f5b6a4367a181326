import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load_tool()
# the declared end-to-end metrics, as main() reads them
DECLARED = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def pairs_of(name, parent, change):
    """Synthetic pairs of one metric: pair ``i`` has ``parent[i]`` and ``change[i]``."""
    return [{"parent": {"metrics": {name: p}}, "change": {"metrics": {name: c}}} for p, c in zip(parent, change)]


def verdict(name, parent, change):
    return bench_pairs.summarize(pairs_of(name, parent, change), {name: DECLARED[name]})[name]


PARENT_WALL = [1.0 + 0.01 * i for i in range(10)]


def test_a_clear_win_holds_and_stays_within_its_bound():
    s = verdict("wall_s", PARENT_WALL, [0.8 * v for v in PARENT_WALL])
    assert (s["wins"], s["pairs"], s["gain_holds"]) == (10, 10, True)
    assert (s["bound"], s["within_bound"]) == (0.25, True)


def test_a_thirty_percent_slower_wall_time_breaks_its_bound():
    s = verdict("wall_s", PARENT_WALL, [1.3 * v for v in PARENT_WALL])
    assert s["relative_change"] == pytest.approx(0.3)
    assert (s["wins"], s["gain_holds"], s["within_bound"]) == (0, False, False)
    # a loss inside the bound is no gain either, but it passes
    s = verdict("wall_s", PARENT_WALL, [1.2 * v for v in PARENT_WALL])
    assert (s["gain_holds"], s["within_bound"]) == (False, True)


@pytest.mark.parametrize(
    "factor, gain_holds, within_bound",
    [(1.3, True, True), (0.8, False, True), (0.7, False, False)],
    ids=["faster", "slower-within", "slower-beyond"],
)
def test_higher_is_better_metrics_are_judged_upwards(factor, gain_holds, within_bound):
    parent = [100.0 + i for i in range(10)]
    s = verdict("cells_per_s", parent, [factor * v for v in parent])
    assert s["better"] == "higher"
    assert (s["gain_holds"], s["within_bound"]) == (gain_holds, within_bound)


def test_fewer_than_ten_pairs_show_no_gain_but_still_judge_the_bound():
    for factor, within_bound in ((0.8, True), (1.3, False)):
        s = verdict("wall_s", PARENT_WALL[:9], [factor * v for v in PARENT_WALL[:9]])
        assert s["pairs"] == 9
        assert (s["gain_holds"], s["within_bound"]) == (False, within_bound)
