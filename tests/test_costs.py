"""Array work per Monte Carlo sample, counted.

Time on a shared machine drifts too much to see one extra array pass, so
these tests count numpy calls instead. The eavesdropper terms of one chunk
are handed to the sample kernel as :class:`Counted` arrays; every ufunc and
array function that receives one is counted under its name, with the lanes
of its array inputs, and its array results are wrapped again, so the calls
made on them count too. The counts are exact and independent of the machine. Counts are not time: a speed
claim still needs benchmark pairs.

A change that adds or removes array work per sample updates ``PER_SAMPLE``.
The eavesdropper terms themselves are counted from counted cell coordinates,
in ``EVE_TERMS``.

The grid-engine passes of whole runs are counted too: the calls of the
eavesdropper terms and of the array jamming optimizer per command-line run.
"""

import os
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from secrecysim import PolicyKind, bundled_scenario_path, load_scenario, sweep_eavesdropper
from secrecysim import sweep
from secrecysim.cli import main

# numpy calls per step of one sample on a bundled scenario: the three policy
# steps of ``_evaluate_grid``, then the three ``_metrics`` together
PER_SAMPLE = {
    PolicyKind.NORMAL_WIFI: {"multiply": 2, "subtract": 1, "where": 1, "zeros_like": 1},
    PolicyKind.SMART_AP: {
        "astype": 1, "equal": 1, "greater_equal": 1, "multiply": 3, "subtract": 3, "where": 3, "zeros_like": 1,
    },
    PolicyKind.SMART_AP_FJ: {
        "absolute": 3, "add": 24, "bitwise_and": 6, "bitwise_or": 3, "clip": 2, "copysign": 1, "divide": 6,
        "equal": 3, "greater": 3, "greater_equal": 1, "invert": 2, "less": 4, "less_equal": 2, "log2": 10,
        "maximum": 1, "multiply": 62, "negative": 2, "not_equal": 1, "sqrt": 1, "subtract": 13, "where": 22,
        "zeros_like": 1,
    },
    "metrics": {
        "bincount": 15, "bitwise_and": 15, "count_nonzero": 3, "flatnonzero": 5, "greater": 3, "right_shift": 10,
    },
}
# the lanes those calls read, summed over their array inputs, on the 14,400 cells of scenario1
PER_SAMPLE_LANES = {
    PolicyKind.NORMAL_WIFI: 115_200,
    PolicyKind.SMART_AP: 244_800,
    PolicyKind.SMART_AP_FJ: 4_550_400,
    "metrics": 826_880,
}
# a chunk makes no numpy call outside its samples: normal's two eavesdropper sums come with its arguments
PER_CHUNK = {}
# sweep._eve_terms' own calls, once per sweep or chunk, from counted cell coordinates on scenario1, and their lanes
EVE_TERMS = {
    "add": 4, "divide": 2, "log2": 2, "maximum": 2, "multiply": 2, "power": 4, "sqrt": 2, "square": 4, "subtract": 4,
}
EVE_TERMS_LANES = 403_200
# calls of sweep._eve_terms and sweep._best_power per command-line run on bundled scenarios:
# one grid-engine pass per scenario, stopped before the optimizer when smart_fj is not asked for
SCENARIOS = ["--scenario", "scenario1", "--scenario", "scenario2", "--scenario", "scenario3"]
PASSES_PER_RUN = [
    (["sweep", "--scenario", "scenario1", "--policy", "all"], 1, 1),
    (["compare", *SCENARIOS], 3, 3),
    (["sweep", "--scenario", "scenario1", "--policy", "normal"], 1, 0),
    (["sweep", "--scenario", "scenario1", "--policy", "smart"], 1, 0),
    # one set of terms for Monte Carlo and one for the sweep; one optimizer call per sample and one for the sweep
    (["sweep", "--scenario", "scenario1", "--policy", "all", "--monte-carlo-n", "2", "--threads", "1"], 2, 3),
]


class Counted(np.ndarray):
    """An array whose numpy calls are counted in ``calls`` and ``lanes``."""

    calls = Counter()
    lanes = Counter()

    @staticmethod
    def _unwrap(value):
        if isinstance(value, Counted):
            return value.view(np.ndarray)
        if isinstance(value, (tuple, list)):
            return type(value)(Counted._unwrap(v) for v in value)
        if isinstance(value, dict):
            return {k: Counted._unwrap(v) for k, v in value.items()}
        return value

    @classmethod
    def _count(cls, name, args):
        flat = [a for a in args for a in (a if isinstance(a, (tuple, list)) else (a,))]
        cls.calls[name] += 1
        cls.lanes[name] += sum(a.size for a in flat if isinstance(a, np.ndarray))

    @staticmethod
    def _wrap(result):
        if isinstance(result, np.ndarray):
            return result.view(Counted)
        if isinstance(result, tuple):
            return tuple(Counted._wrap(r) for r in result)
        return result

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        name = ufunc.__name__ if method == "__call__" else f"{ufunc.__name__}.{method}"
        self._count(name, (*inputs, *kwargs.values()))
        result = getattr(ufunc, method)(*self._unwrap(inputs), **self._unwrap(kwargs))
        return self._wrap(result)

    def __array_function__(self, func, types, args, kwargs):
        self._count(func.__name__, (*args, *kwargs.values()))
        return self._wrap(func(*self._unwrap(args), **self._unwrap(kwargs)))

    def astype(self, *args, **kwargs):
        self._count("astype", (self,))
        return self._wrap(self.view(np.ndarray).astype(*args, **kwargs))


def counted_terms(eve):
    """``eve`` with every array replaced by a :class:`Counted` view."""
    if isinstance(eve, np.ndarray):
        return eve.view(Counted)
    return type(eve)(counted_terms(v) for v in eve) if isinstance(eve, (tuple, list)) else eve


def snapshot():
    return Counter(Counted.calls), Counter(Counted.lanes)


def since(before):
    calls, lanes = before
    return (
        {k: v for k, v in (Counted.calls - calls).items() if v},
        sum((Counted.lanes - lanes).values()),
    )


def count_sample():
    """Run one sample through ``_run_chunk`` on counted eavesdropper terms; returns the
    counts per step, the per-chunk counts, the records and the records of a plain run."""
    loaded = load_scenario(bundled_scenario_path("scenario1"))
    eve = sweep._eve_terms(loaded.scenario, loaded.sweep)
    # normal's eavesdropper sums as monte_carlo computes them, once per call
    normal_eve = [sweep._exact_sums(loaded.scenario.params.bandwidth_w * c_e)[0] for *_, c_e in eve[2]]
    plain = sweep._run_chunk(loaded.scenario, eve, normal_eve, 5, range(3, 4))

    steps, lanes = {}, {}
    evaluate_grid, metrics = sweep._evaluate_grid, sweep._metrics

    def counted_grid(scenario, sta_m, eve):
        before = snapshot()
        for policy, ev in evaluate_grid(scenario, sta_m, eve):
            steps[policy], lanes[policy] = since(before)
            yield policy, ev
            before = snapshot()

    def counted_metrics(ev, eve_sum=None):
        before = snapshot()
        result = metrics(ev, eve_sum)
        calls, touched = since(before)
        steps["metrics"] = dict(Counter(steps.get("metrics", {})) + Counter(calls))
        lanes["metrics"] = lanes.get("metrics", 0) + touched
        return result

    Counted.calls.clear()
    Counted.lanes.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "_evaluate_grid", counted_grid)
        mp.setattr(sweep, "_metrics", counted_metrics)
        records = sweep._run_chunk(loaded.scenario, counted_terms(eve), normal_eve, 5, range(3, 4))
    chunk = dict(Counter(Counted.calls) - sum((Counter(c) for c in steps.values()), Counter()))
    return steps, lanes, chunk, records, plain


@pytest.fixture(scope="module")
def counted_sample():
    return count_sample()


def metric_hex(records):
    return [
        (r.sta_m.x.hex(), r.sta_m.y.hex(), [[float(v).hex() for v in vars(m).values()] for m in r.metrics.values()])
        for r in records
    ]


def test_counted_run_equals_a_plain_run(counted_sample):
    *_, records, plain = counted_sample
    assert metric_hex(records) == metric_hex(plain)


def test_numpy_calls_per_sample_are_pinned(counted_sample):
    steps, lanes, chunk, _, _ = counted_sample
    assert steps == PER_SAMPLE
    assert lanes == PER_SAMPLE_LANES
    assert chunk == PER_CHUNK


def test_a_sample_makes_no_full_grid_power_and_at_most_15_bincounts(counted_sample):
    steps = counted_sample[0]
    total = sum((Counter(calls) for calls in steps.values()), Counter())
    assert total["power"] == 0
    assert total["bincount"] <= 15


def test_numpy_calls_of_the_eavesdropper_terms_are_pinned(monkeypatch):
    loaded = load_scenario(bundled_scenario_path("scenario1"))
    plain = sweep._eve_terms(loaded.scenario, loaded.sweep)
    grid_coordinates = sweep.grid_coordinates
    monkeypatch.setattr(sweep, "grid_coordinates", lambda cfg: counted_terms(grid_coordinates(cfg)))
    before = snapshot()
    counted = sweep._eve_terms(loaded.scenario, loaded.sweep)
    assert since(before) == (EVE_TERMS, EVE_TERMS_LANES)

    def arrays(eve):
        x, y, aps = eve
        return [a.tobytes() for a in (x, y, *(a for ap in aps for a in ap))]

    assert arrays(counted) == arrays(plain)


def counting(monkeypatch, *names):
    """Replace each of ``sweep``'s ``names`` by a wrapper that counts its calls in the returned Counter."""
    calls = Counter()
    for name in names:
        def counted(*args, _name=name, _original=getattr(sweep, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(sweep, name, counted)
    return calls


@pytest.mark.parametrize(
    "argv, eve_terms, best_power", PASSES_PER_RUN, ids=["all", "compare", "normal", "smart", "all_monte_carlo"]
)
def test_grid_engine_passes_per_cli_run_are_pinned(argv, eve_terms, best_power, monkeypatch, tmp_path):
    calls = counting(monkeypatch, "_eve_terms", "_best_power")
    out = ["--out-dir", str(tmp_path / "out")] if argv[0] == "sweep" else ["--out", str(tmp_path / "table.json")]
    assert main([*argv, *out]) == 0
    assert (calls["_eve_terms"], calls["_best_power"]) == (eve_terms, best_power)


@pytest.mark.parametrize("policy", list(PolicyKind))
def test_a_single_policy_sweep_builds_only_its_own_cells(policy, monkeypatch):
    loaded = load_scenario(bundled_scenario_path("scenario1"))
    calls = counting(monkeypatch, "_eve_terms", "_best_power", "_metrics", "_cells")
    summary = sweep_eavesdropper(loaded.scenario, replace(loaded.sweep, grid_k=4, policy=policy), retain_cells=True)
    assert len(summary.grid) == 16
    jams = int(policy is PolicyKind.SMART_AP_FJ)
    assert calls == Counter(_eve_terms=1, _best_power=jams, _metrics=1, _cells=1)


@pytest.mark.parametrize("n, workers", [(1, 1), (3, 1), (3, 2)])
def test_monte_carlo_sums_normals_eavesdropper_capacity_once_per_call(n, workers, monkeypatch):
    loaded = load_scenario(bundled_scenario_path("scenario1"))
    # every chunk runs in this process, where its calls are counted
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.delattr(os, "fork", raising=False)
    calls = counting(monkeypatch, "_eve_terms", "_exact_sums")
    sweep.monte_carlo(loaded.scenario, replace(loaded.sweep, grid_k=8), n, seed=1, workers=workers)
    # two sums once per call, one per AP; then per sample two for smart and for smart_fj, and
    # one for normal, whose eavesdropper sum is one of those two
    assert calls == Counter(_eve_terms=1, _exact_sums=2 + 5 * n)
