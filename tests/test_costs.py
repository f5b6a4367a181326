"""Array work per Monte Carlo sample, counted.

Time on a shared machine drifts too much to see one extra array pass, so
these tests count numpy calls instead. The eavesdropper terms of one chunk
are handed to the sample kernel as :class:`Counted` arrays; every ufunc and
array function that receives one is counted under its name, with the lanes
of its array arguments (``out=`` buffers and ``where=`` masks included), and
its array results are wrapped again, so the calls made on them count too.
The chunk's workspace is made with ``np.empty_like`` from those terms, so its
buffers are counted arrays as well. The counts are exact and independent of
the machine. Counts are not time: a speed claim still needs benchmark pairs.

A change that adds or removes array work per sample updates ``PER_SAMPLE``.
The eavesdropper terms themselves are counted from counted cell coordinates,
in ``EVE_TERMS``.

The grid-engine passes of whole runs are counted too: the calls of the
eavesdropper terms and of the array jamming optimizer per command-line run,
one per block of cells of a sweep. So is the memory a sweep takes above its
result arrays, the memory the command line's text takes above the grid arrays,
and the memory of a whole ``sweep --policy all`` command.
"""

import os
import pprint
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from secrecysim import PolicyKind, SweepConfig, bundled_scenario_path, load_scenario, sweep_eavesdropper
from secrecysim import cli, scenario_io, sweep
from secrecysim.channel import transmit_power_from_corrected
from secrecysim.cli import main

from conftest import build_scenario, hexed

# numpy calls per step of one sample on a bundled scenario: the three policy
# steps of ``_evaluate_grid``, then the three ``_metrics``, each run after its step,
# together. Every call writes into the chunk's workspace (``out=`` or ``np.copyto``);
# none makes a grid array
PER_SAMPLE = {
    PolicyKind.NORMAL_WIFI: {"copyto": 3, "multiply": 2, "subtract": 1},
    PolicyKind.SMART_AP: {"copyto": 8, "greater_equal": 1, "multiply": 2, "subtract": 2},
    PolicyKind.SMART_AP_FJ: {
        "add": 24, "copysign": 1, "copyto": 27, "divide": 9, "fmax": 2, "fmin": 2, "greater": 3, "less": 1,
        "log2": 2, "maximum": 1, "minimum": 1, "multiply": 58, "negative": 1, "sqrt": 1, "subtract": 6,
    },
    # the exact sums' extraction passes: on this sample (scenario1, seed 5, index 4) each of the five arrays
    # summed, the three secrecy arrays and smart's and smart_fj's eavesdropper capacities, takes two passes;
    # the pass count depends on the data: on how far below the largest lane the lowest set bit of any lane lies
    "metrics": {
        "absolute": 5, "add": 10, "add.reduce": 16, "count_nonzero": 3, "greater": 3, "logical_or.reduce": 10,
        "max": 5, "subtract": 20,
    },
}
# the lanes those calls touch, summed over their array inputs, ``out=`` buffers and ``where=``
# masks, on the 14,400 cells of scenario1
PER_SAMPLE_LANES = {
    PolicyKind.NORMAL_WIFI: 129_600,
    PolicyKind.SMART_AP: 374_400,
    PolicyKind.SMART_AP_FJ: 5_356_800,
    "metrics": 1_814_400,
}
# a chunk's calls besides its samples' own: its workspace's 18 float, 1 int8 and 2 bool buffers, as many as
# a sample holds at once (smart's step writes over normal's results; smart_fj's shares smart's ``chosen`` and
# reuses its zero jamming powers), made in its first sample; normal's two eavesdropper sums come with its arguments
PER_CHUNK = {"empty_like": 21}
# sweep._eve_terms' own calls, once per sweep or chunk, from counted cell coordinates on scenario1, and their lanes
EVE_TERMS = {
    "add": 4, "divide": 2, "log2": 2, "maximum": 2, "multiply": 2, "power": 4, "sqrt": 2, "square": 4, "subtract": 4,
}
EVE_TERMS_LANES = 403_200
# calls of sweep._eve_terms and sweep._best_power per command-line run on bundled scenarios: a sweep
# runs one grid-engine pass per block of cells, 4 blocks on a bundled scenario's 14,400, each pass
# stopped before the optimizer when smart_fj is not asked for
SCENARIOS = ["--scenario", "scenario1", "--scenario", "scenario2", "--scenario", "scenario3"]
PASSES_PER_RUN = [
    (["sweep", "--scenario", "scenario1", "--policy", "all"], 4, 4),
    (["compare", *SCENARIOS], 12, 12),
    (["sweep", "--scenario", "scenario1", "--policy", "normal"], 4, 0),
    (["sweep", "--scenario", "scenario1", "--policy", "smart"], 4, 0),
    # one set of whole-grid terms for Monte Carlo and one per block for the sweep; one optimizer call
    # per sample and one per block of the sweep
    (["sweep", "--scenario", "scenario1", "--policy", "all", "--monte-carlo-n", "2", "--threads", "1"], 5, 6),
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
    """Run two samples through ``_run_chunk`` on counted eavesdropper terms; returns the counts
    per step of the second, the chunk's other counts (the calls of the first sample that the
    second does not make), the records and the records of a plain run."""
    loaded = load_scenario(bundled_scenario_path("scenario1"))
    eve = sweep._eve_terms(loaded.scenario, sweep._grid_cells(loaded.scenario, loaded.sweep))
    # normal's eavesdropper sums as monte_carlo computes them, once per call
    normal_eve = [sweep._exact_sums(loaded.scenario.params.bandwidth_w * c_e)[0] for *_, c_e in eve[2]]
    plain = sweep._run_chunk(loaded.scenario, eve, normal_eve, 5, range(3, 5))

    steps, lanes = {}, {}
    evaluate_grid, metrics = sweep._evaluate_grid, sweep._metrics

    def counted_grid(scenario, sta_m, eve, work):
        # each sample's counts replace the one before's; the ``_metrics`` call the chunk makes
        # between two steps is counted by counted_metrics, not in the step after it
        steps.pop("metrics", None)
        lanes.pop("metrics", None)
        before = snapshot()
        for policy, ev in evaluate_grid(scenario, sta_m, eve, work):
            steps[policy], lanes[policy] = since(before)
            yield policy, ev
            before = snapshot()

    def counted_metrics(ev, work, eve_sum=None):
        before = snapshot()
        result = metrics(ev, work, eve_sum)
        calls, touched = since(before)
        steps["metrics"] = dict(Counter(steps.get("metrics", {})) + Counter(calls))
        lanes["metrics"] = lanes.get("metrics", 0) + touched
        return result

    Counted.calls.clear()
    Counted.lanes.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "_evaluate_grid", counted_grid)
        mp.setattr(sweep, "_metrics", counted_metrics)
        records = sweep._run_chunk(loaded.scenario, counted_terms(eve), normal_eve, 5, range(3, 5))
    sample = sum((Counter(c) for c in steps.values()), Counter())
    chunk = dict(Counter(Counted.calls) - sample - sample)
    return steps, lanes, chunk, records, plain


@pytest.fixture(scope="module")
def counted_sample():
    return count_sample()


def test_counted_run_equals_a_plain_run(counted_sample):
    *_, records, plain = counted_sample
    assert hexed(records) == hexed(plain)


def test_numpy_calls_per_sample_are_pinned(counted_sample):
    steps, lanes, chunk, _, _ = counted_sample
    # pytest's diff of nested dicts is cut short; print the whole table to update it from
    assert steps == PER_SAMPLE, pprint.pformat(steps)
    assert lanes == PER_SAMPLE_LANES, pprint.pformat(lanes)
    assert chunk == PER_CHUNK, pprint.pformat(chunk)


def test_a_sample_makes_no_full_grid_power(counted_sample):
    steps = counted_sample[0]
    assert all("power" not in calls for calls in steps.values())


def test_a_sample_makes_no_bincount(counted_sample):
    # the exact sums extract with plain sums; no step bins the lanes by exponent
    steps = counted_sample[0]
    assert all("bincount" not in calls for calls in steps.values())


def test_numpy_calls_of_the_eavesdropper_terms_are_pinned():
    loaded = load_scenario(bundled_scenario_path("scenario1"))
    cells = sweep._grid_cells(loaded.scenario, loaded.sweep)
    plain = sweep._eve_terms(loaded.scenario, cells)
    before = snapshot()
    counted = sweep._eve_terms(loaded.scenario, counted_terms(cells))
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
    jams = int(policy is PolicyKind.SMART_AP_FJ)
    # 4 x 4 cells take one block; 65 x 65 = 4,225 take two of at most 4,096
    for k, blocks in (4, 1), (65, 2):
        calls.clear()
        cfg = replace(loaded.sweep, grid_k=k, policy=policy)
        assert len(sweep_eavesdropper(loaded.scenario, cfg, retain_cells=True).grid) == k * k
        assert calls == Counter(_eve_terms=blocks, _best_power=blocks * jams, _metrics=1, _cells=1)


@pytest.mark.parametrize("n, workers", [(1, 1), (3, 1), (3, 2)])
def test_monte_carlo_sums_normals_eavesdropper_capacity_once_per_call(n, workers, monkeypatch, usable_cpus):
    loaded = load_scenario(bundled_scenario_path("scenario1"))
    # every chunk runs in this process, where its calls are counted; two CPUs allow two chunks
    usable_cpus(2)
    monkeypatch.delattr(os, "fork", raising=False)
    calls = counting(monkeypatch, "_eve_terms", "_exact_sums", "_run_chunk")
    sweep.monte_carlo(loaded.scenario, replace(loaded.sweep, grid_k=8), n, seed=1, workers=workers)
    # two sums once per call, one per AP; then per sample two for smart and for smart_fj, and
    # one for normal, whose eavesdropper sum is one of those two
    assert calls == Counter(_eve_terms=1, _exact_sums=2 + 5 * n, _run_chunk=min(n, workers))


def warm_samples_peak(monkeypatch, scenario, cfg):
    """The ``tracemalloc`` peak of samples 1 and 2 of a three-sample chunk on seed 5, above the traced
    memory as sample 1 starts, and the chunk's records."""
    eve = sweep._eve_terms(scenario, sweep._grid_cells(scenario, cfg))
    normal_eve = [sweep._exact_sums(scenario.params.bandwidth_w * c_e)[0] for *_, c_e in eve[2]]
    draw, start = sweep._station_draw, []

    def measured_draw(seed, index, extent):
        # sample 0 warms up; samples 1 and 2 are measured from the start of sample 1
        if index == 1:
            tracemalloc.reset_peak()
            start.append(tracemalloc.get_traced_memory()[0])
        return draw(seed, index, extent)

    monkeypatch.setattr(sweep, "_station_draw", measured_draw)
    tracemalloc.start()
    try:
        records = sweep._run_chunk(scenario, eve, normal_eve, 5, range(0, 3))
        return tracemalloc.get_traced_memory()[1] - start[0], records
    finally:
        tracemalloc.stop()


def test_two_warm_samples_allocate_at_most_two_grid_arrays(monkeypatch):
    # every grid array of a sample is a buffer of the chunk's workspace; what a sample still
    # allocates (the exact sums' lists of pass sums, records) stays below two 14,400-cell arrays
    loaded = load_scenario(bundled_scenario_path("scenario1"))
    peak, _ = warm_samples_peak(monkeypatch, loaded.scenario, loaded.sweep)
    assert peak <= 256 * 1024  # two 14,400-cell float arrays are 225 KB


def test_two_warm_samples_that_cover_no_cell_allocate_at_most_two_grid_arrays(monkeypatch):
    # eavesdroppers a million times more sensitive than the station: wherever it is drawn, normal and
    # smart secure no cell, and the positive part of their secrecy sums to +0.0 in the exact sums'
    # passes, not through a list of 14,400 Python floats (460 KB)
    scenario = build_scenario(noise_e=1e-16)
    peak, records = warm_samples_peak(monkeypatch, scenario, SweepConfig())
    assert [record.metrics[PolicyKind.NORMAL_WIFI].coverage_ratio for record in records] == [0.0] * 3
    assert [record.metrics[PolicyKind.SMART_AP].coverage_ratio for record in records] == [0.0] * 3
    assert peak <= 256 * 1024


def test_monte_carlo_samples_hold_no_cell_coordinates(monkeypatch):
    # a chunk needs the cells' terms and their count; the coordinates, two grid arrays, are gone before it runs
    loaded = load_scenario(bundled_scenario_path("scenario1"))
    monkeypatch.delattr(os, "fork", raising=False)
    run_chunk, coordinates = sweep._run_chunk, []

    def recorded_chunk(scenario, eve, *args):
        coordinates.append(eve[:2])
        return run_chunk(scenario, eve, *args)

    monkeypatch.setattr(sweep, "_run_chunk", recorded_chunk)
    sweep.monte_carlo(loaded.scenario, replace(loaded.sweep, grid_k=8), 2, seed=1)
    assert coordinates == [(None, None)]


@pytest.fixture(scope="module")
def smart_fj_columns():
    """scenario1's smart_fj grid arrays, its jamming powers in watts, and its secrecy column as the CLI writes it."""
    loaded = load_scenario(bundled_scenario_path("scenario1"))
    cells = sweep._sweeps(loaded.scenario, loaded.sweep, [PolicyKind.SMART_AP_FJ])[PolicyKind.SMART_AP_FJ].arrays
    fj_watt = transmit_power_from_corrected(cells.fj_power, loaded.scenario.params)
    return cells, fj_watt, np.where(cells.secrecy < 0.0, 0.0, cells.secrecy)


def traced_peak(call, *args) -> int:
    """The ``tracemalloc`` peak of one call, above what was traced before it."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_dbm_column_makes_no_whole_grid_array(smart_fj_columns):
    # it writes over its column and holds one block of 1,024 rows at a time: two lists of Python
    # floats (64 KB), the live lanes' indices and their powers (16 KB). A 14,400-cell float array
    # is 112.5 KB, and all 12,881 live lanes as Python floats at once take more than 900 KB
    _, fj_watt, _ = smart_fj_columns
    assert np.count_nonzero(fj_watt > 0.0) == 12_881
    assert traced_peak(cli._dbm_column, fj_watt.copy()) <= 80 * 1024


def test_a_sweep_of_every_policy_takes_at_most_2450_kb():
    # the 15 result arrays (int8 associations) and the cells' coordinates take 1,617 KB; the rest is one
    # block's scratch and terms, then the means' scratch. A pass over the whole grid at once takes 4,100 KB
    loaded = load_scenario(bundled_scenario_path("scenario1"))
    assert traced_peak(sweep._sweeps, loaded.scenario, loaded.sweep, list(PolicyKind)) <= 2450 * 1024


def test_a_sweep_command_of_every_policy_takes_at_most_2150_kb(tmp_path):
    # its peak is the sweep's last block: the twelve columns it writes (1,055 KB, the three associations
    # int8), the coordinates, and one block's scratch and terms. The columns are then converted in place
    # and written through the cold template cache. With int64 associations, the unwritten cap_legit
    # columns and a float copy of each converted column it took 3,080 KB
    scenario = str(bundled_scenario_path("scenario1"))
    scenario_io.write_heatmap(tmp_path / "other.csv", [0.0], [0.0], [0.0])  # other coordinates: the cache misses
    argv = ["sweep", "--scenario", scenario, "--policy", "all", "--out-dir", str(tmp_path / "out")]
    assert traced_peak(main, argv) <= 2150 * 1024
    assert len(list((tmp_path / "out").iterdir())) == 15


def test_a_cold_heatmap_write_takes_at_most_600_kb(smart_fj_columns, tmp_path):
    # the template cache's coordinates and templates, and one block of text and Python floats at a time;
    # all 28,800 coordinates as Python floats at once take 2,100 KB, the whole text 460 KB
    cells, _, secrecy = smart_fj_columns
    scenario_io.write_heatmap(tmp_path / "other.csv", [0.0], [0.0], [0.0])  # other coordinates: the cache misses
    assert traced_peak(scenario_io.write_heatmap, tmp_path / "secrecy.csv", cells.x, cells.y, secrecy) <= 600 * 1024


def test_a_warm_heatmap_write_takes_at_most_150_kb(smart_fj_columns, tmp_path):
    # the cached templates serve the same coordinates again: one block of text and Python floats at a time
    cells, _, secrecy = smart_fj_columns
    scenario_io.write_heatmap(tmp_path / "cold.csv", cells.x, cells.y, secrecy)
    assert traced_peak(scenario_io.write_heatmap, tmp_path / "warm.csv", cells.x, cells.y, secrecy) <= 150 * 1024
    assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()
