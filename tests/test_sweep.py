import concurrent.futures
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from secrecysim import (
    Point2D,
    PolicyKind,
    SweepConfig,
    monte_carlo,
    select,
    sweep_eavesdropper,
)
from secrecysim.sweep import ALL_POLICIES, PolicyMeans, _exact_sum, grid_coordinates

from conftest import build_scenario


def small_cfg(policy=PolicyKind.SMART_AP_FJ, k=25, step=4.0):
    return SweepConfig(grid_k=k, cell_step=step, policy=policy)


def test_grid_row_order_y_outer_x_inner():
    cfg = SweepConfig(grid_k=3, cell_origin=Point2D(1.0, 1.0), cell_step=1.0)
    x, y = grid_coordinates(cfg)
    assert list(zip(x, y)) == [
        (1, 1), (2, 1), (3, 1),
        (1, 2), (2, 2), (3, 2),
        (1, 3), (2, 3), (3, 3),
    ]


@pytest.mark.parametrize(
    "policy, noise_ratio",
    [
        pytest.param(policy, ratio, id=f"{policy}{suffix}")
        for policy in PolicyKind
        for ratio, suffix in ((1.0, ""), (0.1, "-noise_e_0.1x"), (10.0, "-noise_e_10x"))
    ],
)
def test_sweep_matches_naive_double_loop(policy, noise_ratio):
    # independent oracle: an explicitly coded double loop over cells using
    # the scalar selector, re-summed with exact accumulation
    scenario = build_scenario((20.0, 100.0), noise_e=noise_ratio * 1e-10)
    cfg = small_cfg(policy)
    summary = sweep_eavesdropper(scenario, cfg)
    assert len(summary.grid) == cfg.grid_k ** 2

    secrecy_values = []
    eve_values = []
    positives = 0
    index = 0
    for iy in range(cfg.grid_k):
        for ix in range(cfg.grid_k):
            pos = Point2D(
                cfg.cell_origin.x + cfg.cell_step * ix, cfg.cell_origin.y + cfg.cell_step * iy
            )
            cell = summary.grid[index]
            index += 1
            assert cell.eve_pos == pos
            ref = select(scenario, pos, policy)
            assert cell.selection.chosen_ap == ref.chosen_ap
            assert cell.selection.secrecy == pytest.approx(ref.secrecy, rel=1e-12, abs=1e-12)
            assert cell.selection.fj_power == pytest.approx(ref.fj_power, rel=1e-9, abs=1e-18)
            secrecy_values.append(ref.secrecy)
            eve_values.append(ref.cap_eve)
            positives += cell.selection.secrecy > 0.0

    n = cfg.grid_k ** 2
    assert summary.avg_secrecy == pytest.approx(math.fsum(secrecy_values) / n, rel=1e-12, abs=1e-12)
    assert summary.avg_secrecy_truncated == pytest.approx(
        math.fsum(max(s, 0.0) for s in secrecy_values) / n, rel=1e-12, abs=1e-12
    )
    assert summary.avg_eve_capacity == pytest.approx(math.fsum(eve_values) / n, rel=1e-12)
    assert summary.coverage_ratio == positives / n
    assert summary.avg_secrecy <= max(secrecy_values) + 1e-12
    assert 0.0 <= summary.coverage_ratio <= 1.0


def test_single_cell_on_station_has_zero_coverage():
    scenario = build_scenario((20.0, 100.0))
    cfg = SweepConfig(grid_k=1, cell_origin=Point2D(20.0, 100.0), cell_step=1.0)
    summary = sweep_eavesdropper(scenario, cfg)
    assert summary.coverage_ratio == 0.0
    assert summary.grid[0].selection.secrecy == 0.0


def test_coverage_matches_summary_grid():
    scenario = build_scenario((60.0, 38.0))
    summary = sweep_eavesdropper(scenario, small_cfg())
    positives = sum(1 for cell in summary.grid if cell.selection.secrecy > 0.0)
    assert positives / len(summary.grid) == summary.coverage_ratio


def test_policy_ordering_scenario1():
    scenario = build_scenario((20.0, 100.0))
    cov = {}
    avg = {}
    for policy in ALL_POLICIES:
        summary = sweep_eavesdropper(scenario, small_cfg(policy), retain_cells=False)
        cov[policy] = summary.coverage_ratio
        avg[policy] = summary.avg_secrecy
    assert cov[PolicyKind.SMART_AP_FJ] >= cov[PolicyKind.SMART_AP] >= cov[PolicyKind.NORMAL_WIFI]
    assert avg[PolicyKind.SMART_AP_FJ] >= avg[PolicyKind.SMART_AP] >= avg[PolicyKind.NORMAL_WIFI]


def test_sweep_without_retained_cells_keeps_metrics():
    scenario = build_scenario((80.0, 20.0))
    with_cells = sweep_eavesdropper(scenario, small_cfg())
    without = sweep_eavesdropper(scenario, small_cfg(), retain_cells=False)
    assert without.grid == ()
    assert without.avg_secrecy == with_cells.avg_secrecy
    assert without.coverage_ratio == with_cells.coverage_ratio
    # the arrays hold exactly the values of the per-cell objects
    arrays = without.arrays
    fields = ("x", "y", "chosen", "cap_legit", "cap_eve", "secrecy", "fj_power")
    assert list(zip(*(getattr(arrays, f).tolist() for f in fields))) == [
        (c.eve_pos.x, c.eve_pos.y, c.selection.chosen_ap, c.selection.cap_legit,
         c.selection.cap_eve, c.selection.secrecy, c.selection.fj_power)
        for c in with_cells.grid
    ]


def test_mirror_symmetry_of_the_standard_layout():
    # a K=119 grid is symmetric about the APs' perpendicular bisector x=60,
    # so reflecting the station mirrors the association map; cells where the
    # two APs tie exactly break to AP 1 on both sides and are exempted
    cfg = SweepConfig(grid_k=119, cell_step=1.0, policy=PolicyKind.SMART_AP)
    left = sweep_eavesdropper(build_scenario((20.0, 100.0)), cfg)
    right = sweep_eavesdropper(build_scenario((100.0, 100.0)), cfg)
    k = cfg.grid_k
    ties = 0
    for iy in range(k):
        for ix in range(k):
            a = left.grid[iy * k + ix].selection
            b = right.grid[iy * k + (k - 1 - ix)].selection
            if a.chosen_ap == 3 - b.chosen_ap:
                pass
            else:
                # legitimate only for an exact argmax tie; both break low
                assert a.chosen_ap == 1 and b.chosen_ap == 1
                ties += 1
            assert a.secrecy == pytest.approx(b.secrecy, rel=1e-9, abs=1e-12)
    assert ties < k  # ties are rare knife-edge cells, not whole regions
    assert left.avg_secrecy == pytest.approx(right.avg_secrecy, rel=1e-9)
    assert left.coverage_ratio == right.coverage_ratio


def test_monte_carlo_single_sample_degenerates_to_sweep():
    scenario = build_scenario((20.0, 100.0))
    cfg = small_cfg()
    mc = monte_carlo(scenario, cfg, n=1, seed=123)
    drawn = mc.samples[0].sta_m
    assert 0.0 <= drawn.x <= scenario.map_extent
    assert 0.0 <= drawn.y <= scenario.map_extent
    placed = replace(scenario, sta_m=drawn)
    for policy in ALL_POLICIES:
        direct = sweep_eavesdropper(placed, replace(cfg, policy=policy), retain_cells=False)
        means = mc.means[policy]
        assert means.avg_secrecy == direct.avg_secrecy
        assert means.avg_eve_capacity == direct.avg_eve_capacity
        assert means.coverage_ratio == direct.coverage_ratio


def test_monte_carlo_preserves_policy_ordering():
    scenario = build_scenario((20.0, 100.0))
    mc = monte_carlo(scenario, small_cfg(k=15, step=8.0), n=40, seed=9)
    fj, smart, normal = (
        mc.means[PolicyKind.SMART_AP_FJ],
        mc.means[PolicyKind.SMART_AP],
        mc.means[PolicyKind.NORMAL_WIFI],
    )
    assert fj.avg_secrecy >= smart.avg_secrecy >= normal.avg_secrecy
    assert fj.coverage_ratio >= smart.coverage_ratio >= normal.coverage_ratio
    assert fj.avg_eve_capacity <= smart.avg_eve_capacity


def test_monte_carlo_worker_count_does_not_change_bits():
    scenario = build_scenario((20.0, 100.0))
    cfg = small_cfg(k=12, step=10.0)
    serial = monte_carlo(scenario, cfg, n=200, seed=42, workers=1)
    parallel = monte_carlo(scenario, cfg, n=200, seed=42, workers=2)
    assert serial == parallel


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_monte_carlo_samples_match_per_policy_sweeps(workers):
    # distinct noises and a non-integer exponent; 9 samples over 1, 8 or 9 chunks
    scenario = build_scenario((20.0, 100.0), noise_e=1e-9, alpha=2.418)
    cfg = small_cfg(k=25, step=4.0)
    mc = monte_carlo(scenario, cfg, n=9, seed=11, workers=workers)
    assert len(mc.samples) == 9
    for index, sample in enumerate(mc.samples):
        x, y = np.random.default_rng([11, index]).uniform(0.0, scenario.map_extent, size=2)
        assert sample.sta_m == Point2D(float(x), float(y))
        placed = replace(scenario, sta_m=sample.sta_m)
        for policy in ALL_POLICIES:
            ev = sweep_eavesdropper(placed, replace(cfg, policy=policy), retain_cells=False).arrays
            size = ev.secrecy.size
            expected = PolicyMeans(
                avg_secrecy=math.fsum(ev.secrecy.tolist()) / size,
                avg_secrecy_truncated=math.fsum(np.maximum(ev.secrecy, 0.0).tolist()) / size,
                avg_eve_capacity=math.fsum(ev.cap_eve.tolist()) / size,
                coverage_ratio=int(np.count_nonzero(ev.secrecy > 0.0)) / size,
            )
            got = sample.metrics[policy]
            assert [float(v).hex() for v in vars(got).values()] == [
                float(v).hex() for v in vars(expected).values()
            ], (index, policy)


def test_monte_carlo_starts_no_more_workers_than_samples(monkeypatch):
    started = []

    class RecordingPool:
        """Runs the tasks in this process and records the requested size."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # monte_carlo imports the pool inside its pool branch, from concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    scenario = build_scenario((20.0, 100.0))
    cfg = small_cfg(k=5, step=24.0)
    capped = monte_carlo(scenario, cfg, n=3, seed=4, workers=64)
    assert started == [3]
    assert capped == monte_carlo(scenario, cfg, n=3, seed=4, workers=1)
    # one sample needs no pool at all
    monte_carlo(scenario, cfg, n=1, seed=4, workers=64)
    assert started == [3]


def test_monte_carlo_seed_changes_draws():
    scenario = build_scenario((20.0, 100.0))
    cfg = small_cfg(k=5, step=24.0)
    a = monte_carlo(scenario, cfg, n=5, seed=1)
    b = monte_carlo(scenario, cfg, n=5, seed=2)
    assert [s.sta_m for s in a.samples] != [s.sta_m for s in b.samples]


def test_monte_carlo_validates_arguments():
    scenario = build_scenario((20.0, 100.0))
    with pytest.raises(ValueError):
        monte_carlo(scenario, small_cfg(), n=0, seed=1)
    with pytest.raises(ValueError):
        monte_carlo(scenario, small_cfg(), n=1, seed=-1)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(grid_k=0)
    with pytest.raises(ValueError):
        SweepConfig(cell_step=0.0)


def fsum_outcome(values):
    """``math.fsum`` as a comparable value: the float's hex, or the error type."""
    try:
        return math.fsum(values).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def exact_sum_outcome(array):
    try:
        return _exact_sum(array).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


TINY = 2.2250738585072014e-308  # smallest normal double
finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
scaled = st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0), st.integers(-300, 300))
subnormal = st.floats(min_value=-TINY, max_value=TINY)
special = st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 1.0])


@given(
    st.lists(st.one_of(finite, scaled, subnormal), max_size=300),
    st.lists(st.one_of(scaled, subnormal), max_size=50),
)
def test_exact_sum_matches_fsum(values, cancelling):
    # each cancelling value also appears negated, so large terms cancel exactly
    values = values + cancelling + [-v for v in cancelling]
    assert exact_sum_outcome(np.array(values, dtype=float)) == fsum_outcome(values)


@given(st.lists(st.sampled_from([0.0, -0.0]), max_size=20))
def test_exact_sum_of_zeros_keeps_fsum_sign(values):
    assert exact_sum_outcome(np.array(values, dtype=float)) == fsum_outcome(values)


@given(st.lists(st.one_of(scaled, special), min_size=1, max_size=30))
def test_exact_sum_falls_back_on_inf_and_nan(values):
    array = np.array(values, dtype=float)
    assert exact_sum_outcome(array) == fsum_outcome(values)


def test_exact_sum_on_grid_sized_arrays():
    rng = np.random.default_rng(3)
    full_mantissa = np.full(100_000, np.nextafter(2.0, 0.0))
    mixed = rng.normal(size=14_400) * 10.0 ** rng.integers(-300, 300, size=14_400)
    for array in (full_mantissa, -full_mantissa, mixed, rng.normal(size=14_400)):
        assert _exact_sum(array).hex() == math.fsum(array.tolist()).hex()
