import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from secrecysim import (
    ApConfig,
    ChannelParams,
    Point2D,
    PolicyKind,
    Scenario,
    SweepConfig,
    bundled_scenario_path,
    distance_corrected_power,
    load_scenario,
    monte_carlo,
    select,
    sweep_eavesdropper,
)
from secrecysim import sweep as sweep_module
from secrecysim.fjopt import optimize_fj_power_array
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


def joint_fj_secrecy(scenario, cfg):
    """Per-Hz secrecy of the joint choice at every grid cell: each AP in turn
    serves while the other jams at the array optimizer's power, each choice
    is scored with the two-capacity form, and the better one is kept."""
    par = scenario.params
    a = par.pathloss_alpha
    x, y = grid_coordinates(cfg)

    def clamped(ap, px, py):
        return np.maximum(np.hypot(px - ap.position.x, py - ap.position.y), par.ref_distance_d0)

    best = np.full(x.shape, -np.inf)
    for data, idle in ((scenario.ap1, scenario.ap2), (scenario.ap2, scenario.ap1)):
        d_im = np.full(x.shape, clamped(data, scenario.sta_m.x, scenario.sta_m.y))
        d_jm = np.full(x.shape, clamped(idle, scenario.sta_m.x, scenario.sta_m.y))
        d_ie, d_je = clamped(data, x, y), clamped(idle, x, y)
        p_i = np.full(x.shape, distance_corrected_power(data.tx_power, par))
        p_max = np.full(x.shape, distance_corrected_power(idle.tx_power_max, par))
        p = optimize_fj_power_array(d_im, d_ie, d_jm, d_je, a, par.noise_m, par.noise_e, p_i, p_max)
        cap_m = np.log2(1.0 + p_i * d_im ** -a / (p * d_jm ** -a + par.noise_m))
        cap_e = np.log2(1.0 + p_i * d_ie ** -a / (p * d_je ** -a + par.noise_e))
        best = np.maximum(best, cap_m - cap_e)
    return best


def seeded_unequal_scenario(seed):
    """Random geometry and alpha, with per-AP tx powers (1 mW to 1 W) and
    caps (up to 31.6x tx), and noise_e from 1e-12 to 1e-8 W."""
    rng = np.random.default_rng(seed)
    params = ChannelParams(
        pathloss_alpha=float(rng.uniform(2.0, 4.0)), noise_e=float(10 ** rng.uniform(-12.0, -8.0))
    )
    ap1, ap2, sta_m = (Point2D(*rng.uniform(0.0, 120.0, 2)) for _ in range(3))
    tx1, tx2 = 10 ** rng.uniform(-3.0, 0.0, 2)
    cap1, cap2 = 10 ** rng.uniform(0.0, 1.5, 2)
    return Scenario(
        ApConfig(ap1, float(tx1), float(tx1 * cap1)),
        ApConfig(ap2, float(tx2), float(tx2 * cap2)),
        sta_m,
        params,
        120.0,
    )


@pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3"])
def test_smart_fj_equals_the_joint_choice_on_bundled_scenarios(name):
    # smart_fj selects the AP without jamming, then lets the other AP jam;
    # on the bundled scenarios no cell gains from serving by the other AP
    loaded = load_scenario(bundled_scenario_path(name))
    summary = sweep_eavesdropper(loaded.scenario, loaded.sweep, retain_cells=False)
    sequential = summary.arrays.secrecy / loaded.scenario.params.bandwidth_w
    assert np.max(np.abs(joint_fj_secrecy(loaded.scenario, loaded.sweep) - sequential)) <= 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_smart_fj_never_beats_the_joint_choice(seed):
    scenario = seeded_unequal_scenario(seed)
    cfg = SweepConfig(grid_k=60, cell_step=2.0)
    sequential = sweep_eavesdropper(scenario, cfg, retain_cells=False).arrays.secrecy
    gap = joint_fj_secrecy(scenario, cfg) - sequential
    assert np.min(gap) >= -1e-9
    if seed == 0:
        # with unequal tx powers, caps and noises, select-then-jam is not the
        # joint optimum: serving by the other AP, plus its jammer, does better
        assert np.max(gap) > 0.01


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
    # distinct noises and a non-integer exponent; 9 samples in one chunk per worker
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


def test_monte_carlo_starts_no_more_workers_than_samples(recording_pool, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    scenario = build_scenario((20.0, 100.0))
    cfg = small_cfg(k=5, step=24.0)
    capped = monte_carlo(scenario, cfg, n=3, seed=4, workers=64)
    assert recording_pool == [3]
    assert capped == monte_carlo(scenario, cfg, n=3, seed=4, workers=1)
    # one sample needs no pool at all
    monte_carlo(scenario, cfg, n=1, seed=4, workers=64)
    assert recording_pool == [3]


@pytest.mark.parametrize("n, workers", [(9, 2), (7, 3), (3, 64)])
def test_monte_carlo_gives_each_worker_one_contiguous_chunk(n, workers, recording_pool, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    scenario = build_scenario((20.0, 100.0))
    cfg = small_cfg(k=3, step=40.0)
    pooled = monte_carlo(scenario, cfg, n=n, seed=4, workers=workers)
    assert recording_pool == [min(workers, n)]
    ranges = recording_pool.ranges
    assert len(ranges) == min(workers, n)
    # contiguous, nonempty and in order, so together exactly range(n)
    assert all(r.step == 1 and len(r) > 0 for r in ranges)
    assert [i for r in ranges for i in r] == list(range(n))
    assert pooled == monte_carlo(scenario, cfg, n=n, seed=4, workers=1)


@pytest.fixture
def optimizer_calls(monkeypatch):
    """Count the grid engine's calls of the array jamming optimizer."""
    calls = []

    def counted(*args):
        calls.append(args)
        return optimize_fj_power_array(*args)

    monkeypatch.setattr(sweep_module, "optimize_fj_power_array", counted)
    return calls


@pytest.mark.parametrize(
    "policy, expected",
    [(PolicyKind.NORMAL_WIFI, 0), (PolicyKind.SMART_AP, 0), (PolicyKind.SMART_AP_FJ, 1)],
    ids=lambda value: getattr(value, "value", None),
)
def test_sweep_runs_the_jamming_optimizer_only_for_smart_fj(policy, expected, optimizer_calls):
    # the grid engine yields normal, smart, smart_fj in turn and a sweep stops at its policy
    summary = sweep_eavesdropper(build_scenario(), small_cfg(policy), retain_cells=False)
    assert len(optimizer_calls) == expected
    assert summary.arrays.chosen.size == 25 * 25


def test_monte_carlo_runs_the_jamming_optimizer_once_per_sample(optimizer_calls):
    mc = monte_carlo(build_scenario(), small_cfg(k=5, step=24.0), n=3, seed=5, workers=1)
    assert len(optimizer_calls) == 3
    assert set(mc.samples[0].metrics) == set(ALL_POLICIES)


@pytest.mark.parametrize("cpus, started", [(2, [2]), (None, [])], ids=["two-cpus", "unknown"])
def test_monte_carlo_starts_no_more_workers_than_cpus(cpus, started, recording_pool, monkeypatch):
    # a pool starts all its workers up front, so 5,000 asked for would be 5,000 processes
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    scenario = build_scenario((20.0, 100.0))
    cfg = small_cfg(k=3, step=40.0)
    capped = monte_carlo(scenario, cfg, n=20, seed=4, workers=5000)
    assert recording_pool == started
    assert capped == monte_carlo(scenario, cfg, n=20, seed=4, workers=1)


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


@pytest.mark.parametrize("workers", [0, -1])
def test_monte_carlo_refuses_a_worker_count_below_one(workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        monte_carlo(build_scenario((20.0, 100.0)), small_cfg(), n=2, seed=1, workers=workers)


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
