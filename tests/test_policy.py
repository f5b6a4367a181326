import math
import pickle
import sys
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import secrecysim.policy as policy_module
from secrecysim import (
    ApConfig,
    ChannelParams,
    Point2D,
    PolicyKind,
    Scenario,
    SelectionResult,
    bundled_scenario_path,
    distance,
    distance_corrected_power,
    effective_distance,
    load_scenario,
    SweepConfig,
    monte_carlo,
    select,
    shannon_capacity,
    sweep_eavesdropper,
)
from secrecysim.fjopt import optimize_fj_power

from conftest import build_scenario, hexed, load_document, loadable_documents


def random_scenario(rng):
    return build_scenario(
        sta_m=tuple(rng.uniform(0.0, 120.0, 2)),
        ap1=tuple(rng.uniform(0.0, 120.0, 2)),
        ap2=tuple(rng.uniform(0.0, 120.0, 2)),
        alpha=float(rng.choice([2.0, 3.0])),
    )


def brute_force_secrecy_choice(scenario, sta_e):
    """Two-candidate enumeration written directly from the capacity formulas."""
    par = scenario.params
    diffs = []
    for ap in (scenario.ap1, scenario.ap2):
        p = distance_corrected_power(ap.tx_power, par)
        d_m = effective_distance(distance(ap.position, scenario.sta_m), par)
        d_e = effective_distance(distance(ap.position, sta_e), par)
        w = par.bandwidth_w
        cap_m = w * shannon_capacity(p * d_m ** -par.pathloss_alpha, 0.0, par.noise_m)
        cap_e = w * shannon_capacity(p * d_e ** -par.pathloss_alpha, 0.0, par.noise_e)
        diffs.append(cap_m - cap_e)
    return (1 if diffs[0] >= diffs[1] else 2), diffs


def test_max_sinr_picks_nearest_ap_scenario1():
    scenario = build_scenario(sta_m=(20.0, 100.0))
    assert select(scenario, Point2D(90.0, 90.0), PolicyKind.NORMAL_WIFI).chosen_ap == 1


def test_max_sinr_picks_nearest_ap_scenario2():
    scenario = build_scenario(sta_m=(80.0, 20.0))
    assert select(scenario, Point2D(10.0, 10.0), PolicyKind.NORMAL_WIFI).chosen_ap == 2


def test_max_sinr_tie_breaks_to_ap1():
    scenario = build_scenario(sta_m=(60.0, 90.0))  # equidistant from both APs
    result = select(scenario, Point2D(3.0, 4.0), PolicyKind.NORMAL_WIFI)
    assert result.chosen_ap == 1
    assert result.fj_power == 0.0


def test_max_sinr_choice_ignores_eavesdropper():
    scenario = build_scenario(sta_m=(20.0, 100.0))
    rng = np.random.default_rng(0)
    for _ in range(20):
        sta_e = Point2D(*rng.uniform(0.0, 120.0, 2))
        assert select(scenario, sta_e, PolicyKind.NORMAL_WIFI).chosen_ap == 1


def test_max_secrecy_obvious_geometry():
    # station near AP1, eavesdropper near AP2: both terms favor AP1
    scenario = build_scenario(sta_m=(40.0, 50.0))
    result = select(scenario, Point2D(80.0, 50.0), PolicyKind.SMART_AP)
    assert result.chosen_ap == 1
    assert result.secrecy > 0.0


def test_max_secrecy_coincident_stations_tie():
    scenario = build_scenario(sta_m=(33.0, 47.0))
    result = select(scenario, Point2D(33.0, 47.0), PolicyKind.SMART_AP)
    assert result.chosen_ap == 1
    assert result.secrecy == 0.0
    assert result.cap_legit == result.cap_eve


def test_max_secrecy_matches_brute_force_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(200):
        scenario = random_scenario(rng)
        sta_e = Point2D(*rng.uniform(0.0, 120.0, 2))
        expected_choice, diffs = brute_force_secrecy_choice(scenario, sta_e)
        result = select(scenario, sta_e, PolicyKind.SMART_AP)
        assert result.chosen_ap == expected_choice
        assert result.secrecy == pytest.approx(max(diffs), rel=1e-12, abs=1e-15)


def test_fj_never_below_plain_selection():
    rng = np.random.default_rng(43)
    for _ in range(200):
        scenario = random_scenario(rng)
        sta_e = Point2D(*rng.uniform(0.0, 120.0, 2))
        plain = select(scenario, sta_e, PolicyKind.SMART_AP)
        jammed = select(scenario, sta_e, PolicyKind.SMART_AP_FJ)
        assert jammed.chosen_ap == plain.chosen_ap
        assert jammed.secrecy >= plain.secrecy


def test_fj_zero_on_far_map_edge():
    scenario = build_scenario(sta_m=(20.0, 100.0))
    for corner in [(1.0, 1.0), (120.0, 1.0), (120.0, 120.0), (1.0, 120.0)]:
        result = select(scenario, Point2D(*corner), PolicyKind.SMART_AP_FJ)
        assert result.fj_power == 0.0


def test_fj_active_in_the_interior():
    scenario = build_scenario(sta_m=(20.0, 100.0))
    result = select(scenario, Point2D(60.0, 60.0), PolicyKind.SMART_AP_FJ)
    assert result.fj_power > 0.0
    assert result.secrecy > select(scenario, Point2D(60.0, 60.0), PolicyKind.SMART_AP).secrecy


@pytest.mark.parametrize("noise_ratio", [0.1, 10.0])
def test_fj_optimal_with_distinct_receiver_noises(noise_ratio):
    # two-capacity oracle on a 20,001-point grid over the idle AP's power,
    # at 18 x 18 eavesdropper cells, with noise_e != noise_m
    scenario = build_scenario(sta_m=(20.0, 100.0), noise_e=noise_ratio * 1e-10)
    par = scenario.params
    a = par.pathloss_alpha
    for y in range(1, 120, 7):
        for x in range(1, 120, 7):
            sta_e = Point2D(float(x), float(y))
            result = select(scenario, sta_e, PolicyKind.SMART_AP_FJ)
            data, idle = scenario.ap1, scenario.ap2
            if result.chosen_ap == 2:
                data, idle = idle, data
            p_i = distance_corrected_power(data.tx_power, par)
            powers = np.linspace(0.0, distance_corrected_power(idle.tx_power_max, par), 20001)
            gains = []
            for sta, noise in ((scenario.sta_m, par.noise_m), (sta_e, par.noise_e)):
                d_i = effective_distance(distance(data.position, sta), par)
                d_j = effective_distance(distance(idle.position, sta), par)
                gains.append(np.log2(1.0 + p_i * d_i ** -a / (powers * d_j ** -a + noise)))
            best = par.bandwidth_w * float(np.max(gains[0] - gains[1]))
            assert best <= result.secrecy + 1e-9 * par.bandwidth_w, (x, y)


def test_fj_power_respects_idle_cap():
    rng = np.random.default_rng(44)
    for _ in range(100):
        scenario = random_scenario(rng)
        sta_e = Point2D(*rng.uniform(0.0, 120.0, 2))
        result = select(scenario, sta_e, PolicyKind.SMART_AP_FJ)
        idle = scenario.ap2 if result.chosen_ap == 1 else scenario.ap1
        cap = distance_corrected_power(idle.tx_power_max, scenario.params)
        assert 0.0 <= result.fj_power <= cap


def test_dominance_chain_per_cell():
    rng = np.random.default_rng(45)
    for _ in range(200):
        scenario = random_scenario(rng)
        sta_e = Point2D(*rng.uniform(0.0, 120.0, 2))
        normal = select(scenario, sta_e, PolicyKind.NORMAL_WIFI)
        smart = select(scenario, sta_e, PolicyKind.SMART_AP)
        jammed = select(scenario, sta_e, PolicyKind.SMART_AP_FJ)
        assert smart.secrecy >= normal.secrecy
        assert jammed.secrecy >= smart.secrecy


def test_eavesdropper_suppression_same_ap():
    rng = np.random.default_rng(46)
    for _ in range(200):
        scenario = random_scenario(rng)
        sta_e = Point2D(*rng.uniform(0.0, 120.0, 2))
        smart = select(scenario, sta_e, PolicyKind.SMART_AP)
        jammed = select(scenario, sta_e, PolicyKind.SMART_AP_FJ)
        if smart.chosen_ap == jammed.chosen_ap:
            assert jammed.cap_eve <= smart.cap_eve


def test_selection_is_deterministic():
    scenario = build_scenario(sta_m=(20.0, 100.0))
    sta_e = Point2D(77.3, 12.9)
    for policy in PolicyKind:
        assert select(scenario, sta_e, policy) == select(scenario, sta_e, policy)


@pytest.mark.parametrize("policy", ["normal", "smart", "smart_fj", None, 1])
def test_a_policy_that_is_not_a_policy_kind_is_refused(policy):
    # a value or name of a PolicyKind is not one: select would run it as smart, and a sweep would fail in the engine
    with pytest.raises(ValueError, match="^policy must be a PolicyKind, got "):
        select(build_scenario(sta_m=(20.0, 100.0)), Point2D(77.3, 12.9), policy)
    with pytest.raises(ValueError, match="^policy must be a PolicyKind, got "):
        SweepConfig(policy=policy)


def test_bandwidth_changes_no_choice_and_no_fj_power():
    rng = np.random.default_rng(47)
    for _ in range(50):
        base = random_scenario(rng)
        sta_e = Point2D(*rng.uniform(0.0, 120.0, 2))
        for policy in PolicyKind:
            reference = select(base, sta_e, policy)
            for w in (0.25, 1.0, 20e6):
                scaled = build_scenario(
                    sta_m=(base.sta_m.x, base.sta_m.y),
                    ap1=(base.ap1.position.x, base.ap1.position.y),
                    ap2=(base.ap2.position.x, base.ap2.position.y),
                    alpha=base.params.pathloss_alpha,
                    bandwidth=w,
                )
                result = select(scaled, sta_e, policy)
                assert result.chosen_ap == reference.chosen_ap
                assert result.fj_power == reference.fj_power
                assert result.secrecy == pytest.approx(
                    w * reference.secrecy, rel=1e-12, abs=1e-15
                )


def test_capacities_scale_linearly_with_bandwidth():
    scenario = build_scenario(sta_m=(20.0, 100.0), bandwidth=1.0)
    wide = build_scenario(sta_m=(20.0, 100.0), bandwidth=20e6)
    sta_e = Point2D(64.0, 31.0)
    narrow_result = select(scenario, sta_e, PolicyKind.SMART_AP_FJ)
    wide_result = select(wide, sta_e, PolicyKind.SMART_AP_FJ)
    assert wide_result.cap_legit == pytest.approx(20e6 * narrow_result.cap_legit, rel=1e-12)
    assert wide_result.cap_eve == pytest.approx(20e6 * narrow_result.cap_eve, rel=1e-12)


def test_scenario_validation():
    with pytest.raises(ValueError, match="must not share"):
        build_scenario(ap1=(10.0, 10.0), ap2=(10.0, 10.0))
    with pytest.raises(ValueError, match="map_extent"):
        build_scenario(extent=0.0)
    for extent in (math.inf, math.nan):
        with pytest.raises(ValueError, match="map_extent must be a finite number > 0"):
            build_scenario(extent=extent)


# each real parameter, as a build_scenario argument or "cell_step", by the file key or name its refusal gives;
# a map too large for the closed form is refused "on this map"
REAL_PARAMETERS = {
    "bandwidth": "bandwidth_hz", "f0": "center_freq_hz", "d0": "ref_distance_m", "alpha": "alpha",
    "noise_m": "noise_m_watt", "noise_e": "noise_e_watt", "tx": "tx_power_watt", "tx_max": "tx_power_max_watt",
    "extent": "map", "cell_step": "cell_step",
}
BAD_REALS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
    st.floats(max_value=-5e-324, allow_infinity=False),
    st.floats(min_value=5e-324, max_value=sys.float_info.min, exclude_max=True),
    st.floats(min_value=1e100, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(REAL_PARAMETERS)), BAD_REALS)
@example("alpha", math.nan)
@example("noise_e", math.nan)
def test_a_real_parameter_is_refused_by_its_key_or_selects_finite_floats(name, value):
    # the other parameters stay valid; nan once passed the x <= 0 and x < 1 tests
    scenario = build_scenario()
    try:
        if name == "cell_step":
            SweepConfig(cell_step=value)
        else:
            scenario = build_scenario(**{name: value})
    except ValueError as exc:
        assert REAL_PARAMETERS[name] in str(exc)
        return
    for policy in PolicyKind:
        assert all(math.isfinite(v) for v in vars(select(scenario, Point2D(64.0, 31.0), policy)).values())


def test_scenario_built_in_code_is_refused_like_a_file():
    # scenario1 at alpha 30 overflows the jamming closed form on its 120 m map;
    # the refusal belongs to Scenario, so no file is needed to meet it
    scenario = load_scenario(bundled_scenario_path("scenario1")).scenario
    with pytest.raises(ValueError, match="channel.alpha"):
        replace(scenario, params=replace(scenario.params, pathloss_alpha=30.0))
    # and a map that is larger by half moves the largest accepted alpha down
    for alpha, extent in ((16.86, 120.0), (14.0, 180.0)):
        replace(scenario, params=replace(scenario.params, pathloss_alpha=alpha), map_extent=extent)
    with pytest.raises(ValueError, match="channel.alpha"):
        replace(scenario, params=replace(scenario.params, pathloss_alpha=16.86), map_extent=180.0)


@pytest.mark.parametrize(
    "channel, key",
    [
        (dict(center_freq_f0=1e-200), "channel.center_freq_hz"),  # gain**2 overflows
        (dict(center_freq_f0=1e300), "channel.center_freq_hz"),  # gain**2 underflows to 0
        (dict(pathloss_alpha=400.0, ref_distance_d0=10.0), "alpha"),  # d0**alpha raises OverflowError
        (dict(noise_e=1e-320), "noise_e_watt"),  # the SINR at d0 overflows
        # d0**alpha is subnormal, so the power is finite, but the SINR, divided by it, overflows
        (dict(pathloss_alpha=1030.0, ref_distance_d0=0.5, center_freq_f0=5e-144), "largest SINR"),
        # each factor is finite, the power 9.0e78 and d0**-alpha 316, and only the product overflows: divided
        # instead, or times the noise, it is finite, and the map's closed form is in range
        (
            dict(center_freq_f0=1e-33, ref_distance_d0=0.1, pathloss_alpha=2.5, noise_m=1e-45, noise_e=1e-228),
            "largest SINR",
        ),
        # the capacities of 14,400 cells summed past the float range; at the largest float each overflowed
        (dict(bandwidth_w=1e305), "channel.bandwidth_hz times the largest capacity"),
        (dict(bandwidth_w=sys.float_info.max), "channel.bandwidth_hz times the largest capacity"),
    ],
    ids=[
        "f0-tiny", "f0-huge", "alpha-400-d0-10", "subnormal-noise-e", "d0-to-minus-alpha", "product-overflows",
        "bandwidth-sums-overflow", "bandwidth-overflows",
    ],
)
def test_scenario_refuses_powers_and_sinr_that_are_not_finite(channel, key):
    ap = dict(tx_power=0.05, tx_power_max=0.05)
    with pytest.raises(ValueError, match=key):
        Scenario(
            ap1=ApConfig(Point2D(40.0, 60.0), **ap),
            ap2=ApConfig(Point2D(80.0, 60.0), **ap),
            sta_m=Point2D(20.0, 100.0),
            params=ChannelParams(**channel),
            map_extent=120.0,
        )


def test_a_bandwidth_just_below_its_bound_sweeps_to_finite_means():
    # scenario1's largest capacity is about 15.6 bit/s/Hz, so its bound is about 2**956 Hz
    summary = sweep_eavesdropper(build_scenario(bandwidth=2.0**955), SweepConfig(), retain_cells=False)
    assert math.isfinite(summary.avg_eve_capacity) and summary.avg_eve_capacity > 2.0**955


def test_scenario_refuses_positions_whose_distance_squares_overflow():
    # the station's distance squared its coordinate differences before the map's reach was checked
    with pytest.raises(ValueError, match="overflow the jamming power's closed form"):
        build_scenario(ap2=(sys.float_info.max, 60.0))


def test_secrecy_can_be_negative_before_truncation():
    # eavesdropper right next to the serving AP: no policy can rescue this cell
    scenario = build_scenario(sta_m=(20.0, 100.0))
    result = select(scenario, Point2D(40.0, 60.0), PolicyKind.NORMAL_WIFI)
    assert result.secrecy < 0.0


EAVESDROPPERS = [Point2D(60.0, 60.0), Point2D(1.0, 1.0), Point2D(40.0, 60.0), Point2D(110.0, 20.0), Point2D(30.0, 90.0)]


def selections(scenario):
    """Every policy's selection at each of the ``EAVESDROPPERS``, each float as ``float.hex``."""
    return hexed([select(scenario, sta_e, policy) for sta_e in EAVESDROPPERS for policy in PolicyKind])


def test_stored_station_terms_follow_the_station():
    # the Scenario holds its station's terms; replace() must recompute them,
    # so a moved Scenario selects as one built at the new station
    base = load_scenario(bundled_scenario_path("scenario1")).scenario
    for q in (Point2D(5.0, 7.0), base.ap2.position, Point2D(60.0, 60.0), Point2D(119.0, 3.0), Point2D(60.5, 20.0)):
        moved = replace(base, sta_m=q)
        fresh = Scenario(base.ap1, base.ap2, q, base.params, base.map_extent)
        assert selections(moved) == selections(fresh)
        assert selections(moved) != selections(base)


def test_pickled_scenario_selects_and_samples_alike():
    # the process pool pickles the Scenario with its stored terms
    scenario = load_scenario(bundled_scenario_path("scenario1")).scenario
    copy = pickle.loads(pickle.dumps(scenario))
    assert selections(copy) == selections(scenario)
    cfg = SweepConfig(grid_k=12, cell_origin=Point2D(10.0, 10.0), cell_step=10.0)
    pooled = monte_carlo(copy, cfg, n=4, seed=3, workers=2).means
    alone = monte_carlo(scenario, cfg, n=4, seed=3, workers=1).means
    for policy in PolicyKind:
        assert hexed(pooled[policy]) == hexed(alone[policy])


def test_stored_station_terms_are_not_fields():
    base = load_scenario(bundled_scenario_path("scenario1")).scenario
    assert [f.name for f in fields(Scenario)] == ["ap1", "ap2", "sta_m", "params", "map_extent"]
    twin = Scenario(base.ap1, base.ap2, base.sta_m, base.params, base.map_extent)
    assert twin == base and hash(twin) == hash(base)
    assert hash(base) == hash((base.ap1, base.ap2, base.sta_m, base.params, base.map_extent))
    moved = replace(base, sta_m=Point2D(5.0, 7.0))
    assert moved != base and replace(moved, sta_m=base.sta_m) == base
    assert repr(twin) == repr(base) and "_station" not in repr(base)


LAYER_NAMES = ("distance", "effective_distance", "distance_corrected_power", "shannon_capacity", "optimize_fj_power")


@pytest.mark.parametrize(
    "policy, point, counts, jamming",
    [
        (PolicyKind.NORMAL_WIFI, (60.0, 60.0), [1, 1, 0, 1, 0], False),
        (PolicyKind.SMART_AP, (60.0, 60.0), [2, 2, 0, 2, 0], False),
        (PolicyKind.SMART_AP_FJ, (60.0, 60.0), [2, 2, 0, 4, 1], True),
        (PolicyKind.SMART_AP_FJ, (1.0, 1.0), [2, 2, 0, 2, 1], False),
    ],
    ids=["normal", "smart", "smart_fj-jamming", "smart_fj-no-jamming"],
)
def test_select_calls_layer_names_through_the_module(policy, point, counts, jamming, monkeypatch):
    # the benchmark's tracer swaps these attributes of secrecysim.policy, so
    # select must look each one up there, as often as its rules need it: only
    # the eavesdropper side, as the Scenario holds the station's terms
    calls = dict.fromkeys(LAYER_NAMES, 0)
    for name in LAYER_NAMES:
        def counted(*args, _name=name, _original=getattr(policy_module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(policy_module, name, counted)
    scenario = load_scenario(bundled_scenario_path("scenario1")).scenario
    result = select(scenario, Point2D(*point), policy)
    assert [calls[name] for name in LAYER_NAMES] == counts
    assert (result.fj_power > 0.0) == jamming


def lattice(scenario):
    """The golden files' points: a 10 m lattice over 0..120 m, both APs and the station."""
    points = [Point2D(10.0 * i, 10.0 * j) for j in range(13) for i in range(13)]
    return points + [scenario.ap1.position, scenario.ap2.position, scenario.sta_m]


# per bundled scenario and policy, over its 172 lattice points: the calls of distance,
# effective_distance, shannon_capacity and optimize_fj_power, then the jamming points
PLAIN_CALLS = {"normal": ([172, 172, 172, 0], 0), "smart": ([344, 344, 344, 0], 0)}
TRACED_CALLS = {
    "scenario1": {**PLAIN_CALLS, "smart_fj": ([344, 344, 630, 172], 143)},
    "scenario2": {**PLAIN_CALLS, "smart_fj": ([344, 344, 560, 172], 108)},
    "scenario3": {**PLAIN_CALLS, "smart_fj": ([344, 344, 438, 172], 47)},
}


@pytest.mark.parametrize("name", sorted(TRACED_CALLS))
def test_traced_layers_see_a_pinned_number_of_calls(name, monkeypatch):
    # the benchmark's channel.calls and fjopt.optimize_fj_power_calls count calls through
    # these names of secrecysim.policy: inlining a layer into select would hide its calls
    traced = ("distance", "effective_distance", "shannon_capacity", "optimize_fj_power")
    calls = dict.fromkeys(traced, 0)
    for layer in traced:
        def counted(*args, _layer=layer, _original=getattr(policy_module, layer)):
            calls[_layer] += 1
            return _original(*args)

        monkeypatch.setattr(policy_module, layer, counted)
    scenario = load_scenario(bundled_scenario_path(name)).scenario
    for policy in PolicyKind:
        calls.update(dict.fromkeys(traced, 0))
        jamming = sum(select(scenario, q, policy).fj_power > 0.0 for q in lattice(scenario))
        assert ([calls[layer] for layer in traced], jamming) == TRACED_CALLS[name][policy.value]


@pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3"])
def test_select_results_cannot_be_told_from_constructed_ones(name):
    # select builds its results without SelectionResult's __init__; nothing a caller
    # can do with one may tell it from the constructor's
    scenario = load_scenario(bundled_scenario_path(name)).scenario
    names = [f.name for f in fields(SelectionResult)]
    assert names == ["chosen_ap", "cap_legit", "cap_eve", "secrecy", "fj_power"]
    for policy in PolicyKind:
        for q in lattice(scenario):
            got = select(scenario, q, policy)
            built = SelectionResult(*(getattr(got, field) for field in names))
            assert type(got) is SelectionResult and got == built and hash(got) == hash(built)
            assert repr(got) == repr(built) and list(vars(got)) == list(vars(built)) == names
            assert [type(v) for v in vars(got).values()] == [int, float, float, float, float]
            assert replace(got, secrecy=0.0) == replace(built, secrecy=0.0)
            copy = pickle.loads(pickle.dumps(got))
            assert copy == built and list(vars(copy)) == names
    with pytest.raises(FrozenInstanceError):
        got.chosen_ap = 1
    with pytest.raises(FrozenInstanceError):
        del got.fj_power
    with pytest.raises(ValueError, match="chosen_ap"):
        SelectionResult(3, 1.0, 0.5, 0.5, 0.0)
    for fj_power in (-1.0, math.nan):
        with pytest.raises(ValueError, match="fj_power"):
            SelectionResult(1, 1.0, 0.5, 0.5, fj_power)
    with pytest.raises(ValueError, match="fj_power"):
        replace(got, fj_power=-1.0)


def test_retained_cells_hold_results_like_constructed_ones():
    # the grid engine's cells come from the same helper as select's results
    scenario = load_scenario(bundled_scenario_path("scenario1")).scenario
    cfg = SweepConfig(grid_k=12, cell_origin=Point2D(5.0, 5.0), cell_step=10.0)
    for policy in PolicyKind:
        summary = sweep_eavesdropper(scenario, replace(cfg, policy=policy))
        assert len(summary.grid) == 144
        for cell in summary.grid:
            got = cell.selection
            built = SelectionResult(*vars(got).values())
            assert got == built and hash(got) == hash(built) and repr(got) == repr(built)
            assert [type(v) for v in vars(got).values()] == [int, float, float, float, float]
            assert pickle.loads(pickle.dumps(cell)) == cell


@settings(max_examples=200, deadline=None)
@given(loadable_documents())
def test_select_passes_the_optimizer_only_valid_values(drawn):
    # what the optimizer no longer checks per call must hold at its one
    # scalar call site for every scenario the loader accepts
    doc, sta_e = drawn
    loaded = load_document(doc)
    assert loaded is not None, doc
    scenario = loaded.scenario
    calls = []

    def recorder(*args):
        calls.append(args)
        return optimize_fj_power(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(policy_module, "optimize_fj_power", recorder)
        result = select(scenario, sta_e, PolicyKind.SMART_AP_FJ)
    (args,) = calls
    d_im, d_ie, d_jm, d_je, alpha, noise_m, noise_e, p_i, p_max = args
    par = scenario.params
    idle = scenario.ap2 if result.chosen_ap == 1 else scenario.ap1
    assert all(math.isfinite(value) for value in args), args
    assert min(d_im, d_ie, d_jm, d_je) >= par.ref_distance_d0 > 0.0
    assert alpha == par.pathloss_alpha >= 1.0
    assert noise_m > 0.0 and noise_e > 0.0
    assert p_i > 0.0
    # each AP's cap is at least its own tx power; the data AP's p_i may be larger
    assert p_max >= distance_corrected_power(idle.tx_power, par) > 0.0
    assert math.isfinite(result.secrecy) and 0.0 <= result.fj_power <= p_max
