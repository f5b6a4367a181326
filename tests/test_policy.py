import numpy as np
import pytest

import secrecysim.policy as policy_module
from secrecysim import (
    Point2D,
    PolicyKind,
    bundled_scenario_path,
    distance,
    distance_corrected_power,
    effective_distance,
    load_scenario,
    select,
    select_max_secrecy,
    select_max_sinr,
    select_with_fj,
    shannon_capacity,
)

from conftest import build_scenario


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
        cap_m = shannon_capacity(p * d_m ** -par.pathloss_alpha, 0.0, par.noise_m, par.bandwidth_w)
        cap_e = shannon_capacity(p * d_e ** -par.pathloss_alpha, 0.0, par.noise_e, par.bandwidth_w)
        diffs.append(cap_m - cap_e)
    return (1 if diffs[0] >= diffs[1] else 2), diffs


def test_max_sinr_picks_nearest_ap_scenario1():
    scenario = build_scenario(sta_m=(20.0, 100.0))
    assert select_max_sinr(scenario, Point2D(90.0, 90.0)).chosen_ap == 1


def test_max_sinr_picks_nearest_ap_scenario2():
    scenario = build_scenario(sta_m=(80.0, 20.0))
    assert select_max_sinr(scenario, Point2D(10.0, 10.0)).chosen_ap == 2


def test_max_sinr_tie_breaks_to_ap1():
    scenario = build_scenario(sta_m=(60.0, 90.0))  # equidistant from both APs
    result = select_max_sinr(scenario, Point2D(3.0, 4.0))
    assert result.chosen_ap == 1
    assert result.fj_power == 0.0


def test_max_sinr_choice_ignores_eavesdropper():
    scenario = build_scenario(sta_m=(20.0, 100.0))
    rng = np.random.default_rng(0)
    for _ in range(20):
        sta_e = Point2D(*rng.uniform(0.0, 120.0, 2))
        assert select_max_sinr(scenario, sta_e).chosen_ap == 1


def test_max_secrecy_obvious_geometry():
    # station near AP1, eavesdropper near AP2: both terms favor AP1
    scenario = build_scenario(sta_m=(40.0, 50.0))
    result = select_max_secrecy(scenario, Point2D(80.0, 50.0))
    assert result.chosen_ap == 1
    assert result.secrecy > 0.0


def test_max_secrecy_coincident_stations_tie():
    scenario = build_scenario(sta_m=(33.0, 47.0))
    result = select_max_secrecy(scenario, Point2D(33.0, 47.0))
    assert result.chosen_ap == 1
    assert result.secrecy == 0.0
    assert result.cap_legit == result.cap_eve


def test_max_secrecy_matches_brute_force_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(200):
        scenario = random_scenario(rng)
        sta_e = Point2D(*rng.uniform(0.0, 120.0, 2))
        expected_choice, diffs = brute_force_secrecy_choice(scenario, sta_e)
        result = select_max_secrecy(scenario, sta_e)
        assert result.chosen_ap == expected_choice
        assert result.secrecy == pytest.approx(max(diffs), rel=1e-12, abs=1e-15)


def test_fj_never_below_plain_selection():
    rng = np.random.default_rng(43)
    for _ in range(200):
        scenario = random_scenario(rng)
        sta_e = Point2D(*rng.uniform(0.0, 120.0, 2))
        plain = select_max_secrecy(scenario, sta_e)
        jammed = select_with_fj(scenario, sta_e)
        assert jammed.chosen_ap == plain.chosen_ap
        assert jammed.secrecy >= plain.secrecy


def test_fj_zero_on_far_map_edge():
    scenario = build_scenario(sta_m=(20.0, 100.0))
    for corner in [(1.0, 1.0), (120.0, 1.0), (120.0, 120.0), (1.0, 120.0)]:
        result = select_with_fj(scenario, Point2D(*corner))
        assert result.fj_power == 0.0


def test_fj_active_in_the_interior():
    scenario = build_scenario(sta_m=(20.0, 100.0))
    result = select_with_fj(scenario, Point2D(60.0, 60.0))
    assert result.fj_power > 0.0
    assert result.secrecy > select_max_secrecy(scenario, Point2D(60.0, 60.0)).secrecy


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
            result = select_with_fj(scenario, sta_e)
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
        result = select_with_fj(scenario, sta_e)
        idle = scenario.ap1 if result.idle_ap == 1 else scenario.ap2
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
        smart = select_max_secrecy(scenario, sta_e)
        jammed = select_with_fj(scenario, sta_e)
        if smart.chosen_ap == jammed.chosen_ap:
            assert jammed.cap_eve <= smart.cap_eve


def test_selection_is_deterministic():
    scenario = build_scenario(sta_m=(20.0, 100.0))
    sta_e = Point2D(77.3, 12.9)
    for policy in PolicyKind:
        assert select(scenario, sta_e, policy) == select(scenario, sta_e, policy)


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
    narrow_result = select_with_fj(scenario, sta_e)
    wide_result = select_with_fj(wide, sta_e)
    assert wide_result.cap_legit == pytest.approx(20e6 * narrow_result.cap_legit, rel=1e-12)
    assert wide_result.cap_eve == pytest.approx(20e6 * narrow_result.cap_eve, rel=1e-12)


def test_scenario_validation():
    with pytest.raises(ValueError, match="must not share"):
        build_scenario(ap1=(10.0, 10.0), ap2=(10.0, 10.0))
    with pytest.raises(ValueError, match="map_extent"):
        build_scenario(extent=0.0)


def test_secrecy_can_be_negative_before_truncation():
    # eavesdropper right next to the serving AP: no policy can rescue this cell
    scenario = build_scenario(sta_m=(20.0, 100.0))
    result = select_max_sinr(scenario, Point2D(40.0, 60.0))
    assert result.secrecy < 0.0


def test_idle_ap_is_the_other_one():
    scenario = build_scenario(sta_m=(20.0, 100.0))
    result = select_with_fj(scenario, Point2D(90.0, 30.0))
    assert {result.chosen_ap, result.idle_ap} == {1, 2}


LAYER_NAMES = ("distance", "effective_distance", "distance_corrected_power", "shannon_capacity", "optimize_fj_power")


@pytest.mark.parametrize(
    "policy, point, counts, jamming",
    [
        (PolicyKind.NORMAL_WIFI, (60.0, 60.0), [4, 4, 2, 2, 0], False),
        (PolicyKind.SMART_AP, (60.0, 60.0), [4, 4, 2, 4, 0], False),
        (PolicyKind.SMART_AP_FJ, (60.0, 60.0), [4, 4, 3, 6, 1], True),
        (PolicyKind.SMART_AP_FJ, (1.0, 1.0), [4, 4, 3, 4, 1], False),
    ],
    ids=["normal", "smart", "smart_fj-jamming", "smart_fj-no-jamming"],
)
def test_select_calls_layer_names_through_the_module(policy, point, counts, jamming, monkeypatch):
    # the benchmark's tracer swaps these attributes of secrecysim.policy, so
    # select must look each one up there, as often as its rules need it
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
