import math

import pytest
from hypothesis import given, strategies as st

from secrecysim import (
    SPEED_OF_LIGHT,
    ApConfig,
    ChannelParams,
    Point2D,
    distance,
    distance_corrected_power,
    effective_distance,
    shannon_capacity,
    transmit_power_from_corrected,
)

# Frozen from hand-evaluating 0.05 * (2.998e8 / (4*pi*2.4e9*1))**2 * 1**2.
LINK_BUDGET_50MW = 4.94072918761972e-06
# Frozen from log2(1 + LINK_BUDGET_50MW * 40**-2 / 1e-10).
CAPACITY_AT_40M = 4.994559695714532

DEFAULTS = ChannelParams()


def test_distance_axis_aligned():
    assert distance(Point2D(40, 60), Point2D(80, 60)) == 40.0


def test_distance_identity():
    assert distance(Point2D(5, 5), Point2D(5, 5)) == 0.0


def test_distance_3_4_5():
    assert distance(Point2D(0, 0), Point2D(3, 4)) == 5.0


@pytest.mark.parametrize("d,expected", [(40.0, 40.0), (0.0, 1.0), (0.3, 1.0)])
def test_effective_distance_clamps_to_reference(d, expected):
    assert effective_distance(d, DEFAULTS) == expected


@pytest.mark.parametrize("d0", [1.0, 0.05, 7.5])
def test_effective_distance_is_max_of_distance_and_reference(d0):
    # the clamp compares d0 > d: the floats of max(d, d0), nan, equality and -0.0 included
    params = ChannelParams(ref_distance_d0=d0)
    near = math.nextafter(d0, 0.0), math.nextafter(d0, math.inf)
    for d in (math.nan, d0, *near, 0.0, -0.0, 0.5 * d0, 3.0 * d0, math.inf):
        assert effective_distance(d, params).hex() == max(d, d0).hex(), d


def test_distance_corrected_power_50mw():
    value = distance_corrected_power(0.05, DEFAULTS)
    assert value == pytest.approx(LINK_BUDGET_50MW, rel=1e-12)


def test_distance_corrected_power_unit_link_budget():
    # with f0 = c/(4*pi) the reference gain is exactly 1
    params = ChannelParams(center_freq_f0=2.998e8 / (4.0 * math.pi))
    assert distance_corrected_power(1.0, params) == pytest.approx(1.0, rel=1e-12)


def test_distance_corrected_power_linear_in_tx():
    one = distance_corrected_power(0.02, DEFAULTS)
    two = distance_corrected_power(0.04, DEFAULTS)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_transmit_power_roundtrip():
    corrected = distance_corrected_power(0.05, DEFAULTS)
    assert transmit_power_from_corrected(corrected, DEFAULTS) == pytest.approx(0.05, rel=1e-12)


def test_shannon_zero_signal():
    assert shannon_capacity(0.0, 0.5, 1e-10) == 0.0


def test_shannon_signal_equals_noise():
    assert shannon_capacity(1e-10, 0.0, 1e-10) == pytest.approx(1.0, rel=1e-12)


def test_shannon_composed_with_link_budget():
    signal = distance_corrected_power(0.05, DEFAULTS) * 40.0 ** -2
    cap = shannon_capacity(signal, 0.0, 1e-10)
    assert cap == pytest.approx(CAPACITY_AT_40M, rel=1e-12)


positive = st.floats(min_value=1e-12, max_value=1e6, allow_nan=False)
nonnegative = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@given(signal=nonnegative, interference=nonnegative, noise=positive, bump=positive)
def test_shannon_monotone_in_interference_and_noise(signal, interference, noise, bump):
    base = shannon_capacity(signal, interference, noise)
    assert shannon_capacity(signal, interference + bump, noise) <= base
    assert shannon_capacity(signal, interference, noise + bump) <= base


@given(signal=nonnegative, interference=nonnegative, noise=positive, bump=positive)
def test_shannon_monotone_in_signal(signal, interference, noise, bump):
    assert shannon_capacity(signal + bump, interference, noise) >= shannon_capacity(
        signal, interference, noise
    )


@given(
    signal=positive,
    interference=nonnegative,
    noise=positive,
    scale=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
)
def test_shannon_scale_invariance(signal, interference, noise, scale):
    base = shannon_capacity(signal, interference, noise)
    scaled = shannon_capacity(scale * signal, scale * interference, scale * noise)
    assert scaled == pytest.approx(base, rel=1e-9, abs=1e-12)


@given(
    ax=st.floats(-1e3, 1e3),
    ay=st.floats(-1e3, 1e3),
    bx=st.floats(-1e3, 1e3),
    by=st.floats(-1e3, 1e3),
)
def test_effective_distance_symmetric(ax, ay, bx, by):
    a, b = Point2D(ax, ay), Point2D(bx, by)
    assert effective_distance(distance(a, b), DEFAULTS) == effective_distance(
        distance(b, a), DEFAULTS
    )


def test_free_space_consistency():
    # alpha = 2, d >= d0: received power reduces to tx * (c/(4 pi f0))^2 / d^2
    params = ChannelParams(pathloss_alpha=2.0)
    d = 73.5
    received = distance_corrected_power(0.05, params) * d ** -2
    gain = SPEED_OF_LIGHT / (4.0 * math.pi * params.center_freq_f0)
    assert received == pytest.approx(0.05 * gain * gain / d ** 2, rel=1e-12)


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(noise_m=0.0)
    with pytest.raises(ValueError):
        ChannelParams(pathloss_alpha=0.5)
    with pytest.raises(ValueError):
        ChannelParams(bandwidth_w=0.0)
    # nan passed the old x < 1 and x <= 0 tests, and select then returned nan capacities
    with pytest.raises(ValueError, match="channel.alpha must be a finite number >= 1"):
        ChannelParams(pathloss_alpha=math.nan)
    with pytest.raises(ValueError, match="channel.noise_e_watt must be a finite number > 0"):
        ChannelParams(noise_e=math.nan)


def test_ap_config_validation():
    with pytest.raises(ValueError, match=r"aps\[\]\.tx_power_watt must be a finite number > 0"):
        ApConfig(position=Point2D(0, 0), tx_power=0.0, tx_power_max=0.05)
    for cap in (0.05, math.nan):
        with pytest.raises(ValueError, match="tx_power_watt must be a finite number <= tx_power_max_watt"):
            ApConfig(position=Point2D(0, 0), tx_power=0.1, tx_power_max=cap)


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point2D(math.nan, 0.0)
    with pytest.raises(ValueError):
        Point2D(0.0, math.inf)
