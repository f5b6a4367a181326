import json
import math
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from secrecysim import (
    ChannelParams,
    Point2D,
    PolicyKind,
    ScenarioValidationError,
    bundled_scenario_path,
    distance,
    distance_corrected_power,
    effective_distance,
    load_scenario,
    select,
    sweep_eavesdropper,
)
from secrecysim.fjopt import (
    _candidate_powers,
    _coefficients,
    _log2_ratio,
    _ratio_terms,
    derivative_numerator_roots,
    optimize_fj_power,
    optimize_fj_power_array,
)
from secrecysim.sweep import _eve_terms

from conftest import UNDERFLOW_DOCUMENT, FjArgs, direct_secrecy_curve, grid_search_best, random_fj_geometry

P_50MW = distance_corrected_power(0.05, ChannelParams())


def ratio_secrecy(geom, p_j):
    """Secrecy per Hz at ``p_j`` through the optimizer's own ratio form."""
    caps, _ = _coefficients(*geom[:8])
    return _log2_ratio(caps, geom.p_i, p_j)


def candidate_powers(geom):
    """0, ``p_max`` and the derivative roots clamped to ``[0, p_max]``."""
    _, quad = _coefficients(*geom[:8])
    roots = derivative_numerator_roots(quad, geom.p_max)
    return [0.0, geom.p_max] + [min(max(root, 0.0), geom.p_max) for root in roots]


def unit_geometry():
    return FjArgs(
        d_im=1.0, d_ie=1.0, d_jm=1.0, d_je=1.0, alpha=2.0,
        noise_m=1e-10, noise_e=1e-10, p_i=1.0, p_max=1.0
    )


def test_coefficients_unit_geometry():
    (cap_a, cap_b, cap_c, cap_d, cap_e, cap_f, cap_k), (quad_a, quad_b, quad_c) = _coefficients(
        *unit_geometry()[:8]
    )
    assert cap_a == 1.0
    assert cap_b == 2e-10
    assert cap_c == 1.0
    assert cap_d == 1e-10
    assert cap_e == 1.0
    assert cap_f == 1e-10
    assert cap_k == pytest.approx(1e-20, rel=1e-15)  # product rounds one ulp off the literal
    assert quad_a == 0.0
    assert quad_b == 0.0
    assert quad_c == 0.0


def test_symmetric_geometry_degenerates_fully():
    # equal AP distances on each side force the two quadratics to coincide
    geom = FjArgs(
        d_im=7.0, d_ie=7.0, d_jm=31.0, d_je=31.0, alpha=3.0,
        noise_m=1e-10, noise_e=1e-10, p_i=P_50MW, p_max=P_50MW
    )
    _, (quad_a, quad_b, quad_c) = _coefficients(*geom[:8])
    assert quad_a == 0.0 and quad_b == 0.0 and quad_c == 0.0
    for p_j in (0.0, 0.3 * geom.p_max, geom.p_max):
        assert ratio_secrecy(geom, p_j) == 0.0


def _f_direct(geom, p):
    a = geom.alpha
    sinr_m = geom.p_i * geom.d_im ** -a / (p * geom.d_jm ** -a + geom.noise_m)
    sinr_e = geom.p_i * geom.d_ie ** -a / (p * geom.d_je ** -a + geom.noise_e)
    return (1.0 + sinr_m) / (1.0 + sinr_e)


def _v_direct(geom, p):
    # denominator polynomial of the objective ratio, grouped as a product
    a = geom.alpha
    dim_a, die_a = geom.d_im ** a, geom.d_ie ** a
    djm_a, dje_a = geom.d_jm ** a, geom.d_je ** a
    n_m, n_e = geom.noise_m, geom.noise_e
    return (p * dim_a + n_m * dim_a * djm_a) * (p * die_a + n_e * die_a * dje_a + geom.p_i * dje_a)


def test_quadratic_matches_numeric_derivative_values():
    # analytic derivative quad(p)/v(p)^2 vs central differences of the
    # directly-composed ratio, at 100 random (geometry, power) points
    rng = np.random.default_rng(777)
    for _ in range(100):
        geom = random_fj_geometry(rng)
        _, (quad_a, quad_b, quad_c) = _coefficients(*geom[:8])
        p = float(rng.uniform(0.0, geom.p_max))
        h = max(p, geom.p_max * 1e-3) * 1e-5
        numeric = (_f_direct(geom, p + h) - _f_direct(geom, p - h)) / (2.0 * h)
        analytic = (quad_a * p * p + quad_b * p + quad_c) / _v_direct(geom, p) ** 2
        assert abs(numeric - analytic) <= 1e-6 * max(abs(numeric), abs(analytic))


def test_quadratic_matches_numeric_polynomial_fit():
    # fit quad(p) = f'(p) * v(p)^2 over the scaled interval and compare
    # the extracted coefficients on their common magnitude scale
    rng = np.random.default_rng(4242)
    for _ in range(25):
        geom = random_fj_geometry(rng)
        _, (quad_a, quad_b, quad_c) = _coefficients(*geom[:8])
        t = np.linspace(0.0, 1.0, 41)
        powers = t * geom.p_max
        h = np.maximum(powers, geom.p_max * 1e-3) * 1e-5
        numeric = (_f_direct(geom, powers + h) - _f_direct(geom, powers - h)) / (2.0 * h)
        fitted = np.polyfit(t, numeric * _v_direct(geom, powers) ** 2, 2)
        exact = np.array(
            [quad_a * geom.p_max ** 2, quad_b * geom.p_max, quad_c]
        )
        scale = np.abs(exact).max()
        assert np.abs(fitted - exact).max() <= 1e-3 * scale


def test_simplified_forms_equal_literal_expansion_exactly():
    # exact rational arithmetic: the simplified coefficient expressions
    # equal their unsimplified expansions for arbitrary rational inputs
    rng = np.random.default_rng(99)
    for _ in range(50):
        a_, b_, c_, d_, e_, f_, k_ = (
            Fraction(int(rng.integers(1, 10**6)), int(rng.integers(1, 10**3))) for _ in range(7)
        )
        p_i = Fraction(int(rng.integers(1, 10**6)), int(rng.integers(1, 10**9)))
        literal_a = 2 * p_i * a_ * e_ + p_i * a_ * c_ - 2 * p_i * a_ * c_ - p_i * a_ * e_
        literal_b = 2 * p_i * a_ * f_ - 2 * p_i * a_ * d_
        literal_c = (
            p_i * b_ * f_ + p_i ** 2 * f_ * c_ + p_i * k_ * c_
            - p_i * b_ * d_ - p_i ** 2 * e_ * d_ - p_i * k_ * e_
        )
        assert literal_a == p_i * a_ * (e_ - c_)
        assert literal_b == 2 * p_i * a_ * (f_ - d_)
        assert literal_c == p_i * b_ * (f_ - d_) + p_i ** 2 * (c_ * f_ - e_ * d_) + p_i * k_ * (c_ - e_)


def test_float_coefficients_track_exact_arithmetic():
    # the float evaluation must agree with exact rationals on the scale of
    # the individual terms (cancellation can shrink the result itself)
    rng = np.random.default_rng(31337)
    for _ in range(50):
        geom = random_fj_geometry(rng)
        caps, (quad_a, quad_b, quad_c) = _coefficients(*geom[:8])
        a_, b_, c_, d_, e_, f_, k_ = (Fraction(v) for v in caps)
        p_i = Fraction(geom.p_i)
        exact_a = p_i * a_ * (e_ - c_)
        exact_b = 2 * p_i * a_ * (f_ - d_)
        terms_c = [
            p_i * b_ * f_, p_i ** 2 * c_ * f_, p_i * k_ * c_,
            -p_i * b_ * d_, -p_i ** 2 * e_ * d_, -p_i * k_ * e_,
        ]
        exact_c = sum(terms_c)
        scale_c = float(max(abs(t) for t in terms_c))
        assert quad_a == pytest.approx(float(exact_a), rel=1e-12, abs=1e-300)
        assert quad_b == pytest.approx(float(exact_b), rel=1e-12, abs=1e-300)
        assert abs(quad_c - float(exact_c)) <= 1e-12 * scale_c


def test_objective_at_zero_matches_unjammed_difference():
    rng = np.random.default_rng(5)
    for _ in range(50):
        geom = random_fj_geometry(rng)
        via_ratio = ratio_secrecy(geom, 0.0)
        unjammed = math.log2(1.0 + geom.p_i * geom.d_im ** -geom.alpha / geom.noise_m) - math.log2(
            1.0 + geom.p_i * geom.d_ie ** -geom.alpha / geom.noise_e
        )
        assert via_ratio == pytest.approx(unjammed, rel=1e-9, abs=1e-9)


def test_objective_cross_check_dual_route():
    # the ratio form and the two-capacity composition must agree
    rng = np.random.default_rng(6)
    for _ in range(300):
        geom = random_fj_geometry(rng)
        p_j = float(rng.uniform(0.0, geom.p_max))
        a = ratio_secrecy(geom, p_j)
        b = float(direct_secrecy_curve(geom, np.array([p_j]))[0])
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def test_optimize_symmetric_geometry_prefers_zero_power():
    geom = FjArgs(
        d_im=12.0, d_ie=12.0, d_jm=50.0, d_je=50.0, alpha=2.0,
        noise_m=1e-10, noise_e=1e-10, p_i=P_50MW, p_max=P_50MW
    )
    p_opt = optimize_fj_power(*geom)
    assert p_opt == 0.0
    assert ratio_secrecy(geom, p_opt) == 0.0
    assert all(ratio_secrecy(geom, p) == 0.0 for p in candidate_powers(geom))


def test_optimize_matches_grid_search():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        geom = random_fj_geometry(rng)
        p_opt = optimize_fj_power(*geom)
        best_grid, _ = grid_search_best(geom, points=20001)
        assert ratio_secrecy(geom, p_opt) >= best_grid - 1e-6
        assert 0.0 <= p_opt <= geom.p_max


def test_optimize_boundary_candidates_never_beat_solution():
    rng = np.random.default_rng(2025)
    for _ in range(200):
        geom = random_fj_geometry(rng)
        secrecy = ratio_secrecy(geom, optimize_fj_power(*geom))
        assert secrecy >= ratio_secrecy(geom, 0.0)
        assert secrecy >= ratio_secrecy(geom, geom.p_max)


def test_optimize_jammer_next_to_eavesdropper_strictly_improves():
    # jammer 1 m from the eavesdropper and far from the station: jamming
    # must beat silence, and the dense grid confirms the achieved value
    geom = FjArgs(
        d_im=30.0, d_ie=40.0, d_jm=150.0, d_je=1.0, alpha=2.0,
        noise_m=1e-10, noise_e=1e-10, p_i=P_50MW, p_max=P_50MW
    )
    p_opt = optimize_fj_power(*geom)
    at_zero = ratio_secrecy(geom, 0.0)
    assert p_opt > 0.0
    assert ratio_secrecy(geom, p_opt) > at_zero
    best_grid, _ = grid_search_best(geom)
    assert abs(ratio_secrecy(geom, p_opt) - best_grid) <= 1e-6


def test_optimize_monotone_harm_to_eavesdropper():
    rng = np.random.default_rng(11)
    for _ in range(100):
        geom = random_fj_geometry(rng)
        p_opt = optimize_fj_power(*geom)
        a = geom.alpha
        eve_at = lambda p: math.log2(
            1.0 + geom.p_i * geom.d_ie ** -a / (p * geom.d_je ** -a + geom.noise_e)
        )
        assert eve_at(p_opt) <= eve_at(0.0)


def test_root_residuals_are_small():
    # substituting each unclamped real root back into the quadratic gives
    # a residual that is tiny against the terms that produced it
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(300):
        geom = random_fj_geometry(rng)
        _, quad = _coefficients(*geom[:8])
        quad_a, quad_b, quad_c = quad
        for root in derivative_numerator_roots(quad, geom.p_max):
            residual = quad_a * root * root + quad_b * root + quad_c
            scale = max(abs(quad_a * root * root), abs(quad_b * root), abs(quad_c))
            if scale > 0.0:
                assert abs(residual) <= 1e-6 * scale
                checked += 1
    assert checked > 100


def test_roots_degenerate_quadratic_branches():
    # pure synthetic coefficient sets exercise every degeneracy branch
    assert derivative_numerator_roots((0.0, 0.0, 5.0), 1.0) == []
    assert derivative_numerator_roots((0.0, 2.0, -1.0), 1.0) == [0.5]
    assert derivative_numerator_roots((1.0, 0.0, 1.0), 1.0) == []  # negative discriminant
    roots = derivative_numerator_roots((1.0, 0.0, -4.0), 1.0)
    assert sorted(roots) == [-2.0, 2.0]
    # quadratic term negligible at the interval's scale counts as linear
    assert derivative_numerator_roots((1e-30, 2.0, -1.0), 1.0) == [0.5]


def test_linear_degenerate_geometry_matches_grid():
    # alpha=1 with d_im*d_je == d_jm*d_ie makes the quadratic term vanish
    # exactly while the linear one survives
    geom = FjArgs(
        d_im=4.0, d_ie=6.0, d_jm=6.0, d_je=9.0, alpha=1.0,
        noise_m=1e-10, noise_e=1e-10, p_i=P_50MW, p_max=P_50MW
    )
    _, (quad_a, quad_b, _) = _coefficients(*geom[:8])
    assert quad_a == 0.0
    assert quad_b != 0.0
    best_grid, _ = grid_search_best(geom)
    assert ratio_secrecy(geom, optimize_fj_power(*geom)) >= best_grid - 1e-6



def test_array_optimizer_matches_scalar():
    # the grid engine's optimizer against the scalar one, lane by lane, on
    # random (three noise ratios), p_max = 0, symmetric (a = b = c = 0)
    # and linear (a ~ 0) geometries; ties near rounding level may pick a
    # neighbouring candidate, hence a tolerance rather than equality
    rng = np.random.default_rng(15)
    lanes = [random_fj_geometry(rng, noise_e=n_e) for n_e in (1e-10, 1e-11, 1e-9) for _ in range(2000)]
    lanes += [geom._replace(p_max=0.0) for geom in lanes[::60]]
    common = dict(noise_m=1e-10, noise_e=1e-10, p_i=P_50MW, p_max=P_50MW)
    symmetric = [
        FjArgs(d_im=d, d_ie=d, d_jm=e, d_je=e, alpha=3.0, **common)
        for d, e in rng.uniform(1.0, 170.0, (50, 2)).tolist()
    ]
    assert all(_coefficients(*geom[:8])[1] == (0.0, 0.0, 0.0) for geom in symmetric)
    linear = [
        FjArgs(d_im=4.0, d_ie=6.0, d_jm=6.0, d_je=9.0 * (1.0 + eps), alpha=1.0, **common)
        for eps in (0.0, 1e-16, 1e-14, 1e-12)
    ]
    lanes += symmetric + linear

    groups = {}
    for geom in lanes:
        groups.setdefault((geom.alpha, geom.noise_m, geom.noise_e), []).append(geom)
    for (alpha, noise_m, noise_e), group in groups.items():
        col = {
            name: np.array([getattr(geom, name) for geom in group])
            for name in ("d_im", "d_ie", "d_jm", "d_je", "p_i", "p_max")
        }
        p_opt = optimize_fj_power_array(
            col["d_im"], col["d_ie"], col["d_jm"], col["d_je"], alpha, noise_m, noise_e,
            col["p_i"], col["p_max"],
        )
        for geom, power in zip(group, p_opt.tolist()):
            expected = optimize_fj_power(*geom)
            assert power == pytest.approx(expected, rel=1e-9, abs=1e-18), geom

@pytest.mark.parametrize("alpha, noise_e", [(2.0, 1e-10), (3.0, 1e-10), (2.418, 1e-9), (3.1, 1e-11)])
def test_array_pick_matches_sort_and_first_argmax(alpha, noise_e):
    # the running maximum against the reference it replaced: the four
    # candidates sorted per lane and the first maximum taken; lanes with
    # p_max = 0, and symmetric lanes whose candidates all tie exactly
    rng = np.random.default_rng(16)
    d = rng.uniform(1.0, 170.0, (4, 3000))
    sym = rng.uniform(1.0, 170.0, (2, 300))
    d_im, d_ie = np.concatenate([d[0], sym[0]]), np.concatenate([d[1], sym[0]])
    d_jm, d_je = np.concatenate([d[2], sym[1]]), np.concatenate([d[3], sym[1]])
    p_i = np.full(d_im.size, P_50MW)
    p_max = np.where(np.arange(d_im.size) % 7 == 0, 0.0, P_50MW)

    caps, quad = _coefficients(d_im, d_ie, d_jm, d_je, alpha, 1e-10, noise_e, p_i)
    cands = np.sort(np.stack(_candidate_powers(quad, p_max)), axis=0)
    num, den = _ratio_terms(caps, p_i, cands)
    values = np.log2(num) - np.log2(den)
    expected = np.take_along_axis(cands, np.argmax(values, axis=0)[None, :], axis=0)[0]

    got = optimize_fj_power_array(d_im, d_ie, d_jm, d_je, alpha, 1e-10, noise_e, p_i, p_max)
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))
    assert np.count_nonzero(got[p_max == 0.0]) == 0
    if noise_e == 1e-10:
        ties = np.all(values == values[0], axis=0) & (p_max > 0.0)
        assert np.count_nonzero(ties) > 200
        assert np.count_nonzero(got[ties]) == 0


def test_candidate_list_shape_and_bounds():
    rng = np.random.default_rng(14)
    for _ in range(100):
        geom = random_fj_geometry(rng)
        p_opt = optimize_fj_power(*geom)
        powers = candidate_powers(geom)
        assert 2 <= len(powers) <= 4
        assert all(0.0 <= p <= geom.p_max for p in powers)
        assert p_opt in powers
        assert ratio_secrecy(geom, p_opt) == max(ratio_secrecy(geom, p) for p in powers)


def test_no_overflow_at_kilometer_scale_and_alpha_4():
    # coefficient magnitudes span ~1e-20..1e39 here; everything must stay finite
    geom = FjArgs(
        d_im=1e3, d_ie=900.0, d_jm=950.0, d_je=1e3, alpha=4.0, noise_m=1e-10, noise_e=1e-10,
        p_i=P_50MW, p_max=P_50MW,
    )
    caps, quad = _coefficients(*geom[:8])
    for value in caps + quad:
        assert math.isfinite(value)
    secrecy = ratio_secrecy(geom, optimize_fj_power(*geom))
    assert math.isfinite(secrecy)
    best_grid, _ = grid_search_best(geom)
    assert secrecy >= best_grid - 1e-6


def load_with_channel(tmp_path, doc, **channel):
    """``doc`` with its channel keys updated, through the loader; None when refused."""
    doc = json.loads(json.dumps(doc))
    doc["channel"].update(channel)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    try:
        return load_scenario(path)
    except ScenarioValidationError:
        return None


def closed_form_values(loaded):
    """Every AP order at every grid cell, with the station at its own place and
    at the corners of the Monte Carlo square: ``_coefficients``, the roots'
    ``b*b`` and ``4*a*c``, ``|a|*p_max**2`` and the ratio terms at ``p_max``."""
    scenario, par = loaded.scenario, loaded.scenario.params
    _, _, d1e, d2e, _, _ = _eve_terms(scenario, loaded.sweep)
    extent = scenario.map_extent
    stations = [scenario.sta_m] + [Point2D(x, y) for x in (0.0, extent) for y in (0.0, extent)]
    values = []
    for sta in stations:
        links = [
            (effective_distance(distance(ap.position, sta), par), d_e, ap)
            for ap, d_e in ((scenario.ap1, d1e), (scenario.ap2, d2e))
        ]
        for (d_im, d_ie, ap_i), (d_jm, d_je, ap_j) in (links, links[::-1]):
            p_i = np.full(d_ie.shape, distance_corrected_power(ap_i.tx_power, par))
            p_max = np.full(d_ie.shape, distance_corrected_power(ap_j.tx_power_max, par))
            d_im, d_jm = np.full(d_ie.shape, d_im), np.full(d_ie.shape, d_jm)
            caps, (a, b, c) = _coefficients(
                d_im, d_ie, d_jm, d_je, par.pathloss_alpha, par.noise_m, par.noise_e, p_i
            )
            values += [*caps, a, b, c, b * b, 4.0 * a * c, np.abs(a) * p_max * p_max]
            values += _ratio_terms(caps, p_i, p_max)
    return values


def test_largest_accepted_alpha_keeps_the_closed_form_finite(tmp_path):
    # scenario1's full 120 x 120 geometry at the largest alpha the loader
    # accepts, outside _candidate_powers and its errstate
    doc = json.loads(bundled_scenario_path("scenario1").read_text())
    low, high = 4.0, 20.0
    assert load_with_channel(tmp_path, doc, alpha=low) and not load_with_channel(tmp_path, doc, alpha=high)
    while (middle := (low + high) / 2) not in (low, high):
        low, high = (middle, high) if load_with_channel(tmp_path, doc, alpha=middle) else (low, middle)
    assert 16.0 < low < 17.0
    loaded = load_with_channel(tmp_path, doc, alpha=low)
    with np.errstate(all="raise"):
        values = closed_form_values(loaded)
    assert all(np.isfinite(v).all() for v in values)
    # and the bound is not loose: the largest value is within 2**64 of overflow
    assert max(np.abs(v).max() for v in values) > 2.0 ** 960


def log_uniform(low_exp, high_exp):
    return st.floats(low_exp, high_exp).map(lambda e: 10.0 ** e)


@st.composite
def extreme_documents(draw):
    """Scenario documents over the whole float range: powers, noises and
    frequencies over hundreds of decades, maps from micrometres to 1e6 m."""
    scale = draw(log_uniform(-7.0, 6.0))
    where = st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)).map(lambda p: (p[0] * scale, p[1] * scale))
    ap1 = draw(where)
    ap2 = draw(where.filter(lambda p: p != ap1))
    aps = []
    for x, y in (ap1, ap2):
        tx = draw(log_uniform(-300.0, 300.0))
        aps.append({"x": x, "y": y, "tx_power_watt": tx, "tx_power_max_watt": tx * draw(st.floats(1.0, 100.0))})
    channel = {
        "center_freq_hz": draw(log_uniform(-200.0, 12.0)),
        "ref_distance_m": draw(log_uniform(-6.0, 3.0)),
        "alpha": draw(st.floats(1.0, 400.0)),
        "noise_m_watt": draw(log_uniform(-300.0, 300.0)),
        "noise_e_watt": draw(log_uniform(-300.0, 300.0)),
    }
    sta = draw(where)
    grid = {"k": draw(st.integers(1, 4)), "step_m": scale * draw(st.floats(0.01, 1.0))}
    return {"channel": channel, "aps": aps, "sta_m": dict(zip("xy", sta)), "grid": grid, "policy": "smart_fj"}


@example(UNDERFLOW_DOCUMENT)  # accepted before the lower bound, yet K and p_i*D underflow to 0
@example(  # a 2-term bound would accept this one, yet p_max**2 overflows
    {
        "channel": {"center_freq_hz": 1.0, "ref_distance_m": 1e-6, "alpha": 2.0,
                    "noise_m_watt": 1e-136, "noise_e_watt": 1e-136},
        "aps": [{"x": 0.0, "y": 0.0, "tx_power_watt": 1e160, "tx_power_max_watt": 1e160},
                {"x": 2e-6, "y": 0.0, "tx_power_watt": 1e160, "tx_power_max_watt": 1e160}],
        "sta_m": {"x": 1e-6, "y": 1e-6}, "grid": {"k": 2, "step_m": 1e-6}, "policy": "smart_fj",
    }
)
@example(  # and this one, yet K = N**2 * Q**4 overflows
    {
        "channel": {"center_freq_hz": 2.4e9, "ref_distance_m": 1.0, "alpha": 2.0,
                    "noise_m_watt": 1e100, "noise_e_watt": 1e100},
        "aps": [{"x": 0.0, "y": 0.0, "tx_power_watt": 1e-290, "tx_power_max_watt": 1e-290},
                {"x": 1e30, "y": 0.0, "tx_power_watt": 1e-290, "tx_power_max_watt": 1e-290}],
        "sta_m": {"x": 0.0, "y": 1e30}, "grid": {"k": 1, "step_m": 1e30}, "policy": "smart_fj",
    }
)
@settings(max_examples=300, deadline=None)
@given(extreme_documents())
def test_accepted_scenarios_never_overflow_the_closed_form(doc):
    # Scenario's bounds cover every intermediate, not only the largest at
    # physical sizes, and keep the ratio terms off 0, so log2 never meets 0;
    # terms that underflow next to a larger addend are harmless
    with tempfile.TemporaryDirectory() as tmp:
        loaded = load_with_channel(Path(tmp), doc)
    if loaded is None:
        return
    scenario = loaded.scenario
    with np.errstate(all="raise", under="ignore"):
        closed_form_values(loaded)
        for policy in PolicyKind:
            sweep_eavesdropper(scenario, replace(loaded.sweep, policy=policy), retain_cells=False)
    e = scenario.map_extent
    corners = [Point2D(x, y) for x in (0.0, e) for y in (0.0, e)]
    for sta_e in [scenario.sta_m, scenario.ap1.position, scenario.ap2.position] + corners:
        for policy in PolicyKind:
            assert all(math.isfinite(v) for v in vars(select(scenario, sta_e, policy)).values())
