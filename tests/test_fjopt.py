import itertools
import json
import math
import operator
import tempfile
import warnings
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from secrecysim import (
    ApConfig,
    ChannelParams,
    Point2D,
    PolicyKind,
    Scenario,
    ScenarioValidationError,
    SweepConfig,
    bundled_scenario_path,
    distance,
    distance_corrected_power,
    effective_distance,
    load_scenario,
    monte_carlo,
    select,
    sweep_eavesdropper,
)
from secrecysim import fjopt, sweep
from secrecysim.fjopt import (
    _CORNERS,
    _coefficients,
    _coefficients_into,
    _ratio_terms,
    _ratio_terms_into,
    derivative_numerator_roots,
    optimize_fj_power,
)
from secrecysim.sweep import _eve_terms

from conftest import (
    UNDERFLOW_DOCUMENT,
    FjArgs,
    best_power,
    buffers,
    clamped_roots,
    coefficients,
    direct_secrecy_curve,
    grid_search_best,
    log2_ratio,
    random_fj_geometry,
)

P_50MW = distance_corrected_power(0.05, ChannelParams())


def ratio_secrecy(geom, p_j):
    """Secrecy per Hz at ``p_j`` through the optimizer's own ratio form."""
    return log2_ratio(coefficients(geom)[2], p_j)


def candidate_powers(geom):
    """0, ``p_max`` and the derivative roots clamped to ``[0, p_max]``."""
    _, quad, _ = coefficients(geom)
    roots = derivative_numerator_roots(quad)
    return [0.0, geom.p_max] + [min(max(root, 0.0), geom.p_max) for root in roots]


def unit_geometry():
    return FjArgs(
        d_im=1.0, d_ie=1.0, d_jm=1.0, d_je=1.0, alpha=2.0,
        noise_m=1e-10, noise_e=1e-10, p_i=1.0, p_max=1.0
    )


def test_coefficients_unit_geometry():
    (cap_a, cap_b, cap_c, cap_d, cap_e, cap_f, cap_k), (quad_a, quad_b, quad_c), ratio = coefficients(
        unit_geometry()
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
    # p_i = 1: the ratio's terms are plain sums of the constants
    assert ratio == (cap_a, cap_b + cap_c, cap_d + cap_k, cap_b + cap_e, cap_f + cap_k)


def test_symmetric_geometry_degenerates_fully():
    # equal AP distances on each side force the two quadratics to coincide
    geom = FjArgs(
        d_im=7.0, d_ie=7.0, d_jm=31.0, d_je=31.0, alpha=3.0,
        noise_m=1e-10, noise_e=1e-10, p_i=P_50MW, p_max=P_50MW
    )
    _, (quad_a, quad_b, quad_c), _ = coefficients(geom)
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
        _, (quad_a, quad_b, quad_c), _ = coefficients(geom)
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
        _, (quad_a, quad_b, quad_c), _ = coefficients(geom)
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
        caps, (quad_a, quad_b, quad_c), _ = coefficients(geom)
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
        _, quad, _ = coefficients(geom)
        quad_a, quad_b, quad_c = quad
        for root in derivative_numerator_roots(quad):
            residual = quad_a * root * root + quad_b * root + quad_c
            scale = max(abs(quad_a * root * root), abs(quad_b * root), abs(quad_c))
            if scale > 0.0:
                assert abs(residual) <= 1e-6 * scale
                checked += 1
    assert checked > 100


def clamped_candidates(quads, p_max):
    """Per lane of the coefficient lists ``quads = (a, b, c)`` and of ``p_max``: the candidate set
    ``{0, p_max, clamped roots}`` from the scalar finder and from the array finder, as ``float.hex``.
    Both sets start from 0.0, so a root that clamps to -0.0 adds nothing to either."""
    scalar = [
        {0.0, p, *(min(max(root, 0.0), p) for root in derivative_numerator_roots(quad))}
        for quad, p in zip(zip(*quads), p_max)
    ]
    p_max = np.array(p_max)
    array = np.stack((np.zeros_like(p_max), p_max, *clamped_roots(tuple(np.array(x) for x in quads), p_max))).T.tolist()
    return [{p.hex() for p in s} for s in scalar], [{p.hex() for p in set(a)} for a in array]


def test_degenerate_quadratics_give_the_clamped_candidates():
    # (a, b, c, p_max) and the candidate set both finders must give
    cases = [
        ((0.0, 0.0, 5.0), 1.0, {0.0, 1.0}),  # a = b = 0: the derivative keeps the sign of c
        ((0.0, 0.0, 0.0), 1.0, {0.0, 1.0}),  # a = b = c = 0: the objective is flat
        ((0.0, 2.0, -1.0), 1.0, {0.0, 0.5, 1.0}),  # a = 0: the linear root
        ((1.0, 0.0, 1.0), 1.0, {0.0, 1.0}),  # negative discriminant
        ((1.0, 0.0, -4.0), 3.0, {0.0, 2.0, 3.0}),  # roots -2 and 2
        ((1e-30, 2.0, -1.0), 1.0, {0.0, 0.5, 1.0}),  # near-linear: the root -2e30 clamps to 0
        ((1e-30, 1.0, 1e31), 1.0, {0.0, 1.0}),  # near-linear, negative discriminant: -c/b = -1e31 clamps to 0
    ]
    scalar, array = clamped_candidates(list(zip(*(quad for quad, _, _ in cases))), [p for _, p, _ in cases])
    expected = [{p.hex() for p in candidates} for *_, candidates in cases]
    assert scalar == expected
    assert array == expected


def test_scalar_and_array_finders_give_the_same_candidates():
    # random signed coefficients over 30 decades, with exact zeros in a, b, c, a and b, and all
    # three, lanes with p_max = 0, and the coefficients of random geometries; both finders get the
    # same floats, as d**alpha differs between libm and numpy's AVX-512 power
    rng = np.random.default_rng(23)
    n = 30_000
    quads = [rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-20.0, 10.0, n) for _ in range(3)]
    kind = np.arange(n) % 6
    for k, zeros in enumerate([(), (0,), (1,), (2,), (0, 1), (0, 1, 2)]):
        for i in zeros:
            quads[i][kind == k] = 0.0
    p_max = 10.0 ** rng.uniform(-12.0, 12.0, n)
    p_max[::7] = 0.0
    geoms = [random_fj_geometry(rng, noise_e=n_e) for n_e in (1e-10, 1e-11, 1e-9) for _ in range(500)]
    quads = [x.tolist() + [coefficients(geom)[1][i] for geom in geoms] for i, x in enumerate(quads)]
    scalar, array = clamped_candidates(quads, p_max.tolist() + [geom.p_max for geom in geoms])
    assert [k for k, (s, a) in enumerate(zip(scalar, array)) if s != a] == []
    assert sum(len(s) > 2 for s in scalar) > n // 10


def engine_lanes(scenario, cfg):
    """The arguments the grid engine gives the array optimizer for ``scenario``'s station on ``cfg``'s cells,
    copied before it overwrites them: the four distances to the power alpha, the noises, ``p_i`` and ``p_max``."""
    captured, best_power = [], sweep._best_power

    def capture(*args):
        captured.append([a.copy() if isinstance(a, np.ndarray) else a for a in args[:8]])
        return best_power(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "_best_power", capture)
        sweep_eavesdropper(scenario, replace(cfg, policy=PolicyKind.SMART_AP_FJ), retain_cells=False)
    return captured[0]


def mismatched_lanes(lanes) -> list[int]:
    """The lanes where the array statement's ``(a, b, c)``, ratio terms, ratio numerator and denominator
    at ``p_max`` and at both clamped roots, and returned power differ from the scalar statement's by
    ``float.hex``; the scalar optimizer gets the same raised distances, at alpha 1, as ``x ** 1.0 == x``."""
    dim_a, die_a, djm_a, dje_a, noise_m, noise_e, p_i, p_max = lanes
    columns = [a.tolist() for a in (dim_a, die_a, djm_a, dje_a, p_i, p_max)]
    quad, ratio = _coefficients_into(
        dim_a.copy(), die_a.copy(), djm_a.copy(), dje_a.copy(), noise_m, noise_e, p_i.copy(), buffers(p_i, 8)
    )
    powers = (p_max, *clamped_roots(quad, p_max))
    terms = [term for p in powers for term in _ratio_terms_into(ratio, p, *buffers(p, 3))]
    p_opt = best_power(FjArgs(dim_a, die_a, djm_a, dje_a, 1.0, noise_m, noise_e, p_i, p_max))
    array = list(zip(*(a.tolist() for a in (*quad, *ratio, *terms, p_opt))))
    mismatched = []
    for k, (d_im, d_ie, d_jm, d_je, p, cap) in enumerate(zip(*columns)):
        _, quad_k, ratio_k = _coefficients(d_im, d_ie, d_jm, d_je, noise_m, noise_e, p)
        scalar = [*quad_k, *ratio_k] + [term for p_j in powers for term in _ratio_terms(ratio_k, float(p_j[k]))]
        scalar.append(optimize_fj_power(d_im, d_ie, d_jm, d_je, 1.0, noise_m, noise_e, p, cap))
        if [v.hex() for v in scalar] != [v.hex() for v in array[k]]:
            mismatched.append(k)
    return mismatched


@pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3"])
def test_the_array_statement_equals_the_scalar_one_in_every_cell(name):
    # only + - * / and sqrt, so the two statements agree exactly on any machine
    loaded = load_scenario(bundled_scenario_path(name))
    lanes = engine_lanes(loaded.scenario, loaded.sweep)
    assert lanes[0].size == loaded.sweep.grid_k ** 2
    assert mismatched_lanes(lanes) == []


@settings(max_examples=40, deadline=None)
@given(
    places=st.lists(st.tuples(st.floats(0.0, 120.0), st.floats(0.0, 120.0)), min_size=3, max_size=3),
    tx=st.tuples(st.floats(-3.0, 0.0), st.floats(-3.0, 0.0)).map(lambda e: (10.0 ** e[0], 10.0 ** e[1])),
    caps=st.tuples(st.floats(1.0, 10.0), st.floats(1.0, 10.0)),
    noises=st.tuples(st.floats(-12.0, -8.0), st.floats(-12.0, -8.0)).map(lambda e: (10.0 ** e[0], 10.0 ** e[1])),
    alpha=st.floats(2.0, 4.0),
)
def test_the_array_statement_equals_the_scalar_one_on_drawn_scenarios(places, tx, caps, noises, alpha):
    # unequal noises, a non-integer alpha, caps above the powers
    assume(noises[0] != noises[1] and alpha != int(alpha))
    ap1, ap2, sta_m = (Point2D(*place) for place in places)
    assume(ap1 != ap2)
    params = ChannelParams(pathloss_alpha=alpha, noise_m=noises[0], noise_e=noises[1])
    aps = (ApConfig(ap, power, power * cap) for ap, power, cap in zip((ap1, ap2), tx, caps))
    scenario = Scenario(*aps, sta_m, params, 120.0)
    assert mismatched_lanes(engine_lanes(scenario, SweepConfig(grid_k=15, cell_step=8.0))) == []


def test_linear_degenerate_geometry_matches_grid():
    # alpha=1 with d_im*d_je == d_jm*d_ie makes the quadratic term vanish
    # exactly while the linear one survives
    geom = FjArgs(
        d_im=4.0, d_ie=6.0, d_jm=6.0, d_je=9.0, alpha=1.0,
        noise_m=1e-10, noise_e=1e-10, p_i=P_50MW, p_max=P_50MW
    )
    _, (quad_a, quad_b, _), _ = coefficients(geom)
    assert quad_a == 0.0
    assert quad_b != 0.0
    best_grid, _ = grid_search_best(geom)
    assert ratio_secrecy(geom, optimize_fj_power(*geom)) >= best_grid - 1e-6


@st.composite
def near_degenerate_geometries(draw):
    """Geometries next to the degenerate quadratics, with equal or unequal noises: alpha 1 with
    ``d_im*d_je`` within a relative 1e-10 of ``d_jm*d_ie``, where ``a`` is near 0, or each AP at
    distances from the station and the eavesdropper within a relative 1e-10, where ``a``, ``b``
    and, with equal noises, ``c`` are near 0."""
    dist, offset = st.floats(1.0, 170.0), st.floats(0.0, 1e-10)
    d_im, d_jm = draw(dist), draw(dist)
    if draw(st.booleans()):
        alpha, d_ie = 1.0, draw(dist)
        d_je = d_jm * d_ie / d_im * (1.0 + draw(offset))
        assume(d_je >= 1.0)
    else:
        alpha = draw(st.sampled_from([2.0, 3.0]))
        d_ie, d_je = d_im * (1.0 + draw(offset)), d_jm * (1.0 + draw(offset))
    noise = st.floats(-11.0, -9.0).map(lambda e: 10.0 ** e)
    noise_m = draw(noise)
    noise_e = draw(st.one_of(st.just(noise_m), noise))
    p = distance_corrected_power(0.05, ChannelParams(pathloss_alpha=alpha))
    return FjArgs(d_im, d_ie, d_jm, d_je, alpha, noise_m, noise_e, p, p)


@settings(max_examples=200, deadline=None)
@given(near_degenerate_geometries())
def test_near_degenerate_geometries_reach_the_grid_search_best(geom):
    # the root finders have no degeneracy threshold; next to the degenerate quadratics both
    # optimizers still reach the dense grid's best within test_optimize_matches_grid_search's tolerance
    best_grid, _ = grid_search_best(geom, points=20001)
    lane = geom._replace(**{k: np.array([getattr(geom, k)]) for k in ("d_im", "d_ie", "d_jm", "d_je", "p_i", "p_max")})
    for power in (optimize_fj_power(*geom), float(best_power(lane)[0])):
        assert 0.0 <= power <= geom.p_max
        assert ratio_secrecy(geom, power) >= best_grid - 1e-6



def test_array_optimizer_matches_scalar():
    # the grid engine's optimizer against the scalar one, lane by lane, on
    # random (three noise ratios), p_max = 0, symmetric (a = b = c = 0)
    # and linear (a ~ 0) geometries; both get the same distances to the
    # power alpha, raised once, at alpha 1, so their powers are equal
    rng = np.random.default_rng(15)
    lanes = [random_fj_geometry(rng, noise_e=n_e) for n_e in (1e-10, 1e-11, 1e-9) for _ in range(2000)]
    lanes += [geom._replace(p_max=0.0) for geom in lanes[::60]]
    common = dict(noise_m=1e-10, noise_e=1e-10, p_i=P_50MW, p_max=P_50MW)
    symmetric = [
        FjArgs(d_im=d, d_ie=d, d_jm=e, d_je=e, alpha=3.0, **common)
        for d, e in rng.uniform(1.0, 170.0, (50, 2)).tolist()
    ]
    assert all(coefficients(geom)[1] == (0.0, 0.0, 0.0) for geom in symmetric)
    linear = [
        FjArgs(d_im=4.0, d_ie=6.0, d_jm=6.0, d_je=9.0 * (1.0 + eps), alpha=1.0, **common)
        for eps in (0.0, 1e-16, 1e-14, 1e-12)
    ]
    lanes += symmetric + linear
    raised = [
        geom._replace(**{k: getattr(geom, k) ** geom.alpha for k in ("d_im", "d_ie", "d_jm", "d_je")}, alpha=1.0)
        for geom in lanes
    ]

    groups = {}
    for geom in raised:
        groups.setdefault((geom.noise_m, geom.noise_e), []).append(geom)
    for (noise_m, noise_e), group in groups.items():
        col = {
            name: np.array([getattr(geom, name) for geom in group])
            for name in ("d_im", "d_ie", "d_jm", "d_je", "p_i", "p_max")
        }
        p_opt = best_power(FjArgs(
            col["d_im"], col["d_ie"], col["d_jm"], col["d_je"], 1.0, noise_m, noise_e, col["p_i"], col["p_max"]
        ))
        for geom, power in zip(group, p_opt.tolist()):
            assert power.hex() == optimize_fj_power(*geom).hex(), geom


@pytest.mark.parametrize("alpha, noise_e", [(2.0, 1e-10), (3.0, 1e-10), (2.418, 1e-9), (3.1, 1e-11)])
def test_array_pick_matches_sort_and_first_argmax(alpha, noise_e):
    # the array and the scalar optimizer against the reference of their rule:
    # the candidates sorted per lane and the first largest num / den taken by
    # argmax; random lanes, lanes with p_max = 0, and symmetric lanes whose
    # candidates all tie exactly; both get the same distances to the power
    # alpha, raised once, at alpha 1
    rng = np.random.default_rng(16)
    d = rng.uniform(1.0, 170.0, (4, 3000))
    sym = rng.uniform(1.0, 170.0, (2, 300))
    d_im, d_ie = np.concatenate([d[0], sym[0]]), np.concatenate([d[1], sym[0]])
    d_jm, d_je = np.concatenate([d[2], sym[1]]), np.concatenate([d[3], sym[1]])
    p_i = np.full(d_im.size, P_50MW)
    p_max = np.where(np.arange(d_im.size) % 7 == 0, 0.0, P_50MW)
    lanes = FjArgs(d_im ** alpha, d_ie ** alpha, d_jm ** alpha, d_je ** alpha, 1.0, 1e-10, noise_e, p_i, p_max)

    _, quad, ratio = coefficients(lanes)
    # the lanes whose roots the scalar finder drops and the array clamps map to an endpoint:
    # a negative discriminant, a == 0 (the symmetric lanes) and, at equal noises, q == 0 as well
    a, b, c = quad
    disc = b * b - 4.0 * a * c
    q = -(b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b)) / 2.0
    assert np.count_nonzero(disc < 0.0) > 300 and np.count_nonzero(a == 0.0) >= 300
    cands = np.sort(np.stack((np.zeros_like(p_max), p_max, *clamped_roots(quad, p_max))), axis=0)
    num, den = _ratio_terms(ratio, cands)
    values = num / den
    expected = np.take_along_axis(cands, np.argmax(values, axis=0)[None, :], axis=0)[0]
    ties = np.all(values == values[0], axis=0) & (p_max > 0.0)

    columns = zip(*(a.tolist() for a in (*lanes[:4], p_i, p_max)))
    scalar = np.array([optimize_fj_power(*d, 1.0, 1e-10, noise_e, p, cap) for *d, p, cap in columns])
    for got in best_power(lanes), scalar:
        assert [p.hex() for p in got.tolist()] == [p.hex() for p in expected.tolist()]
        assert np.array_equal(np.signbit(got), np.signbit(expected))
        assert np.count_nonzero(got[p_max == 0.0]) == 0
        # ties go to +0.0, never to a root clamped to -0.0
        assert np.count_nonzero(got[ties]) == 0 and not np.any(np.signbit(got[ties | (p_max == 0.0)]))
    if noise_e == 1e-10:
        assert np.count_nonzero(ties) > 200
        assert np.count_nonzero((q == 0.0) & (disc >= 0.0)) >= 300


@pytest.mark.parametrize("alpha, noise_e", [(2.0, 1e-10), (3.0, 1e-10), (2.418, 1e-9), (3.1, 1e-11)])
def test_scalar_pick_matches_sort_and_first_max(alpha, noise_e):
    # the scalar twin of the test above, on the optimizer's own alpha: its
    # loop against max() of num / den over the sorted candidate set, which
    # keeps the first of equal values; random lanes, lanes with p_max = 0,
    # and symmetric lanes that tie exactly
    rng = np.random.default_rng(16)
    d = rng.uniform(1.0, 170.0, (4, 600)).tolist()
    sym = rng.uniform(1.0, 170.0, (2, 100)).tolist()
    lanes = list(zip(*d)) + [(e, e, f, f) for e, f in zip(*sym)]
    ties = 0
    for k, dists in enumerate(lanes):
        geom = FjArgs(*dists, alpha, 1e-10, noise_e, P_50MW, 0.0 if k % 7 == 0 else P_50MW)
        ratio = coefficients(geom)[2]
        values = {p: operator.truediv(*_ratio_terms(ratio, p)) for p in set(candidate_powers(geom))}
        expected = max(sorted(values), key=values.get)
        got = optimize_fj_power(*geom)
        assert got.hex() == expected.hex(), geom
        assert math.copysign(1.0, got) == math.copysign(1.0, expected)
        if geom.p_max == 0.0 or (len(set(values.values())) == 1 and len(values) > 1):
            ties += geom.p_max > 0.0
            assert got == 0.0 and math.copysign(1.0, got) == 1.0, geom
    if noise_e == 1e-10:
        assert ties > 60


def min_max_clamped_power(geom, roots):
    """optimize_fj_power's pick over ``roots``, each clamped by ``min(max(root, 0.0), p_max)``."""
    ratio = coefficients(geom)[2]
    best_p, best_v = 0.0, ratio[2] / ratio[4]
    for p in [*sorted(min(max(root, 0.0), geom.p_max) for root in roots), geom.p_max]:
        num, den = _ratio_terms(ratio, p)
        if (v := num / den) > best_v:
            best_p, best_v = p, v
    return best_p


def test_comparison_clamp_returns_the_power_of_min_and_max(monkeypatch):
    # optimize_fj_power clamps its roots by comparisons; on 100,000 random geometries its
    # power equals, by float.hex, the pick over the min / max clamp of the same roots: the
    # quadratic's own roots in a third of them, in the rest two of -0.0, 0.0, p_max, the
    # floats next to 0 and p_max, inside and beyond the interval, infinities and nan
    rng = np.random.default_rng(27)
    n = 100_000
    d = rng.uniform(1.0, 170.0, (4, n)).tolist()
    alphas = rng.choice([2.0, 3.0, 2.418], n).tolist()
    p_max = np.where(rng.random(n) < 0.1, 0.0, P_50MW * rng.uniform(1.0, 2.0, n)).tolist()
    picks, draws = rng.integers(0, 12, (2, n)).tolist(), rng.random((2, n)).tolist()
    roots = []
    monkeypatch.setattr(fjopt, "derivative_numerator_roots", lambda quad: list(roots))
    kinds = Counter()
    for k in range(n):
        geom = FjArgs(d[0][k], d[1][k], d[2][k], d[3][k], alphas[k], 1e-10, 1e-10, P_50MW, p_max[k])
        top = geom.p_max
        special = [
            -0.0, 0.0, top, math.nextafter(top, math.inf), math.nextafter(top, -math.inf), math.nextafter(0.0, -1.0),
            math.nextafter(0.0, 1.0), 2.0 * top + 1.0, -1.0, math.inf, -math.inf, math.nan,
        ]
        if k % 3 == 0:
            roots[:] = derivative_numerator_roots(coefficients(geom)[1])
        else:
            roots[:] = [special[picks[0][k]], special[picks[1][k]]] if draws[0][k] < 0.8 else [special[picks[0][k]]]
            if draws[1][k] < 0.3:
                roots.append(top * draws[1][k] / 0.3)  # an interior root beside the special one
        got, expected = optimize_fj_power(*geom), min_max_clamped_power(geom, roots)
        assert got.hex() == expected.hex(), (geom, roots)
        kinds[(got == 0.0, got == top)] += 1
    # zero, p_max and interior powers all occur
    assert min(kinds[(True, False)], kinds[(False, True)], kinds[(False, False)]) > 1000, kinds


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
    caps, quad, ratio = coefficients(geom)
    for value in caps + quad + ratio:
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
    at the corners of the Monte Carlo square: ``_coefficients`` from the grid engine's
    eavesdropper terms, the roots'
    ``b*b`` and ``4*a*c`` and the ratio terms at ``p_max``."""
    scenario, par = loaded.scenario, loaded.scenario.params
    _, _, aps = _eve_terms(scenario, loaded.sweep)
    extent = scenario.map_extent
    stations = [scenario.sta_m] + [Point2D(x, y) for x in (0.0, extent) for y in (0.0, extent)]
    values = []
    for sta in stations:
        links = [
            (effective_distance(distance(ap.position, sta), par) ** par.pathloss_alpha, d_a, ap)
            for ap, (d_a, *_) in zip((scenario.ap1, scenario.ap2), aps)
        ]
        for (dim_a, die_a, ap_i), (djm_a, dje_a, ap_j) in (links, links[::-1]):
            p_i = np.full(die_a.shape, distance_corrected_power(ap_i.tx_power, par))
            p_max = np.full(die_a.shape, distance_corrected_power(ap_j.tx_power_max, par))
            dim_a, djm_a = np.full(die_a.shape, dim_a), np.full(die_a.shape, djm_a)
            caps, (a, b, c), ratio = _coefficients(dim_a, die_a, djm_a, dje_a, par.noise_m, par.noise_e, p_i)
            values += [*caps, *ratio, a, b, c, b * b, 4.0 * a * c]
            values += _ratio_terms(ratio, p_max)
    return values


def test_largest_accepted_alpha_keeps_the_closed_form_finite(tmp_path):
    # scenario1's full 120 x 120 geometry at the largest alpha the loader
    # accepts, outside _clamped_roots and its errstate
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


def accepted(doc) -> bool:
    """Whether ``Scenario`` accepts ``doc``, built as the loader builds it."""
    ch, sta, grid = doc["channel"], doc["sta_m"], doc["grid"]
    keys = ("center_freq_hz", "ref_distance_m", "alpha", "noise_m_watt", "noise_e_watt")
    try:
        ap1, ap2 = (ApConfig(Point2D(ap["x"], ap["y"]), ap["tx_power_watt"], ap["tx_power_max_watt"]) for ap in doc["aps"])
        Scenario(ap1, ap2, Point2D(sta["x"], sta["y"]), ChannelParams(1.0, *map(ch.get, keys)), grid["k"] * grid["step_m"])
    except ValueError:
        return False
    return True


@st.composite
def extreme_documents(draw):
    """Scenario documents over the whole float range: powers, noises and
    frequencies over hundreds of decades, maps from micrometres to 1e6 m.

    Such draws are mostly refused, so two in three are pulled toward a safe
    scenario (10 mW, 2.4 GHz, 1e-10 W noise, alpha 2): the logs of the powers,
    the frequency and the noises, and alpha, move the fraction ``t`` of the way
    from it to the draw, with ``t`` at the largest that ``Scenario`` accepts
    (found by bisection) or below it."""
    scale = draw(log_uniform(-7.0, 6.0))
    where = st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)).map(lambda p: (p[0] * scale, p[1] * scale))
    ap1 = draw(where)
    ap2 = draw(where.filter(lambda p: p != ap1))
    sta = draw(where)
    grid = {"k": draw(st.integers(1, 4)), "step_m": scale * draw(st.floats(0.01, 1.0))}
    d0 = draw(log_uniform(-6.0, 3.0))
    # (safe log10 or alpha, drawn log10 or alpha) per magnitude
    tx = [(-2.0, draw(st.floats(-300.0, 300.0))) for _ in range(2)]
    caps = [draw(st.floats(1.0, 100.0)) for _ in range(2)]
    f0 = (math.log10(2.4e9), draw(st.floats(-200.0, 12.0)))
    alpha = (2.0, draw(st.floats(1.0, 400.0)))
    noises = [(-10.0, draw(st.floats(-300.0, 300.0))) for _ in range(2)]

    def document(t):
        def at(pair, log=True):
            value = pair[1] if t == 1.0 else pair[0] + t * (pair[1] - pair[0])
            return 10.0 ** value if log else value

        aps = [
            {"x": x, "y": y, "tx_power_watt": at(p), "tx_power_max_watt": at(p) * cap}
            for (x, y), p, cap in zip((ap1, ap2), tx, caps)
        ]
        channel = {
            "center_freq_hz": at(f0), "ref_distance_m": d0, "alpha": at(alpha, log=False),
            "noise_m_watt": at(noises[0]), "noise_e_watt": at(noises[1]),
        }
        return {"channel": channel, "aps": aps, "sta_m": dict(zip("xy", sta)), "grid": grid, "policy": "smart_fj"}

    pull = draw(st.sampled_from(["none", "edge", "inside"]))
    if pull == "none" or accepted(document(1.0)):
        return document(1.0)
    low, high = 0.0, 1.0
    for _ in range(40):
        middle = (low + high) / 2
        low, high = (middle, high) if accepted(document(middle)) else (low, middle)
    return document(low if pull == "edge" else low * draw(st.floats(0.0, 1.0)))


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
    event("refused" if loaded is None else "accepted")
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


def test_extreme_documents_are_accepted_in_a_third_of_the_examples():
    # the test above checks nothing on a refused document, so at least a
    # third of its examples must load; the wide, refused draws stay too
    verdicts = []

    @settings(max_examples=300, deadline=None, database=None)
    @given(extreme_documents())
    def collect(doc):
        with tempfile.TemporaryDirectory() as tmp:
            verdicts.append(load_with_channel(Path(tmp), doc) is not None)

    collect()
    assert len(verdicts) / 3 <= sum(verdicts) < len(verdicts)


def test_scenario_once_refused_for_a_bound_nothing_reaches_loads_and_runs(tmp_path):
    # P**3 * Q**4 overflows here, but no value of the closed form grows like it, so the range
    # check accepts this scenario and every path stays finite on it
    doc = json.loads(bundled_scenario_path("scenario1").read_text())
    for ap in doc["aps"]:
        ap.update(tx_power_watt=1.64e85, tx_power_max_watt=1.64e85)
    loaded = load_with_channel(
        tmp_path, doc, center_freq_hz=21.5, alpha=3.585, noise_m_watt=9.76e-123, noise_e_watt=9.76e-123
    )
    assert loaded is not None
    scenario = loaded.scenario
    e = scenario.map_extent
    corners = [Point2D(x, y) for x in (0.0, e) for y in (0.0, e)]
    with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
        warnings.simplefilter("error")
        assert all(np.isfinite(v).all() for v in closed_form_values(loaded))
        for policy in PolicyKind:
            summary = sweep_eavesdropper(scenario, replace(loaded.sweep, policy=policy), retain_cells=False)
            assert all(np.isfinite(v).all() for v in vars(summary.arrays).values())
            for sta_e in [scenario.sta_m, scenario.ap1.position, scenario.ap2.position] + corners:
                assert all(math.isfinite(v) for v in vars(select(scenario, sta_e, policy)).values())
        means = monte_carlo(scenario, loaded.sweep, 2, seed=1).means
    assert all(math.isfinite(v) for m in means.values() for v in vars(m).values())


class Bound:
    """An upper bound on a value's magnitude: ``terms`` maps the exponents ``(i, j, k)`` of the monomials
    ``P**i * N**j * Q**k`` to nonnegative coefficients, and a ``signed`` value may be negative. Each result
    of an operation is appended to ``trace``."""

    def __init__(self, terms, signed=False, trace=None):
        self.terms, self.signed, self.trace = terms, signed, trace

    def _result(self, terms, signed):
        self.trace.append(Bound(dict(terms), signed, self.trace))
        return self.trace[-1]

    def __add__(self, other):
        return self._result(Counter(self.terms) + Counter(other.terms), self.signed or other.signed)

    def __sub__(self, other):
        if self.signed or other.signed:
            return self._result(Counter(self.terms) + Counter(other.terms), True)
        # |x - y| <= max(x, y) for nonnegative x and y
        keys = self.terms.keys() | other.terms.keys()
        return self._result({e: max(self.terms.get(e, 0), other.terms.get(e, 0)) for e in keys}, True)

    def __mul__(self, other):
        if not isinstance(other, Bound):
            return self._result({e: abs(other) * c for e, c in self.terms.items()}, self.signed or other < 0)
        terms = Counter()
        for (e, c), (f, d) in itertools.product(self.terms.items(), other.terms.items()):
            terms[tuple(map(operator.add, e, f))] += c * d
        return self._result(terms, self.signed or other.signed)

    __rmul__ = __mul__

    def __abs__(self):
        return self._result(self.terms, False)


class Low:
    """A lower bound ``N_m**i * N_e**j * Q0**k`` on a value, as ``exp = (i, j, k)``; None when the value
    is only known to be nonnegative, and ``signed`` when it may be negative. ``chain`` lists the bounds of
    the operands and results of the products that made the value, its own last."""

    def __init__(self, exp, chain=(), signed=False):
        self.exp, self.chain, self.signed = exp, (*chain, exp), signed

    def __mul__(self, other):
        if not isinstance(other, Low):  # the literal 2.0, which only grows a value
            return self
        exp = None if None in (self.exp, other.exp) else tuple(map(operator.add, self.exp, other.exp))
        return Low(exp, self.chain + other.chain, self.signed or other.signed)

    __rmul__ = __mul__

    def __add__(self, other):
        # a sum of nonnegative values is at least each of them
        return Low(self.exp if other.exp is None else other.exp, signed=self.signed or other.signed)

    def __sub__(self, other):
        return Low(None, signed=True)


def in_hull(point, corners) -> bool:
    """Whether ``point`` lies in the convex hull of ``corners``, in exact integer arithmetic: on the
    corners' side of every plane through three of them that has no corner on its other side."""
    def minus(u, v):
        return tuple(x - y for x, y in zip(u, v))

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    for a, b, c in itertools.combinations(corners, 3):
        (u1, u2, u3), (v1, v2, v3) = minus(b, a), minus(c, a)
        normal = (u2 * v3 - u3 * v2, u3 * v1 - u1 * v3, u1 * v2 - u2 * v1)
        sides = {dot(normal, minus(k, a)) > 0 for k in corners if dot(normal, minus(k, a))}
        if normal == (0, 0, 0) or len(sides) == 2:
            continue
        at = dot(normal, minus(point, a))
        if at and (at > 0) not in sides:
            return False
    return True


def test_float_range_bound_is_derived_from_the_code(monkeypatch):
    # From above: P bounds the corrected powers and caps, N the noises, Q every d**alpha. The closed form's
    # values, its ratio terms at p_j = P, and _clamped_roots' discriminant, which is restated here
    # because it is written into buffers, all stay below 20 monomials of the corners' hull.
    trace = []
    inputs = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    big_p, big_n, big_q = (Bound({e: 1}, trace=trace) for e in inputs)
    _, (a, b, c), ratio = _coefficients(big_q, big_q, big_q, big_q, big_n, big_n, big_p)
    _ratio_terms(ratio, big_p)
    b * b - 4.0 * a * c
    assert max(sum(value.terms.values()) for value in trace) <= 20
    exponents = {e for value in trace for e in value.terms} - set(inputs)
    assert exponents >= set(_CORNERS)
    assert [e for e in sorted(exponents) if not in_hull(e, _CORNERS)] == []

    # From below: the ratio terms at p_j >= 0 are at least K, and the least of K's operands and partial
    # products is the least of the terms _check_float_range refuses below 2**-1021
    n_m, n_e, q0 = (Low(e) for e in inputs)
    caps, _, ratio = _coefficients(q0, q0, q0, q0, n_m, n_e, Low(None))
    terms = _ratio_terms(ratio, Low(None))
    assert [(t.exp, t.signed) for t in terms] == [(caps[6].exp, False)] * 2
    chain = set(caps[6].chain)
    checked = []
    monkeypatch.setattr(fjopt, "min", lambda *values: checked.append(values) or min(*values), raising=False)
    binding, alpha = set(), 2.0
    for logs in np.random.default_rng(19).uniform(-8.0, 8.0, (400, 3)).tolist():
        noise_m, noise_e, d0 = 2.0 ** logs[0], 2.0 ** logs[1], 2.0 ** (logs[2] / 4.0 / alpha)
        fjopt._check_float_range(1.0, noise_m, noise_e, alpha, d0, d0)
        logs = math.log2(noise_m), math.log2(noise_e), alpha * math.log2(d0)
        least = {e: sum(map(operator.mul, e, logs)) for e in chain}
        binding.add(min(least, key=least.get))
        assert min(checked[-1]) == pytest.approx(min(least.values()), rel=1e-12, abs=1e-12)
    assert binding == {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 1, 4)}
