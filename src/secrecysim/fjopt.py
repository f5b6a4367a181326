"""Closed-form optimal friendly-jamming power for a fixed pair of links.

With the data AP transmitting at fixed power ``p_i`` and the idle AP
jamming at power ``p_j`` (both in distance-corrected Watt*m^alpha), the
secrecy difference between the legitimate link and the eavesdropper link
equals ``W * log2(f(p_j))`` where ``f`` is a ratio of two quadratics in
``p_j`` sharing the same leading and linear base terms:

    f(p_j) = (A*p_j**2 + (B + p_i*C)*p_j + p_i*D + K)
             / (A*p_j**2 + (B + p_i*E)*p_j + p_i*F + K)

All seven constants are strictly positive products of clamped distances
raised to the path-loss exponent and of the two receivers' noise powers
(the legitimate station's ``N_m`` and the eavesdropper's ``N_e``, which
may differ), so numerator and denominator never vanish on ``p_j >= 0``.
The derivative of ``f`` has the sign of a plain quadratic
``a*p_j**2 + b*p_j + c`` (its denominator is a positive square), so the
maximizer over ``[0, p_max]`` is one of at most four candidates: the two
clamped real roots of that quadratic plus the two interval endpoints.

The closed form is written once, as arithmetic on floats or arrays,
and shared by :func:`optimize_fj_power` (one geometry, pure Python) and
:func:`optimize_fj_power_array` (arrays of geometries, for the grid
sweep). Both return only the chosen power, which does not depend on the
bandwidth, and break ties between candidates to the smallest power.
"""

import math
from dataclasses import dataclass

import numpy as np

# Relative threshold below which the derivative quadratic is treated as
# linear (and below which the linear term is treated as absent). Symmetric
# geometries drive the coefficients to exact zero; near-symmetric ones to
# values dominated by rounding noise.
DEGENERACY_EPS = 1e-12


@dataclass(frozen=True)
class FjGeometry:
    """Inputs of one jamming-power optimization.

    Distances are meters and must already be clamped to the reference
    distance; powers are distance-corrected (Watt*m^alpha). ``noise_m``
    and ``noise_e`` are the station's and the eavesdropper's noise floors.
    """

    d_im: float
    d_ie: float
    d_jm: float
    d_je: float
    alpha: float
    noise_m: float
    noise_e: float
    p_i: float
    p_max: float

    def __post_init__(self):
        if min(self.d_im, self.d_ie, self.d_jm, self.d_je) <= 0:
            raise ValueError("distances must be positive (and pre-clamped)")
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")
        if self.noise_m <= 0 or self.noise_e <= 0:
            raise ValueError("noise_m and noise_e must be strictly positive")
        if self.p_i <= 0:
            raise ValueError("p_i must be positive")
        if self.p_max < 0:
            raise ValueError("p_max must be nonnegative")


@dataclass(frozen=True)
class FjCoefficients:
    """The seven objective constants and the three derivative-numerator
    ones, as floats or as equal-shape arrays."""

    cap_a: float
    cap_b: float
    cap_c: float
    cap_d: float
    cap_e: float
    cap_f: float
    cap_k: float
    quad_a: float
    quad_b: float
    quad_c: float


def _coefficients(d_im, d_ie, d_jm, d_je, alpha, noise_m, noise_e, p_i) -> FjCoefficients:
    """A..K and a, b, c from floats or equal-shape arrays, bit for bit alike."""
    dim_a = d_im ** alpha
    die_a = d_ie ** alpha
    djm_a = d_jm ** alpha
    dje_a = d_je ** alpha

    cap_a = dim_a * die_a
    cap_b = noise_e * die_a * dje_a * dim_a + noise_m * dim_a * djm_a * die_a
    cap_c = djm_a * die_a
    cap_d = noise_e * die_a * dje_a * djm_a
    cap_e = dim_a * dje_a
    cap_f = noise_m * dim_a * djm_a * dje_a
    cap_k = noise_m * noise_e * dim_a * djm_a * die_a * dje_a

    quad_a = p_i * cap_a * (cap_e - cap_c)
    quad_b = 2.0 * p_i * cap_a * (cap_f - cap_d)
    quad_c = (
        p_i * cap_b * (cap_f - cap_d)
        + p_i * p_i * (cap_c * cap_f - cap_e * cap_d)
        + p_i * cap_k * (cap_c - cap_e)
    )
    return FjCoefficients(cap_a, cap_b, cap_c, cap_d, cap_e, cap_f, cap_k, quad_a, quad_b, quad_c)


def _ratio_terms(co: FjCoefficients, p_i, p_j):
    """Numerator and denominator of f at ``p_j``, from floats or arrays."""
    p_sq = p_j * p_j
    num = co.cap_a * p_sq + (co.cap_b + p_i * co.cap_c) * p_j + (p_i * co.cap_d + co.cap_k)
    den = co.cap_a * p_sq + (co.cap_b + p_i * co.cap_e) * p_j + (p_i * co.cap_f + co.cap_k)
    return num, den


def compute_coefficients(geom: FjGeometry) -> FjCoefficients:
    """Evaluate the objective constants A..K and the derivative quadratic a, b, c.

    The quadratic coefficients are the algebraically simplified forms

        a = p_i*A*(E - C)
        b = 2*p_i*A*(F - D)
        c = p_i*B*(F - D) + p_i**2*(C*F - E*D) + p_i*K*(C - E)

    Each ``d**alpha`` term is evaluated once and combined in products of at
    most four factors, which stays far from overflow for distances up to
    1e3 m and alpha up to 4.
    """
    return _coefficients(
        geom.d_im, geom.d_ie, geom.d_jm, geom.d_je, geom.alpha, geom.noise_m, geom.noise_e, geom.p_i
    )


def _log2_ratio(co: FjCoefficients, p_i: float, p_j: float) -> float:
    """log2 of the objective ratio f at jamming power p_j (bandwidth-free)."""
    num, den = _ratio_terms(co, p_i, p_j)
    return math.log2(num) - math.log2(den)


def derivative_numerator_roots(co: FjCoefficients, p_scale: float) -> list[float]:
    """Real roots of ``quad_a*x**2 + quad_b*x + quad_c = 0``, unclamped.

    ``p_scale`` (typically the power cap) renders the three coefficients
    commensurable for the degeneracy tests: the quadratic term is dropped
    when it cannot matter anywhere on the interval of that scale, and the
    quadratic formula uses the cancellation-free form (coefficient
    magnitudes legitimately span ~1e-20 to ~1e10).
    """
    a, b, c = co.quad_a, co.quad_b, co.quad_c
    s = p_scale if p_scale > 0 else 1.0
    a_n = abs(a) * s * s
    b_n = abs(b) * s
    c_n = abs(c)
    if a_n <= DEGENERACY_EPS * max(b_n, c_n):
        # effectively linear; if the linear term is negligible too, the
        # derivative keeps one sign and the endpoints suffice
        if b_n <= DEGENERACY_EPS * c_n or b == 0.0:
            return []
        return [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -(b + math.copysign(math.sqrt(disc), b)) / 2.0
    roots = [q / a]
    if q != 0.0:
        roots.append(c / q)
    return roots


def optimize_fj_power(geom: FjGeometry) -> float:
    """The jamming power in ``[0, p_max]`` that maximizes secrecy.

    Candidates are the clamped roots of the derivative numerator plus the
    interval endpoints; the best objective value among them is the global
    maximum because the objective is smooth and every interior extremum
    is a root. Ties break to the smallest power, so jamming is never
    reported when it buys nothing.
    """
    co = compute_coefficients(geom)
    candidates = {0.0, geom.p_max}
    for root in derivative_numerator_roots(co, geom.p_max):
        candidates.add(min(max(root, 0.0), geom.p_max))
    # max keeps the first of equal values, and the powers ascend
    return max(sorted(candidates), key=lambda p: _log2_ratio(co, geom.p_i, p))


def _candidate_powers(co: FjCoefficients, p_max) -> tuple[np.ndarray, ...]:
    """Per lane: 0, ``p_max`` and the two roots of :func:`derivative_numerator_roots`
    clamped to ``[0, p_max]``; a lane without a usable root gets 0."""
    a, b, c = co.quad_a, co.quad_b, co.quad_c
    # np.where drops the branches a lane does not take
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.where(p_max > 0.0, p_max, 1.0)
        a_n = np.abs(a) * s * s
        b_n = np.abs(b) * s
        c_n = np.abs(c)
        linear = a_n <= DEGENERACY_EPS * np.maximum(b_n, c_n)
        linear_ok = linear & ~(b_n <= DEGENERACY_EPS * c_n) & (b != 0.0)
        disc = b * b - 4.0 * a * c
        quadratic = ~linear & (disc >= 0.0)
        q = -(b + np.copysign(np.sqrt(disc), b)) / 2.0
        root1 = np.where(quadratic, q / a, np.where(linear_ok, -c / b, 0.0))
        root2 = np.where(quadratic & (q != 0.0), c / q, 0.0)
    return np.zeros_like(p_max), p_max, np.clip(root1, 0.0, p_max), np.clip(root2, 0.0, p_max)


def optimize_fj_power_array(d_im, d_ie, d_jm, d_je, alpha, noise_m, noise_e, p_i, p_max) -> np.ndarray:
    """The power :func:`optimize_fj_power` returns, per lane of 1-d arrays
    of distances, ``p_i`` and ``p_max`` (the other arguments are scalars).
    Ties go to the smallest power; near ties may resolve otherwise than in
    the scalar optimizer, as ``np.log2`` and ``math.log2`` can differ."""
    co = _coefficients(d_im, d_ie, d_jm, d_je, alpha, noise_m, noise_e, p_i)
    powers = _candidate_powers(co, p_max)
    values = [np.log2(num) - np.log2(den) for num, den in (_ratio_terms(co, p_i, p) for p in powers)]
    # running maximum over the candidates; the smallest power wins ties
    best_p, best_v = powers[0], values[0]
    for p, v in zip(powers[1:], values[1:]):
        better = (v > best_v) | ((v == best_v) & (p < best_p))
        best_p, best_v = np.where(better, p, best_p), np.where(better, v, best_v)
    return best_p
