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

The closed form is written once, as arithmetic on floats or arrays, shared
by :func:`optimize_fj_power` (nine floats, for ``policy.select``) and
:func:`optimize_fj_power_array` (array distances and powers, for the grid
sweep). Both break ties to the smallest power and trust a ``Scenario``'s values.
"""

import math

import numpy as np

# Relative threshold below which the derivative quadratic is treated as
# linear (and below which the linear term is treated as absent). Symmetric
# geometries drive the coefficients to exact zero; near-symmetric ones to
# values dominated by rounding noise.
DEGENERACY_EPS = 1e-12


def _coefficients(d_im, d_ie, d_jm, d_je, alpha, noise_m, noise_e, p_i):
    """The objective constants ``(A, B, C, D, E, F, K)`` and the derivative
    quadratic ``(a, b, c)``, from floats or equal-shape arrays, bit for bit alike.

    The quadratic coefficients are the algebraically simplified forms

        a = p_i*A*(E - C)
        b = 2*p_i*A*(F - D)
        c = p_i*B*(F - D) + p_i**2*(C*F - E*D) + p_i*K*(C - E)

    Each ``d**alpha`` is evaluated once. With ``P``, ``N`` and ``Q`` bounds on
    the corrected powers and caps, the noises and every ``d**alpha``: ``|a| <=
    P*Q**4``, ``|b| <= 2*P*N*Q**5``, ``|c| <= 3*P*N**2*Q**6 + P**2*N*Q**5``, and
    the roots' ``b*b`` and ``4*a*c``, the largest values at physical sizes, stay
    below ``16*P**2*N**2*Q**10 + 4*P**3*N*Q**9``. Every value here, in
    :func:`_ratio_terms` and in the roots up to their clamped quotients is a sum
    of at most 20 monomials ``P**i * N**j * Q**k``, their exponents in the hull of
    the ten corners :func:`_check_float_range` lists; ``Scenario`` refuses a
    scenario where 20 times the largest is not below ``2**1023``. From below, at
    ``p_j >= 0`` :func:`_ratio_terms` sums nonnegative terms, so both results are
    at least ``K``, whose partial products are at least the least of ``N_m``, ``N_e``,
    ``Q0``, ``N_m*N_e`` and ``N_m*N_e*Q0**4`` for ``Q0 = d0**alpha``, the least ``d**alpha``;
    ``Scenario`` refuses a scenario where that is below ``2**-1021``, so none is subnormal.
    """
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
    return (cap_a, cap_b, cap_c, cap_d, cap_e, cap_f, cap_k), (quad_a, quad_b, quad_c)


def _check_float_range(p, noise_m, noise_e, alpha, d0, d) -> None:
    """Raise ``ValueError`` outside :func:`_coefficients`' bounds, in logs: ``p`` is the largest
    corrected cap, ``d`` the largest distance from an AP to a map corner or the station."""
    corners = ((0, 0, 2), (0, 1, 5), (0, 2, 0), (0, 2, 4), (1, 0, 4),
               (1, 2, 4), (2, 0, 0), (2, 2, 10), (3, 0, 4), (3, 1, 9))
    logs = math.log2(p), math.log2(max(noise_m, noise_e)), alpha * min(math.log2(max(d, d0)), 1024.0)
    if math.log2(20.0) + max(i * logs[0] + j * logs[1] + k * logs[2] for i, j, k in corners) >= 1023.0:
        raise ValueError("channel.alpha overflows the jamming power's closed form on this map")
    n_m, n_e, q0 = math.log2(noise_m), math.log2(noise_e), alpha * math.log2(d0)
    if min(n_m, n_e, q0, n_m + n_e, n_m + n_e + 4.0 * q0) < -1021.0:
        raise ValueError("channel.noise_m_watt, noise_e_watt, ref_distance_m and alpha underflow the closed form")


def _ratio_terms(caps, p_i, p_j):
    """Numerator and denominator of f at ``p_j``, from floats or arrays."""
    cap_a, cap_b, cap_c, cap_d, cap_e, cap_f, cap_k = caps
    p_sq = p_j * p_j
    num = cap_a * p_sq + (cap_b + p_i * cap_c) * p_j + (p_i * cap_d + cap_k)
    den = cap_a * p_sq + (cap_b + p_i * cap_e) * p_j + (p_i * cap_f + cap_k)
    return num, den


def _log2_ratio(caps, p_i: float, p_j: float) -> float:
    """log2 of the objective ratio f at jamming power p_j (bandwidth-free)."""
    num, den = _ratio_terms(caps, p_i, p_j)
    return math.log2(num) - math.log2(den)


def derivative_numerator_roots(quad, p_scale: float) -> list[float]:
    """Real roots of ``a*x**2 + b*x + c = 0`` for ``quad = (a, b, c)``, unclamped.

    ``p_scale`` (typically the power cap) renders the three coefficients
    commensurable for the degeneracy tests: the quadratic term is dropped
    when it cannot matter anywhere on the interval of that scale, and the
    quadratic formula uses the cancellation-free form (coefficient
    magnitudes legitimately span ~1e-20 to ~1e10).
    """
    a, b, c = quad
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


def optimize_fj_power(d_im, d_ie, d_jm, d_je, alpha, noise_m, noise_e, p_i, p_max) -> float:
    """The jamming power in ``[0, p_max]`` that maximizes secrecy, from the
    clamped distances (m) and corrected powers (Watt*m^alpha) of a ``Scenario``.

    Candidates are the clamped roots of the derivative numerator plus the
    interval endpoints; the best objective value among them is the global
    maximum because the objective is smooth and every interior extremum
    is a root. Ties break to the smallest power, so jamming is never
    reported when it buys nothing.
    """
    caps, quad = _coefficients(d_im, d_ie, d_jm, d_je, alpha, noise_m, noise_e, p_i)
    candidates = {0.0, p_max}
    for root in derivative_numerator_roots(quad, p_max):
        candidates.add(min(max(root, 0.0), p_max))
    # max keeps the first of equal values, and the powers ascend
    return max(sorted(candidates), key=lambda p: _log2_ratio(caps, p_i, p))


def _candidate_powers(quad, p_max) -> tuple[np.ndarray, ...]:
    """Per lane: 0, ``p_max`` and the two roots of :func:`derivative_numerator_roots`
    clamped to ``[0, p_max]``; a lane without a usable root gets 0."""
    a, b, c = quad
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
    caps, quad = _coefficients(d_im, d_ie, d_jm, d_je, alpha, noise_m, noise_e, p_i)
    powers = _candidate_powers(quad, p_max)
    values = [np.log2(num) - np.log2(den) for num, den in (_ratio_terms(caps, p_i, p) for p in powers)]
    # running maximum over the candidates; the smallest power wins ties
    best_p, best_v = powers[0], values[0]
    for p, v in zip(powers[1:], values[1:]):
        better = (v > best_v) | ((v == best_v) & (p < best_p))
        best_p, best_v = np.where(better, p, best_p), np.where(better, v, best_v)
    return best_p
