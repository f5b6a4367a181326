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
:func:`_best_power` (arrays of :func:`_coefficients`, for the grid sweep).
Both break ties to the smallest power and trust a ``Scenario``'s values.
"""

import math

import numpy as np

# the exponents ``(i, j, k)`` of the ten monomials ``P**i * N**j * Q**k`` that bound :func:`_coefficients`
_CORNERS = ((0, 0, 2), (0, 1, 5), (0, 2, 0), (0, 2, 4), (1, 0, 4),
            (1, 2, 4), (2, 0, 0), (2, 0, 2), (2, 2, 10), (3, 1, 9))


def _coefficients(dim_a, die_a, djm_a, dje_a, noise_m, noise_e, p_i):
    """The objective constants ``(A, B, C, D, E, F, K)``, the derivative quadratic ``(a, b, c)`` and
    the ratio's terms ``(A, B + p_i*C, p_i*D + K, B + p_i*E, p_i*F + K)`` from the distances raised to
    alpha, the noises and the data AP's power, floats or arrays, bit for bit alike.

    The quadratic coefficients are the algebraically simplified forms

        a = p_i*A*(E - C)
        b = 2*p_i*A*(F - D)
        c = p_i*B*(F - D) + p_i**2*(C*F - E*D) + p_i*K*(C - E)

    Each ``d**alpha`` is evaluated once, by the caller. With ``P``, ``N`` and ``Q`` bounds on
    the corrected powers and caps, the noises and every ``d**alpha``: ``|a| <=
    P*Q**4``, ``|b| <= 2*P*N*Q**5``, ``|c| <= 3*P*N**2*Q**6 + P**2*N*Q**5``, and
    the roots' ``b*b`` and ``4*a*c``, the largest values at physical sizes, stay
    below ``16*P**2*N**2*Q**10 + 4*P**3*N*Q**9``. Every value here, in
    :func:`_ratio_terms` and in the roots up to their clamped quotients is a sum
    of at most 20 monomials ``P**i * N**j * Q**k``, their exponents in the hull of
    the ten ``_CORNERS`` :func:`_check_float_range` checks; ``Scenario`` refuses a
    scenario where 20 times the largest is not below ``2**1023``. From below, at
    ``p_j >= 0`` :func:`_ratio_terms` sums nonnegative terms, so both results are
    at least ``K``, whose partial products are at least the least of ``N_m``, ``N_e``,
    ``Q0``, ``N_m*N_e`` and ``N_m*N_e*Q0**4`` for ``Q0 = d0**alpha``, the least ``d**alpha``;
    ``Scenario`` refuses a scenario where that is below ``2**-1021``, so none is subnormal.
    """
    eve = noise_e * die_a * dje_a
    cap_a = dim_a * die_a
    cap_b = eve * dim_a + noise_m * dim_a * djm_a * die_a
    cap_c = djm_a * die_a
    cap_d = eve * djm_a
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
    ratio = cap_a, cap_b + p_i * cap_c, p_i * cap_d + cap_k, cap_b + p_i * cap_e, p_i * cap_f + cap_k
    return (cap_a, cap_b, cap_c, cap_d, cap_e, cap_f, cap_k), (quad_a, quad_b, quad_c), ratio


def _check_float_range(p, noise_m, noise_e, alpha, d0, d) -> None:
    """Raise ``ValueError`` outside :func:`_coefficients`' bounds, in logs: ``p`` is the largest
    corrected cap, ``d`` the largest distance from an AP to a map corner or the station."""
    logs = math.log2(p), math.log2(max(noise_m, noise_e)), alpha * min(math.log2(max(d, d0)), 1024.0)
    if math.log2(20.0) + max(i * logs[0] + j * logs[1] + k * logs[2] for i, j, k in _CORNERS) >= 1023.0:
        raise ValueError("channel.alpha overflows the jamming power's closed form on this map or its cells")
    n_m, n_e, q0 = math.log2(noise_m), math.log2(noise_e), alpha * math.log2(d0)
    if min(n_m, n_e, q0, n_m + n_e, n_m + n_e + 4.0 * q0) < -1021.0:
        raise ValueError("channel.noise_m_watt, noise_e_watt, ref_distance_m and alpha underflow the closed form")


def _ratio_terms(ratio, p_j):
    """Numerator and denominator of f at ``p_j`` from :func:`_coefficients`' ratio terms, floats or arrays."""
    cap_a, lin_m, con_m, lin_e, con_e = ratio
    p_sq = p_j * p_j
    return cap_a * p_sq + lin_m * p_j + con_m, cap_a * p_sq + lin_e * p_j + con_e


def derivative_numerator_roots(quad) -> list[float]:
    """Real roots of ``a*x**2 + b*x + c = 0`` for ``quad = (a, b, c)``, unclamped, by the
    cancellation-free quadratic formula (coefficient magnitudes span ~1e-20 to ~1e10).

    The caller clamps the roots to ``[0, P]`` beside the endpoints 0 and ``P``, so no
    degeneracy branch is needed. With ``a == 0``, ``q == -b`` and ``c/q`` is the linear
    root ``-c/b``; with ``b == 0`` as well, ``q == 0``, no root is returned, and the
    derivative keeps the sign of ``c``. Near that, with ``eps = |a|*P/|b|`` small: a root
    ``x`` in ``[0, P]`` is ``-c/b - a*x*x/b``, within relative ``eps`` of ``-c/b``; ``|q/a|
    >= P/(2*eps)`` clamps to an endpoint; and a negative discriminant means ``|c/b| >
    P/(4*eps)``, so the linear root a threshold on ``a`` would keep clamps to one too.
    """
    a, b, c = quad
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -(b + math.copysign(math.sqrt(disc), b)) / 2.0
    roots = [q / a] if a != 0.0 else []
    if q != 0.0:
        roots.append(c / q)
    return roots


def optimize_fj_power(d_im, d_ie, d_jm, d_je, alpha, noise_m, noise_e, p_i, p_max) -> float:
    """The jamming power in ``[0, p_max]`` that maximizes secrecy, from the
    clamped distances (m) and corrected powers (Watt*m^alpha) of a ``Scenario``.

    Candidates are 0, ``p_max`` and the clamped roots of the derivative numerator,
    in that order; the best objective value among them is the global maximum
    because the objective is smooth and every interior extremum is a root. As in
    :func:`_best_power`, a running maximum keeps the smallest power on ties, so
    jamming is never reported when it buys nothing.
    """
    _, quad, ratio = _coefficients(d_im ** alpha, d_ie ** alpha, d_jm ** alpha, d_je ** alpha, noise_m, noise_e, p_i)
    # at p = 0 the ratio is (p_i*D + K) / (p_i*F + K): positive and finite in accepted scenarios
    best_p, best_v = 0.0, math.log2(ratio[2]) - math.log2(ratio[4])
    for p in [p_max, *(min(max(root, 0.0), p_max) for root in derivative_numerator_roots(quad))]:
        num, den = _ratio_terms(ratio, p)
        v = math.log2(num) - math.log2(den)
        if v > best_v or (v == best_v and p < best_p):
            best_p, best_v = p, v
    return best_p


def _candidate_powers(quad, p_max) -> tuple[np.ndarray, ...]:
    """Per lane: 0, ``p_max`` and the roots ``q/a`` and ``c/q`` of :func:`derivative_numerator_roots`,
    clamped to ``[0, p_max]``; a root that function does not return is 0 here."""
    a, b, c = quad
    # np.where drops the branches a lane does not take
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        disc = b * b - 4.0 * a * c
        real = disc >= 0.0
        q = -(b + np.copysign(np.sqrt(disc), b)) / 2.0
        root1 = np.where(real & (a != 0.0), q / a, 0.0)
        root2 = np.where(real & (q != 0.0), c / q, 0.0)
    return np.zeros_like(p_max), p_max, np.clip(root1, 0.0, p_max), np.clip(root2, 0.0, p_max)


def _best_power(quad, ratio, p_max) -> np.ndarray:
    """The power :func:`optimize_fj_power` returns, per lane of :func:`_coefficients`' 1-d
    ``quad`` and ``ratio`` arrays and of ``p_max``. Ties go to the smallest power; near ties
    may resolve otherwise than in the scalar optimizer, as ``np.log2`` and ``math.log2`` can differ."""
    powers = _candidate_powers(quad, p_max)
    # at p = 0 the ratio is (p_i*D + K) / (p_i*F + K): positive and finite in accepted scenarios
    best_p, best_v = powers[0], np.log2(ratio[2]) - np.log2(ratio[4])
    # running maximum over the candidates; the smallest power wins ties
    for p in powers[1:]:
        num, den = _ratio_terms(ratio, p)
        v = np.log2(num) - np.log2(den)
        better = (v > best_v) | ((v == best_v) & (p < best_p))
        best_p, best_v = np.where(better, p, best_p), np.where(better, v, best_v)
    return best_p
