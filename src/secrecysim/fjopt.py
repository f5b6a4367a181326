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

The closed form is stated twice, on purpose. :func:`_coefficients`,
:func:`_ratio_terms` and :func:`optimize_fj_power` are the scalar statement,
in plain operators, for ``policy.select``. :func:`_best_power` is the array
statement, for the grid engine: the same operations in the same order, each
writing into a preallocated buffer, so a Monte Carlo sample allocates no grid
arrays. Both take the first largest ratio ``num / den`` over their candidates in
ascending order, so ties go to the smallest power. From the same ``d**alpha`` every
value of the two, the returned power included, is equal lane by lane, and the
tests check that by ``float.hex``. Both trust a ``Scenario``'s values.
"""

import math

import numpy as np

# the exponents ``(i, j, k)`` of the ten monomials ``P**i * N**j * Q**k`` that bound :func:`_coefficients`
_CORNERS = ((0, 0, 2), (0, 1, 5), (0, 2, 0), (0, 2, 4), (1, 0, 4),
            (1, 2, 4), (2, 0, 0), (2, 0, 2), (2, 2, 10), (3, 1, 9))


def _coefficients(dim_a, die_a, djm_a, dje_a, noise_m, noise_e, p_i):
    """The objective constants ``(A, B, C, D, E, F, K)``, the derivative quadratic ``(a, b, c)`` and
    the ratio's terms ``(A, B + p_i*C, p_i*D + K, B + p_i*E, p_i*F + K)`` from the distances raised to
    alpha, the noises and the data AP's power: the scalar statement, in plain operators, so the
    tests apply it to arrays too; :func:`_coefficients_into` is the array statement.

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

    f_minus_d = cap_f - cap_d
    quad_a = p_i * cap_a * (cap_e - cap_c)
    quad_b = 2.0 * p_i * cap_a * f_minus_d
    quad_c = p_i * cap_b * f_minus_d + p_i * p_i * (cap_c * cap_f - cap_e * cap_d) + p_i * cap_k * (cap_c - cap_e)
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
    lead = cap_a * (p_j * p_j)
    return lead + lin_m * p_j + con_m, lead + lin_e * p_j + con_e


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

    Candidates are 0, the clamped roots of the derivative numerator and ``p_max``; the best ratio
    among them is the global maximum because the objective is smooth and every interior extremum is
    a root. As in :func:`_best_power`, the first largest ratio over the candidates in ascending order
    wins, so ties go to the smallest power and jamming is never reported when it buys nothing. The
    roots are clamped by comparisons to the floats of ``min(max(root, 0.0), p_max)``: a ``-0.0`` root
    has the ratio of ``0.0``, and a ``nan`` root never beats ``p = 0`` under the strict ``>``.
    """
    _, quad, ratio = _coefficients(d_im ** alpha, d_ie ** alpha, d_jm ** alpha, d_je ** alpha, noise_m, noise_e, p_i)
    # at p = 0 the ratio is (p_i*D + K) / (p_i*F + K): positive and finite in accepted scenarios
    best_p, best_v = 0.0, ratio[2] / ratio[4]
    powers = [p_max if root > p_max else 0.0 if root < 0.0 else root for root in derivative_numerator_roots(quad)]
    powers.sort()
    powers.append(p_max)
    for p in powers:
        num, den = _ratio_terms(ratio, p)
        if (v := num / den) > best_v:
            best_p, best_v = p, v
    return best_p


def _coefficients_into(dim_a, die_a, djm_a, dje_a, noise_m, noise_e, p_i, floats):
    """:func:`_coefficients`' ``(a, b, c)`` and ratio terms for 1-d arrays, lane by lane the same floats:
    each of its operations, in its order, writes into a buffer. Eight buffers shaped like the
    arguments come from the list ``floats``; those the results do not hold go back to it, and so
    do the array arguments, overwritten but for ``p_i``."""
    mul, add, sub = np.multiply, np.add, np.subtract
    eve, cap_a, cap_b, term, cap_c, cap_f, quad_c, tmp = (floats.pop() for _ in range(8))
    mul(mul(noise_e, die_a, out=eve), dje_a, out=eve)
    mul(dim_a, die_a, out=cap_a)
    mul(eve, dim_a, out=cap_b)
    add(cap_b, mul(mul(mul(noise_m, dim_a, out=term), djm_a, out=term), die_a, out=term), out=cap_b)
    mul(djm_a, die_a, out=cap_c)
    cap_d = mul(eve, djm_a, out=eve)
    cap_e = mul(dim_a, dje_a, out=term)
    mul(mul(mul(noise_m, dim_a, out=cap_f), djm_a, out=cap_f), dje_a, out=cap_f)
    cap_k = mul(noise_m * noise_e, dim_a, out=dim_a)
    for factor in djm_a, die_a, dje_a:
        mul(cap_k, factor, out=cap_k)

    # die_a, djm_a and dje_a are free from here
    quad_a = mul(mul(p_i, cap_a, out=die_a), sub(cap_e, cap_c, out=djm_a), out=die_a)
    f_minus_d = sub(cap_f, cap_d, out=dje_a)
    quad_b = mul(mul(mul(2.0, p_i, out=djm_a), cap_a, out=djm_a), f_minus_d, out=djm_a)
    mul(mul(p_i, cap_b, out=quad_c), f_minus_d, out=quad_c)
    cross = sub(mul(cap_c, cap_f, out=f_minus_d), mul(cap_e, cap_d, out=tmp), out=f_minus_d)
    add(quad_c, mul(mul(p_i, p_i, out=tmp), cross, out=tmp), out=quad_c)
    add(quad_c, mul(mul(p_i, cap_k, out=cross), sub(cap_c, cap_e, out=tmp), out=cross), out=quad_c)

    lin_m = add(cap_b, mul(p_i, cap_c, out=cap_c), out=cap_c)
    con_m = add(mul(p_i, cap_d, out=cap_d), cap_k, out=cap_d)
    lin_e = add(cap_b, mul(p_i, cap_e, out=cap_e), out=cap_e)
    con_e = add(mul(p_i, cap_f, out=cap_f), cap_k, out=cap_f)
    floats += [cap_b, cap_k, cross, tmp, p_i]
    return (quad_a, quad_b, quad_c), (cap_a, lin_m, con_m, lin_e, con_e)


def _ratio_terms_into(ratio, p_j, num, den, lead):
    """:func:`_ratio_terms` for 1-d arrays, lane by lane the same floats, into the buffers ``num``
    and ``den``; ``lead`` is overwritten with ``A*p_j**2``."""
    cap_a, lin_m, con_m, lin_e, con_e = ratio
    np.multiply(cap_a, np.multiply(p_j, p_j, out=lead), out=lead)
    np.add(np.add(lead, np.multiply(lin_m, p_j, out=num), out=num), con_m, out=num)
    np.add(np.add(lead, np.multiply(lin_e, p_j, out=den), out=den), con_e, out=den)
    return num, den


def _clamped_roots(quad, p_max, floats) -> tuple[np.ndarray, np.ndarray]:
    """Per lane of the 1-d arrays ``quad`` and ``p_max``: the roots ``q/a`` and ``c/q`` of
    :func:`derivative_numerator_roots`, clamped to ``[0, p_max]`` by ``fmax``, then ``fmin``. Every lane
    divides. A root that function returns is the same quotient here; one it does not (a negative
    discriminant, ``a == 0`` or ``q == 0``) is nan, which ``fmax`` maps to 0, or +-inf, clamped to 0 or
    ``p_max``. :func:`_best_power` picks the same power: a 0 candidate, ``-0.0`` included, never beats the
    start at ``p = 0`` under its strict ``>``, and an early ``p_max`` has the final one's ratio bits.
    Three buffers come from ``floats``; the roots hold two of them, and the other goes back."""
    a, b, c = quad
    root1, q, root2 = (floats.pop() for _ in range(3))
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        disc = np.subtract(np.multiply(b, b, out=root1), np.multiply(np.multiply(4.0, a, out=q), c, out=q), out=root1)
        np.divide(np.negative(np.add(b, np.copysign(np.sqrt(disc, out=q), b, out=q), out=q), out=q), 2.0, out=q)
        for root, num, den in (root1, q, a), (root2, c, q):
            np.fmin(np.fmax(np.divide(num, den, out=root), 0.0, out=root), p_max, out=root)
    floats.append(q)
    return root1, root2


def _best_power(dim_a, die_a, djm_a, dje_a, noise_m, noise_e, p_i, p_max, floats, flags) -> np.ndarray:
    """The power :func:`optimize_fj_power` returns, per lane of 1-d arrays of the distances to the
    power alpha, ``p_i`` and ``p_max`` (floats for the noises), in a buffer from ``floats``.

    The array statement of the closed form: :func:`_coefficients_into`, :func:`_clamped_roots` and
    :func:`_ratio_terms_into` repeat the scalar statement's operations in its order, and the pick is
    the same rule on correctly rounded quotients, so the returned power equals the scalar one lane by
    lane; :func:`_clamped_roots` says why its extra candidates change nothing. Buffers shaped like the
    arguments come from the lists ``floats`` (at most eight) and ``flags`` (one, bool) and go back, the
    array arguments included, all but the result."""
    quad, ratio = _coefficients_into(dim_a, die_a, djm_a, dje_a, noise_m, noise_e, p_i, floats)
    root1, root2 = _clamped_roots(quad, p_max, floats)
    floats += quad
    best_p, best_v, num, den, lead, low = (floats.pop() for _ in range(6))
    better = flags.pop()
    # at p = 0 the ratio is (p_i*D + K) / (p_i*F + K): positive and finite in accepted scenarios
    np.copyto(best_p, 0.0)
    np.divide(ratio[2], ratio[4], out=best_v)
    # the first largest ratio over the candidates in ascending order: the clamped roots, then p_max
    candidates = np.minimum(root1, root2, out=low), np.maximum(root1, root2, out=root2), p_max
    for p in candidates:
        v = np.divide(*_ratio_terms_into(ratio, p, num, den, lead), out=num)
        np.greater(v, best_v, out=better)
        np.copyto(best_p, p, where=better)
        np.copyto(best_v, v, where=better)
    floats += [*ratio, *candidates, root1, best_v, num, den, lead]
    flags.append(better)
    return best_p
