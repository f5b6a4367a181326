"""The three association policies for one eavesdropper position.

:func:`select` runs every policy as one sequence of rules, in the order
of the grid engine in :mod:`secrecysim.sweep`. Selection is pure and
deterministic; argmax ties break to the lower AP index. Capacity
comparisons are made per-Hz so the chosen AP and the jamming power never
depend on the configured bandwidth, which only scales the reported
numbers.
"""

import enum
import math
from dataclasses import dataclass

from . import channel
from .channel import ApConfig, ChannelParams, Point2D, distance, effective_distance, shannon_capacity
from .channel import distance_corrected_power  # noqa: F401, the benchmark's tracer swaps this name
from .fjopt import _check_float_range, optimize_fj_power


class PolicyKind(enum.Enum):
    """Association rule used when evaluating an eavesdropper position."""

    NORMAL_WIFI = "normal"
    SMART_AP = "smart"
    SMART_AP_FJ = "smart_fj"


@dataclass(frozen=True)
class Scenario:
    """Two APs, one legitimate station, and the square map ``[0, map_extent]**2`` of the
    eavesdropper cells and Monte Carlo draws. Derived numbers outside the float range are refused.
    The station's terms are computed once, here: move the station with ``dataclasses.replace``."""

    ap1: ApConfig
    ap2: ApConfig
    sta_m: Point2D
    params: ChannelParams
    map_extent: float

    def __post_init__(self):
        if self.ap1.position == self.ap2.position:
            raise ValueError("the two APs must not share a position")
        if not 0 < self.map_extent < math.inf:
            raise ValueError(f"map_extent must be {'positive' if self.map_extent <= 0 else 'finite'}")
        # Python's ** raises OverflowError; channel.* keeps these calls untraced
        par = self.params
        tx = (self.ap1.tx_power, self.ap1.tx_power_max, self.ap2.tx_power, self.ap2.tx_power_max)
        try:
            powers = [channel.distance_corrected_power(p, par) for p in tx]
        except OverflowError:
            powers = [math.inf]
        if not all(0.0 < p < math.inf for p in powers):
            raise ValueError(
                "aps[].tx_power_watt and tx_power_max_watt at channel.center_freq_hz, ref_distance_m "
                "and alpha must give finite positive corrected powers"
            )
        try:
            sinr = max(powers) * par.ref_distance_d0 ** -par.pathloss_alpha / min(par.noise_m, par.noise_e)
        except OverflowError:
            sinr = math.inf
        if not sinr < math.inf:
            raise ValueError(
                "the largest SINR, aps[].tx_power_max_watt at channel.ref_distance_m over the smaller of "
                "channel.noise_m_watt and noise_e_watt, must be finite"
            )
        # not a field: replace() recomputes it for a new station, pickle carries it
        object.__setattr__(self, "_station", _station_terms(self, self.sta_m))
        _check_reach(self)


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one policy evaluation at one eavesdropper position.

    ``secrecy`` is the raw capacity difference and may be negative;
    truncation to zero happens only in coverage metrics and map
    rendering. ``fj_power`` is in distance-corrected units (Watt*m^alpha)
    and is zero for the non-jamming policies.
    """

    chosen_ap: int
    cap_legit: float
    cap_eve: float
    secrecy: float
    fj_power: float

    def __post_init__(self):
        if self.chosen_ap not in (1, 2):
            raise ValueError("chosen_ap must be 1 or 2")
        if self.fj_power < 0:
            raise ValueError("fj_power must be nonnegative")


def _station_terms(scenario: Scenario, sta_m: Point2D):
    """The terms of the station at ``sta_m``: per AP, in index order, ``(d_m, p, p_max,
    s_m, c_m)``, the clamped distance, corrected power and cap, the signal ``p*d_m**-alpha``
    and the per-Hz capacity; then ``normal``'s choice, the AP with the larger signal."""
    # channel.* keeps these calls untraced, as in Scenario.__post_init__
    par = scenario.params
    terms = []
    for ap in (scenario.ap1, scenario.ap2):
        d_m = channel.effective_distance(channel.distance(ap.position, sta_m), par)
        p = channel.distance_corrected_power(ap.tx_power, par)
        s_m = p * d_m ** -par.pathloss_alpha
        p_max = channel.distance_corrected_power(ap.tx_power_max, par)
        terms.append((d_m, p, p_max, s_m, channel.shannon_capacity(s_m, 0.0, par.noise_m)))
    return terms, 1 if terms[0][3] >= terms[1][3] else 2


def _check_reach(scenario: Scenario, points=()) -> None:
    """Refuse ``scenario`` where the jamming closed form leaves the float range at the
    largest distance from an AP to a map corner, the station or one of ``points``."""
    par, e, sta = scenario.params, scenario.map_extent, scenario.sta_m
    ends = ((0.0, 0.0), (0.0, e), (e, 0.0), (e, e), (sta.x, sta.y), *points)
    d = max(math.hypot(x - ap.position.x, y - ap.position.y) for ap in (scenario.ap1, scenario.ap2) for x, y in ends)
    # each AP's corrected cap is at least its corrected power
    p = max(p_max for _, _, p_max, _, _ in scenario._station[0])
    _check_float_range(p, par.noise_m, par.noise_e, par.pathloss_alpha, par.ref_distance_d0, d)


def select(scenario: Scenario, sta_e: Point2D, policy: PolicyKind) -> SelectionResult:
    """Evaluate one policy at one eavesdropper position.

    The rules run in the order of the grid engine, ``sweep._evaluate_grid``: associate, then (``smart_fj``
    only) let the idle AP jam. ``normal`` associates to the AP with the highest received power at the
    station, so the eavesdropper only sets the reported capacities; ``smart`` and ``smart_fj`` to the AP
    with the larger secrecy difference without jamming. ``smart_fj`` then gives the idle AP its optimal
    power in closed form unless not jamming is better, so it never falls below ``smart``.

    With each AP's cap equal to its power, select-then-jam is jointly optimal in exact arithmetic: serving
    by the other AP, with its best jamming, is never better. Per Hz, in nats, with SNRs ``x, y`` at the
    station and ``u, v`` at the eavesdropper from APs 1 and 2, AP 1 serving while AP 2 jams at ``t`` times
    its cap gives ``s1(t) = ln(1 + x/(1+ty)) - ln(1 + u/(1+tv))``, and ``s2`` mirrors it. At ``t = 0`` and
    at ``t = 1``, ``s1 - s2 = d = ln((1+x)(1+v) / ((1+u)(1+y)))``, and AP 1 is chosen iff ``d >= 0``: it
    suffices that the AP not chosen does best at ``t = 0`` or ``1``. If ``x >= u`` and ``y <= v``, then
    ``s1 >= 0 >= s2`` (and mirrored). Otherwise ``s1'`` has the sign of the quadratic
    ``(1+x)/(xy) - (1+u)/(uv) + 2t(1/x - 1/u) + t^2(y/x - v/u)``, whose value and slope at 0 share the
    sign of ``u - x``, so ``s1`` rises and then falls only if ``x < u`` and ``xv > uy``, and then ``s2``
    does not. If moreover ``d < 0``, with ``y < v`` it gives ``u - x > xv - uy``: ``s1`` is negative below
    its only zero ``(u - x)/(xv - uy) > 1``, so it rises on ``[0, 1]``. For ``s2``, swap the APs.
    """
    par = scenario.params
    alpha = par.pathloss_alpha
    station, chosen = scenario._station
    # the eavesdropper side, per call, of both APs (normal: the chosen one only):
    # the clamped distance, the signal and the per-Hz capacity
    normal, eves = policy is PolicyKind.NORMAL_WIFI, [None, None]
    for k in (chosen - 1,) if normal else (0, 1):
        d_e = effective_distance(distance((scenario.ap1, scenario.ap2)[k].position, sta_e), par)
        s_e = station[k][1] * d_e ** -alpha
        eves[k] = d_e, s_e, shannon_capacity(s_e, 0.0, par.noise_e)
    if not normal:
        chosen = 1 if station[0][4] - eves[0][2] >= station[1][4] - eves[1][2] else 2
    cap_m, cap_e = station[chosen - 1][4], eves[chosen - 1][2]

    fj_power = 0.0
    if policy is PolicyKind.SMART_AP_FJ:
        (d_im, p_i, _, s_im, _), (d_jm, _, p_max, _, _) = station if chosen == 1 else station[::-1]
        (d_ie, s_ie, _), (d_je, _, _) = eves if chosen == 1 else eves[::-1]
        p_opt = optimize_fj_power(d_im, d_ie, d_jm, d_je, alpha, par.noise_m, par.noise_e, p_i, p_max)
        if p_opt != 0.0:
            fj_m = shannon_capacity(s_im, p_opt * d_jm ** -alpha, par.noise_m)
            fj_e = shannon_capacity(s_ie, p_opt * d_je ** -alpha, par.noise_e)
            # the optimizer compares the ratio form; guard the reported metric
            # against a last-ulp disagreement with the two-capacity form so the
            # jamming result can never fall below the no-jamming one
            if not fj_m - fj_e < cap_m - cap_e:
                cap_m, cap_e, fj_power = fj_m, fj_e, p_opt

    w = par.bandwidth_w
    # one multiply of the per-Hz difference keeps orderings W-invariant
    return SelectionResult(chosen, w * cap_m, w * cap_e, w * (cap_m - cap_e), fj_power)
