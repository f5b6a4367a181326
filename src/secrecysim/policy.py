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
from .channel import (
    ApConfig,
    ChannelParams,
    Point2D,
    distance,
    distance_corrected_power,
    effective_distance,
    shannon_capacity,
)
from .fjopt import _check_float_range, optimize_fj_power


class PolicyKind(enum.Enum):
    """Association rule used when evaluating an eavesdropper position."""

    NORMAL_WIFI = "normal"
    SMART_AP = "smart"
    SMART_AP_FJ = "smart_fj"


@dataclass(frozen=True)
class Scenario:
    """Two APs, one legitimate station, and the square map ``[0, map_extent]**2`` of the
    eavesdropper cells and Monte Carlo draws. Derived numbers outside the float range are refused."""

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
        e, sta = self.map_extent, self.sta_m
        ends = ((0.0, 0.0), (0.0, e), (e, 0.0), (e, e), (sta.x, sta.y))
        d = max(math.hypot(x - ap.position.x, y - ap.position.y) for ap in (self.ap1, self.ap2) for x, y in ends)
        _check_float_range(max(powers), par.noise_m, par.noise_e, par.pathloss_alpha, par.ref_distance_d0, d)


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


def _links(scenario: Scenario, sta_e: Point2D) -> list[tuple[float, float, float]]:
    """One ``(d_m, d_e, p)`` per AP, in index order: the clamped distances
    to the station and to the eavesdropper, and the corrected power."""
    par = scenario.params
    return [
        (
            effective_distance(distance(ap.position, scenario.sta_m), par),
            effective_distance(distance(ap.position, sta_e), par),
            distance_corrected_power(ap.tx_power, par),
        )
        for ap in (scenario.ap1, scenario.ap2)
    ]


def select(scenario: Scenario, sta_e: Point2D, policy: PolicyKind) -> SelectionResult:
    """Evaluate one policy at one eavesdropper position.

    The rules run in the order of the grid engine, ``sweep._evaluate_grid``:
    associate, then (``smart_fj`` only) let the idle AP jam. ``normal``
    associates to the AP with the highest received power at the station
    (its SINR, with zero ambient interference), so the eavesdropper plays
    no role in its choice and only sets the reported capacities. ``smart``
    and ``smart_fj`` associate to the AP with the larger secrecy
    difference without jamming; ``smart_fj`` then optimizes the idle AP's
    power in closed form and recomputes the capacities under that
    interference. The no-jamming outcome stays in its candidate set, so
    ``smart_fj`` never falls below ``smart`` on the same inputs.
    """
    par = scenario.params
    alpha = par.pathloss_alpha
    links = _links(scenario, sta_e)

    def capacities(n, interference_m=0.0, interference_e=0.0):
        # per-Hz capacities of AP n's two links under the given interference
        d_m, d_e, p = links[n - 1]
        cap_m = shannon_capacity(p * d_m ** -alpha, interference_m, par.noise_m)
        cap_e = shannon_capacity(p * d_e ** -alpha, interference_e, par.noise_e)
        return cap_m, cap_e

    if policy is PolicyKind.NORMAL_WIFI:
        (d1m, _, p1), (d2m, _, p2) = links
        chosen = 1 if p1 * d1m ** -alpha >= p2 * d2m ** -alpha else 2
        cap_m, cap_e = capacities(chosen)
    else:
        (c1m, c1e), (c2m, c2e) = capacities(1), capacities(2)
        chosen, cap_m, cap_e = (1, c1m, c1e) if c1m - c1e >= c2m - c2e else (2, c2m, c2e)

    fj_power = 0.0
    if policy is PolicyKind.SMART_AP_FJ:
        (d_im, d_ie, p_i), (d_jm, d_je, _) = links if chosen == 1 else links[::-1]
        idle = scenario.ap2 if chosen == 1 else scenario.ap1
        p_max = distance_corrected_power(idle.tx_power_max, par)
        p_opt = optimize_fj_power(d_im, d_ie, d_jm, d_je, alpha, par.noise_m, par.noise_e, p_i, p_max)
        if p_opt != 0.0:
            fj_m, fj_e = capacities(chosen, p_opt * d_jm ** -alpha, p_opt * d_je ** -alpha)
            # the optimizer compares the ratio form; guard the reported metric
            # against a last-ulp disagreement with the two-capacity form so the
            # jamming result can never fall below the no-jamming one
            if not fj_m - fj_e < cap_m - cap_e:
                cap_m, cap_e, fj_power = fj_m, fj_e, p_opt

    w = par.bandwidth_w
    # one multiply of the per-Hz difference keeps orderings W-invariant
    return SelectionResult(chosen, w * cap_m, w * cap_e, w * (cap_m - cap_e), fj_power)
