"""The three association policies for one eavesdropper position.

:func:`select` runs every policy as one sequence of rules, in the order
of the grid engine in :mod:`secrecysim.sweep`; the three named selectors
are shorthands for it. Selection is pure and deterministic; argmax ties
break to the lower AP index. Capacity comparisons are made per-Hz so the
chosen AP and the jamming power never depend on the configured
bandwidth, which only scales the reported numbers.
"""

import enum
from dataclasses import dataclass

from .channel import (
    ApConfig,
    ChannelParams,
    Point2D,
    distance,
    distance_corrected_power,
    effective_distance,
    shannon_capacity,
)
from .fjopt import FjGeometry, optimize_fj_power


class PolicyKind(enum.Enum):
    """Association rule used when evaluating an eavesdropper position."""

    NORMAL_WIFI = "normal"
    SMART_AP = "smart"
    SMART_AP_FJ = "smart_fj"


@dataclass(frozen=True)
class Scenario:
    """Two APs, one legitimate station, and the square map they live on."""

    ap1: ApConfig
    ap2: ApConfig
    sta_m: Point2D
    params: ChannelParams
    map_extent: float

    def __post_init__(self):
        if self.ap1.position == self.ap2.position:
            raise ValueError("the two APs must not share a position")
        if self.map_extent <= 0:
            raise ValueError("map_extent must be positive")


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

    @property
    def idle_ap(self) -> int:
        """The AP that does not serve the station; the jammer under ``smart_fj``."""
        return 3 - self.chosen_ap


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


def select_max_sinr(scenario: Scenario, sta_e: Point2D) -> SelectionResult:
    """Associate to the AP with the highest SINR at the legitimate station.

    With zero ambient interference this is the AP with the highest
    received power; the eavesdropper's position plays no role in the
    choice and only determines the reported capacities.
    """
    return select(scenario, sta_e, PolicyKind.NORMAL_WIFI)


def select_max_secrecy(scenario: Scenario, sta_e: Point2D) -> SelectionResult:
    """Associate to the AP whose secrecy difference is largest (no jamming)."""
    return select(scenario, sta_e, PolicyKind.SMART_AP)


def select_with_fj(scenario: Scenario, sta_e: Point2D) -> SelectionResult:
    """Max-secrecy association, then optimal friendly jamming by the idle AP.

    Selection runs first, assuming zero ambient interference; the idle
    AP's power is then optimized in closed form and the capacities are
    recomputed with that interference. The no-jamming outcome is always
    in the candidate set, so the result never falls below
    :func:`select_max_secrecy` on the same inputs.
    """
    return select(scenario, sta_e, PolicyKind.SMART_AP_FJ)


def select(scenario: Scenario, sta_e: Point2D, policy: PolicyKind) -> SelectionResult:
    """Evaluate one policy at one eavesdropper position.

    The rules run in the order of the grid engine, ``sweep._evaluate_grid``:
    associate, then (``smart_fj`` only) let the idle AP jam.
    """
    par = scenario.params
    alpha = par.pathloss_alpha
    links = _links(scenario, sta_e)

    def capacities(n, interference_m=0.0, interference_e=0.0):
        # per-Hz capacities of AP n's two links under the given interference
        d_m, d_e, p = links[n - 1]
        cap_m = shannon_capacity(p * d_m ** -alpha, interference_m, par.noise_m, 1.0)
        cap_e = shannon_capacity(p * d_e ** -alpha, interference_e, par.noise_e, 1.0)
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
        p_opt = optimize_fj_power(FjGeometry(d_im, d_ie, d_jm, d_je, alpha, par.noise_m, par.noise_e, p_i, p_max))
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
