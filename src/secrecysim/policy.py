"""The three association policies for one eavesdropper position.

All three selectors are pure and deterministic; argmax ties break to the
lower AP index. Capacity comparisons are made per-Hz so the chosen AP and
the jamming power never depend on the configured bandwidth, which only
scales the reported numbers.
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


@dataclass(frozen=True)
class _Links:
    """Clamped distances and corrected powers for both APs at one cell."""

    d1m: float
    d2m: float
    d1e: float
    d2e: float
    p1: float
    p2: float

    def for_ap(self, n: int) -> tuple[float, float, float]:
        if n == 1:
            return self.d1m, self.d1e, self.p1
        return self.d2m, self.d2e, self.p2


def _links(scenario: Scenario, sta_e: Point2D) -> _Links:
    par = scenario.params
    return _Links(
        d1m=effective_distance(distance(scenario.ap1.position, scenario.sta_m), par),
        d2m=effective_distance(distance(scenario.ap2.position, scenario.sta_m), par),
        d1e=effective_distance(distance(scenario.ap1.position, sta_e), par),
        d2e=effective_distance(distance(scenario.ap2.position, sta_e), par),
        p1=distance_corrected_power(scenario.ap1.tx_power, par),
        p2=distance_corrected_power(scenario.ap2.tx_power, par),
    )


def _capacities_hz(
    links: _Links,
    params: ChannelParams,
    n: int,
    interference_m: float = 0.0,
    interference_e: float = 0.0,
) -> tuple[float, float]:
    """Per-Hz capacities of AP n's two links under the given interference."""
    d_m, d_e, p = links.for_ap(n)
    alpha = params.pathloss_alpha
    cap_m = shannon_capacity(p * d_m ** -alpha, interference_m, params.noise_m, 1.0)
    cap_e = shannon_capacity(p * d_e ** -alpha, interference_e, params.noise_e, 1.0)
    return cap_m, cap_e


def _result(params: ChannelParams, chosen: int, cap_m_hz: float, cap_e_hz: float, fj_power: float) -> SelectionResult:
    w = params.bandwidth_w
    return SelectionResult(
        chosen_ap=chosen,
        cap_legit=w * cap_m_hz,
        cap_eve=w * cap_e_hz,
        # one multiply of the per-Hz difference keeps orderings W-invariant
        secrecy=w * (cap_m_hz - cap_e_hz),
        fj_power=fj_power,
    )


def _max_secrecy_choice(links: _Links, params: ChannelParams) -> tuple[int, float, float]:
    c1m, c1e = _capacities_hz(links, params, 1)
    c2m, c2e = _capacities_hz(links, params, 2)
    if c1m - c1e >= c2m - c2e:
        return 1, c1m, c1e
    return 2, c2m, c2e


def select_max_sinr(scenario: Scenario, sta_e: Point2D) -> SelectionResult:
    """Associate to the AP with the highest SINR at the legitimate station.

    With zero ambient interference this is the AP with the highest
    received power; the eavesdropper's position plays no role in the
    choice and only determines the reported capacities.
    """
    links = _links(scenario, sta_e)
    alpha = scenario.params.pathloss_alpha
    rx1 = links.p1 * links.d1m ** -alpha
    rx2 = links.p2 * links.d2m ** -alpha
    chosen = 1 if rx1 >= rx2 else 2
    cap_m, cap_e = _capacities_hz(links, scenario.params, chosen)
    return _result(scenario.params, chosen, cap_m, cap_e, 0.0)


def select_max_secrecy(scenario: Scenario, sta_e: Point2D) -> SelectionResult:
    """Associate to the AP whose secrecy difference is largest (no jamming)."""
    links = _links(scenario, sta_e)
    chosen, cap_m, cap_e = _max_secrecy_choice(links, scenario.params)
    return _result(scenario.params, chosen, cap_m, cap_e, 0.0)


def select_with_fj(scenario: Scenario, sta_e: Point2D) -> SelectionResult:
    """Max-secrecy association, then optimal friendly jamming by the idle AP.

    Selection runs first, assuming zero ambient interference; the idle
    AP's power is then optimized in closed form and the capacities are
    recomputed with that interference. The no-jamming outcome is always
    in the candidate set, so the result never falls below
    :func:`select_max_secrecy` on the same inputs.
    """
    links = _links(scenario, sta_e)
    par = scenario.params
    chosen, base_m, base_e = _max_secrecy_choice(links, par)
    d_im, d_ie, p_i = links.for_ap(chosen)
    d_jm, d_je, _ = links.for_ap(3 - chosen)
    idle_cfg: ApConfig = scenario.ap2 if chosen == 1 else scenario.ap1
    geom = FjGeometry(
        d_im=d_im,
        d_ie=d_ie,
        d_jm=d_jm,
        d_je=d_je,
        alpha=par.pathloss_alpha,
        noise_m=par.noise_m,
        noise_e=par.noise_e,
        p_i=p_i,
        p_max=distance_corrected_power(idle_cfg.tx_power_max, par),
    )
    p_opt = optimize_fj_power(geom)
    if p_opt == 0.0:
        return _result(par, chosen, base_m, base_e, 0.0)
    alpha = par.pathloss_alpha
    cap_m, cap_e = _capacities_hz(
        links,
        par,
        chosen,
        interference_m=p_opt * d_jm ** -alpha,
        interference_e=p_opt * d_je ** -alpha,
    )
    # the optimizer compares the ratio form; guard the reported metric
    # against a last-ulp disagreement with the two-capacity form so the
    # jamming result can never fall below the no-jamming one
    if cap_m - cap_e < base_m - base_e:
        return _result(par, chosen, base_m, base_e, 0.0)
    return _result(par, chosen, cap_m, cap_e, p_opt)


def select(scenario: Scenario, sta_e: Point2D, policy: PolicyKind) -> SelectionResult:
    """Evaluate one policy at one eavesdropper position."""
    if policy is PolicyKind.NORMAL_WIFI:
        return select_max_sinr(scenario, sta_e)
    if policy is PolicyKind.SMART_AP:
        return select_max_secrecy(scenario, sta_e)
    return select_with_fj(scenario, sta_e)
