"""Positions, radio parameters, and the single-slope path-loss link budget.

Everything here is a pure function of its arguments; capacities follow the
Shannon formula with base-2 logs, per Hz of bandwidth (bits/s/Hz).
"""

import math
from dataclasses import dataclass

SPEED_OF_LIGHT = 2.998e8  # m/s, fixed to four significant figures


def _positive(name: str, value: float) -> None:
    """Raise one ``ValueError`` naming ``name`` unless ``value`` is a finite number above 0; nan fails."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be a finite number > 0")


@dataclass(frozen=True)
class Point2D:
    """A position on the map, in meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("coordinates must be finite")


@dataclass(frozen=True)
class ChannelParams:
    """Radio constants shared by every link in a scenario.

    Attributes
    ----------
    bandwidth_w:
        Channel bandwidth in Hz. Defaults to 1 Hz so capacities are
        reported per-Hz; association choices, coverage and optimal
        jamming power are independent of this value.
    center_freq_f0:
        Carrier frequency in Hz.
    ref_distance_d0:
        Reference distance of the path-loss model, meters. Distances
        below it are clamped to it (the model is undefined closer in).
    pathloss_alpha:
        Path-loss exponent (2 free space, up to ~4 dense urban).
    noise_m / noise_e:
        Receiver noise power at the legitimate station / eavesdropper,
        Watt. Must be strictly positive so every SINR stays finite.
    """

    bandwidth_w: float = 1.0
    center_freq_f0: float = 2.4e9
    ref_distance_d0: float = 1.0
    pathloss_alpha: float = 2.0
    noise_m: float = 1e-10
    noise_e: float = 1e-10

    def __post_init__(self):
        # the scenario file's keys, which the refusals name
        keys = "bandwidth_hz", "center_freq_hz", "ref_distance_m", "noise_m_watt", "noise_e_watt"
        values = self.bandwidth_w, self.center_freq_f0, self.ref_distance_d0, self.noise_m, self.noise_e
        for key, value in zip(keys, values):
            _positive(f"channel.{key}", value)
        if not 1.0 <= self.pathloss_alpha < math.inf:
            raise ValueError("channel.alpha must be a finite number >= 1")


@dataclass(frozen=True)
class ApConfig:
    """One access point: position, operating power and its hardware cap."""

    position: Point2D
    tx_power: float
    tx_power_max: float

    def __post_init__(self):
        _positive("aps[].tx_power_watt", self.tx_power)
        if not self.tx_power <= self.tx_power_max:
            raise ValueError("aps[].tx_power_watt must be a finite number <= tx_power_max_watt")


def distance(a: Point2D, b: Point2D) -> float:
    """Euclidean distance between two points, meters."""
    return math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2)


def effective_distance(d: float, params: ChannelParams) -> float:
    """Clamp a distance to the validity region of the path-loss model.

    All capacity computations use this value, never the raw distance; it keeps received power
    finite when a grid cell coincides with a transmitter. As ``max(d, d0)``, it returns ``d``
    unless ``d0 > d``, ``nan`` included.
    """
    return params.ref_distance_d0 if params.ref_distance_d0 > d else d


def distance_corrected_power(tx_power: float, params: ChannelParams) -> float:
    """Fold transmit power with the free-space reference-distance gain.

    Returns ``tx_power * (c / (4*pi*f0*d0))**2 * d0**alpha`` in units of
    Watt*m^alpha; the received power at (clamped) distance d is then this
    value times ``d**-alpha``.
    """
    gain = SPEED_OF_LIGHT / (4.0 * math.pi * params.center_freq_f0 * params.ref_distance_d0)
    return tx_power * gain * gain * params.ref_distance_d0 ** params.pathloss_alpha


def transmit_power_from_corrected(p_corrected: float, params: ChannelParams) -> float:
    """Invert :func:`distance_corrected_power`, recovering Watt at the antenna."""
    return p_corrected / distance_corrected_power(1.0, params)


def shannon_capacity(signal: float, interference: float, noise: float) -> float:
    """Capacity of an AWGN link per Hz of bandwidth: ``log2(1 + SINR)``.

    ``noise`` must be strictly positive, which keeps the SINR finite for
    any signal and interference levels.
    """
    return math.log2(1.0 + signal / (interference + noise))
