"""Free-space optical link budget and delivered-fidelity model.

Each downlink arm is attenuated by a far-field diffraction factor
(aperture / (divergence * range))^2 and an atmospheric extinction factor
exp(-tau / cos(zenith)).  Background photons and dark counts register as
accidental coincidences that dilute the delivered state toward the
maximally mixed state (fidelity floor 0.25).  The fidelity-to-QBER mapping
assumes the delivered state is Werner-form: Q = 2 (1 - F) / 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import orbit
from .orbit import ConstellationConfig, GroundStation, VisibilityRecord

SECONDS_PER_DAY = 86400
INTERVAL_SECONDS = 21600  # four 6-hour intervals per day

FIDELITY_FLOOR = 0.25  # maximally mixed two-qubit state


@dataclass(frozen=True)
class SourceConfig:
    """On-board entangled-pair source."""

    pair_rate: float = 1e9  # pairs / second
    pump_power: float = 0.01  # recorded only; the ideal-pair model absorbs it
    source_fidelity: float = 1.0

    def __post_init__(self):
        if self.pair_rate <= 0:
            raise ValueError(f"pair_rate must be > 0, got {self.pair_rate}")
        if not FIDELITY_FLOOR <= self.source_fidelity <= 1.0:
            raise ValueError(
                f"source_fidelity must be in [0.25, 1], got {self.source_fidelity}"
            )


@dataclass(frozen=True)
class OpticsConfig:
    """Per-arm transmit/receive optics and detector characteristics."""

    beam_divergence: float = 10e-6  # radians
    rx_aperture_diameter: float = 1.0  # meters
    rx_efficiency: float = 0.5
    zenith_optical_depth: float = 0.7
    dark_rate: float = 100.0  # counts / second per detector
    gate_time: float = 1e-9  # seconds

    def __post_init__(self):
        if self.beam_divergence <= 0 or self.rx_aperture_diameter <= 0:
            raise ValueError("beam_divergence and rx_aperture_diameter must be > 0")
        if not 0.0 < self.rx_efficiency <= 1.0:
            raise ValueError(f"rx_efficiency must be in (0, 1], got {self.rx_efficiency}")
        if self.zenith_optical_depth < 0:
            raise ValueError("zenith_optical_depth must be >= 0")
        if self.dark_rate < 0 or self.gate_time <= 0:
            raise ValueError("dark_rate must be >= 0 and gate_time > 0")


@dataclass(frozen=True)
class RadianceSchedule:
    """Background-flux multipliers for the four 6-hour intervals of a day.

    Intervals start at 00:00, 06:00, 12:00 and 18:00 of simulation time,
    whose origin t = 0 is midnight UTC (the orbit frame is aligned with the
    Greenwich meridian then), not the local time of either station; both
    stations of a pair share one interval and so one background level.  The
    default scales are invented calibration values, not measurements; they
    are chosen so a default day shows bright-noon / dim-night contrast.
    """

    interval_scales: tuple[float, float, float, float] = (1.0, 20.0, 100.0, 1.0)

    def __post_init__(self):
        if len(self.interval_scales) != 4:
            raise ValueError("interval_scales must have exactly 4 entries")
        if any(s < 0 for s in self.interval_scales):
            raise ValueError("interval_scales must all be >= 0")

    def scale_at(self, t: float) -> float:
        return self.interval_scales[int((t % SECONDS_PER_DAY) // INTERVAL_SECONDS)]


@dataclass(frozen=True)
class ChannelParams:
    """Everything the per-second link model needs besides geometry."""

    source: SourceConfig = field(default_factory=SourceConfig)
    optics: OpticsConfig = field(default_factory=OpticsConfig)
    radiance: RadianceSchedule = field(default_factory=RadianceSchedule)
    base_background_flux: float = 3e3  # photons / second per detector
    basis_sift_factor: float = 0.5

    def __post_init__(self):
        if self.base_background_flux < 0:
            raise ValueError("base_background_flux must be >= 0")
        if not 0.0 < self.basis_sift_factor <= 1.0:
            raise ValueError("basis_sift_factor must be in (0, 1]")


@dataclass(frozen=True)
class LinkSample:
    """One second of channel output for a ground-station pair."""

    time: float
    fidelity: float | None  # None when no satellite serves the pair
    sifted_bits: float
    sat: tuple[int, int] | None


def arm_transmissivity(range_m, zenith_angle, optics: OpticsConfig):
    """Single-arm transmissivity: diffraction * atmosphere * receiver.

    Accepts scalars or arrays; zenith_angle is in radians and must be below
    the horizon limit pi/2.
    """
    range_m = np.asarray(range_m, dtype=float)
    zenith_angle = np.asarray(zenith_angle, dtype=float)
    if np.any(range_m <= 0):
        raise ValueError("range must be > 0")
    if np.any(zenith_angle < 0) or np.any(zenith_angle >= math.pi / 2):
        raise ValueError("zenith_angle must be in [0, pi/2)")
    diffraction = np.minimum(
        1.0, (optics.rx_aperture_diameter / (optics.beam_divergence * range_m)) ** 2
    )
    atmosphere = np.exp(-optics.zenith_optical_depth / np.cos(zenith_angle))
    eta = diffraction * atmosphere * optics.rx_efficiency
    return eta if eta.ndim else float(eta)


def pair_delivery_prob(eta_a: float, eta_b: float) -> float:
    """Probability that both photons of a pair arrive."""
    return eta_a * eta_b


def background_click_prob(
    t: float,
    schedule: RadianceSchedule,
    base_flux: float,
    optics: OpticsConfig,
) -> float:
    """Probability of a noise click (background + dark) within one gate."""
    rate = base_flux * schedule.scale_at(t) + optics.dark_rate
    return 1.0 - math.exp(-rate * optics.gate_time)


def accidental_prob(p_click_a, p_click_b, eta_a, eta_b):
    """Probability per pair attempt of a false coincidence.

    A noise click at one station paired with a real photon at the other, or
    noise clicks at both, registers as a coincidence.
    """
    return p_click_a * eta_b + p_click_b * eta_a + p_click_a * p_click_b


def delivered_fidelity(p_signal, p_accidental, source_fidelity):
    """Fidelity of the delivered state given signal/accidental mixing.

    Accidentals contribute the maximally mixed state (F = 0.25).
    """
    total = p_signal + p_accidental
    if np.any(np.asarray(total) <= 0):
        raise ValueError("no coincidences: p_signal + p_accidental must be > 0")
    return (p_signal * source_fidelity + p_accidental * FIDELITY_FLOOR) / total


def fidelity_to_qber(fidelity):
    """Werner-state QBER in each basis: Q = 2 (1 - F) / 3."""
    fidelity = np.asarray(fidelity, dtype=float)
    if np.any(fidelity < FIDELITY_FLOOR) or np.any(fidelity > 1.0):
        raise ValueError("fidelity must be in [0.25, 1]")
    q = 2.0 * (1.0 - fidelity) / 3.0
    return q if q.ndim else float(q)


def _link_budget(
    record: VisibilityRecord,
    altitude: float,
    channel: ChannelParams,
) -> tuple[float, float] | None:
    """Delivered fidelity and sifted bits per second through one visible
    satellite; None when no coincidence can occur (p_signal + p_accidental
    is 0), so the satellite delivers nothing."""
    eta = []
    for el in (record.elevation_a, record.elevation_b):
        rng = orbit.slant_range_from_elevation(el, altitude)
        eta.append(arm_transmissivity(rng, math.radians(90.0 - el), channel.optics))
    p_click = background_click_prob(
        record.time, channel.radiance, channel.base_background_flux, channel.optics
    )
    p_signal = pair_delivery_prob(eta[0], eta[1])
    p_acc = accidental_prob(p_click, p_click, eta[0], eta[1])
    if not p_signal + p_acc > 0:
        return None
    fidelity = delivered_fidelity(p_signal, p_acc, channel.source.source_fidelity)
    sifted = channel.source.pair_rate * (p_signal + p_acc) * channel.basis_sift_factor
    return fidelity, sifted


def select_best_satellite(
    candidates: list[VisibilityRecord],
    altitude: float,
    channel: ChannelParams,
) -> tuple[int, int] | None:
    """Pick the visible satellite with the highest estimated fidelity.

    A satellite with no coincidences cannot serve.  Ties break toward the
    lowest (ring, slot) index; no satellite that can serve gives None.
    """
    budgets = [(r.sat, _link_budget(r, altitude, channel)) for r in candidates]
    serving = sorted((sat, budget[0]) for sat, budget in budgets if budget is not None)
    if not serving:
        return None
    return max(serving, key=lambda s: s[1])[0]  # max keeps the first of equals


def link_sample(
    t: float,
    pair: tuple[GroundStation, GroundStation],
    constellation: ConstellationConfig,
    channel: ChannelParams,
    min_elevation: float,
) -> LinkSample:
    """One second of channel output: serving satellite, fidelity, sifted bits."""
    candidates = orbit.visible_sats(constellation, t, pair, min_elevation)
    sat = select_best_satellite(candidates, constellation.altitude, channel)
    if sat is None:
        return LinkSample(time=t, fidelity=None, sifted_bits=0.0, sat=None)
    record = next(r for r in candidates if r.sat == sat)
    fidelity, sifted = _link_budget(record, constellation.altitude, channel)
    return LinkSample(time=t, fidelity=float(fidelity), sifted_bits=float(sifted), sat=sat)
