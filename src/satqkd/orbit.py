"""Circular polar LEO constellation propagation and ground-station geometry.

Spherical Earth, two-body circular orbits at 90 degree inclination.  The
constellation is a "star" pattern: ring ascending nodes are spread over
`raan_span` radians (default pi) and each ring holds equally spaced
satellites.  Positions are returned in an Earth-fixed frame; at t = 0 the
node line of ring 0 is aligned with the Greenwich meridian.

Visibility bounds for a coarse-to-fine search.  A satellite at altitude h
is at elevation >= e_min from a station exactly when the angle at Earth's
centre between the two is at most the cone half-angle
`pi/2 - e_min - asin(R cos e_min / (R + h))` (`coverage_half_angle`).  In
the Earth-fixed frame the satellite's direction turns at most at the
orbital rate plus Earth's rotation rate, `2 pi / T + omega_E`
(`max_angle_rate`), so over dt seconds that angle moves by at most this
rate times dt.  A satellite outside a station's cone widened by that much
at one instant is invisible from the station for the dt either side.

The bound holds for any dt, so a search can apply it at two levels: test
every satellite at the centre of a long window, with the cone widened by
that window's half-width, then test only the survivors at the centres of
the short windows inside it, each with its own smaller widening.  A
satellite dropped at either level is invisible throughout its window.

Elevation is a function of that angle alone.  A satellite at altitude h
and geocentric angle gamma in [0, pi] from a station is at elevation
`el(gamma) = atan2(cos gamma - R / (R + h), sin gamma)`, which falls
monotonically from 90 degrees at gamma = 0 to -90 degrees at gamma = pi.
So an angle known to within dt times `max_angle_rate` bounds the
elevation from both sides over those dt seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_M = 6_371_000.0
EARTH_MU = 3.986004418e14  # m^3 / s^2
EARTH_ROTATION_RAD_S = 7.2921159e-5


@dataclass(frozen=True)
class GroundStation:
    name: str
    latitude: float  # degrees
    longitude: float  # degrees

    def __post_init__(self):
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude out of range for {self.name}: {self.latitude}")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude out of range for {self.name}: {self.longitude}")


@dataclass(frozen=True)
class ConstellationConfig:
    altitude: float  # meters
    rings: int = 20
    sats_per_ring: int = 20
    raan_span: float = math.pi
    interplane_phase: float = 0.0

    def __post_init__(self):
        if self.rings < 1 or self.sats_per_ring < 1:
            raise ValueError("rings and sats_per_ring must be >= 1")
        if self.altitude <= 0:
            raise ValueError(f"altitude must be > 0, got {self.altitude}")

    @property
    def n_sats(self) -> int:
        return self.rings * self.sats_per_ring


@dataclass(frozen=True)
class SatPosition:
    ring_index: int
    slot_index: int
    position: tuple[float, float, float]  # Earth-fixed, meters


@dataclass(frozen=True)
class VisibilityRecord:
    time: float
    sat: tuple[int, int]
    elevation_a: float  # degrees
    elevation_b: float  # degrees


def kepler_period(altitude: float) -> float:
    """Orbital period of a circular orbit at the given altitude, seconds."""
    if altitude <= 0:
        raise ValueError(f"altitude must be > 0, got {altitude}")
    radius = EARTH_RADIUS_M + altitude
    return 2.0 * math.pi * math.sqrt(radius**3 / EARTH_MU)


def station_ecef(gs: GroundStation) -> np.ndarray:
    """Earth-fixed Cartesian position of a ground station, meters."""
    lat = math.radians(gs.latitude)
    lon = math.radians(gs.longitude)
    return EARTH_RADIUS_M * np.array(
        [math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)]
    )


def _ring_geometry(config: ConstellationConfig):
    """Orbit radius, mean motion (rad/s), (R, S) in-plane phase at t = 0 and
    the cosine and sine of each ring's ascending node."""
    radius = EARTH_RADIUS_M + config.altitude
    rate = 2.0 * math.pi / kepler_period(config.altitude)
    rings = np.arange(config.rings)
    slots = np.arange(config.sats_per_ring)
    raan = rings * (config.raan_span / config.rings)  # (R,)
    phase = (
        2.0 * math.pi * slots / config.sats_per_ring
    )[None, :] + (rings * config.interplane_phase)[:, None]  # (R, S)
    return radius, rate, phase, np.cos(raan), np.sin(raan)


def _rotation(times) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and sine of Earth's rotation angle at each time."""
    theta = EARTH_ROTATION_RAD_S * np.asarray(times, dtype=float)
    return np.cos(theta), np.sin(theta)


def _earth_fixed(radius, anomaly, cos_o, sin_o, rotation):
    """Position of a polar-orbit satellite, stacked on a new last axis.

    `anomaly` is the in-plane angle from the ascending node, (cos_o, sin_o)
    the node direction and `rotation` the (cosine, sine) of Earth's rotation
    angle (None for the inertial frame); all broadcast.  Every propagation
    path goes through this one formula, so they agree bit for bit.
    """
    cos_u = np.cos(anomaly)
    sin_u = np.sin(anomaly)

    # polar orbit: plane vector [cos u, 0, sin u] rotated about z by the node
    x = radius * cos_u * cos_o
    y = radius * cos_u * sin_o
    z = radius * sin_u

    if rotation is not None:
        cos_t, sin_t = rotation
        x, y = x * cos_t + y * sin_t, -x * sin_t + y * cos_t

    return np.stack([x, y, z], axis=-1)


def propagate_positions(
    config: ConstellationConfig,
    times: np.ndarray,
    earth_rotation: bool = True,
) -> np.ndarray:
    """Earth-fixed positions of every satellite at every time.

    Returns shape (len(times), rings * sats_per_ring, 3); satellites are
    ordered ring-major, i.e. index = ring * sats_per_ring + slot.
    """
    times = np.asarray(times, dtype=float)
    radius, rate, phase, cos_o, sin_o = _ring_geometry(config)

    # anomaly (T, R, S): in-plane angle measured from the ascending node
    anomaly = phase[None, :, :] + rate * times[:, None, None]
    rotation = _rotation(times[:, None, None]) if earth_rotation else None
    pos = _earth_fixed(radius, anomaly, cos_o[None, :, None], sin_o[None, :, None], rotation)
    return pos.reshape(len(times), config.n_sats, 3)


def sat_positions(config: ConstellationConfig, times, sats) -> np.ndarray:
    """Earth-fixed positions of satellite `sats[k]` at `times[k]`, shape (K, 3).

    `sats` holds ring-major indices; element k equals
    `propagate_positions(config, times)[k, sats[k]]` bit for bit.
    """
    times = np.asarray(times, dtype=float)
    return _sat_positions(config, times, sats, _rotation(times))


def _sat_positions(config: ConstellationConfig, times, sats, rotation) -> np.ndarray:
    """`sat_positions` with Earth's rotation given as its (cosine, sine) at
    each time, so a caller with many satellites per time step can compute
    them once per step (`_rotation`) and gather them."""
    sats = np.asarray(sats)
    radius, rate, phase, cos_o, sin_o = _ring_geometry(config)
    rings = sats // config.sats_per_ring
    anomaly = phase.reshape(-1)[sats] + rate * times
    return _earth_fixed(radius, anomaly, cos_o[rings], sin_o[rings], rotation)


def propagate(
    config: ConstellationConfig, t: float, earth_rotation: bool = True
) -> list[SatPosition]:
    """Snapshot of the whole constellation at time t."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    pos = propagate_positions(config, np.array([t]), earth_rotation)[0]
    out = []
    for idx in range(config.n_sats):
        ring, slot = divmod(idx, config.sats_per_ring)
        out.append(SatPosition(ring, slot, tuple(pos[idx])))
    return out


def elevation_deg(positions: np.ndarray, station: np.ndarray) -> np.ndarray:
    """Elevation angle (degrees) from a station to each position.

    `positions` may have any leading shape ending in 3; broadcasts.
    """
    d = positions - station
    up = station / np.linalg.norm(station)
    sin_el = (d @ up) / np.linalg.norm(d, axis=-1)
    return np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0)))


def elevation(sat: SatPosition, gs: GroundStation) -> float:
    return float(elevation_deg(np.array(sat.position), station_ecef(gs)))


def slant_range(sat: SatPosition, gs: GroundStation) -> float:
    """Line-of-sight distance from station to satellite, meters."""
    return float(np.linalg.norm(np.array(sat.position) - station_ecef(gs)))


def slant_range_from_elevation(elevation_degrees, altitude: float):
    """Slant range implied by elevation and altitude on a spherical Earth."""
    el = np.radians(elevation_degrees)
    radius = EARTH_RADIUS_M + altitude
    cos_el = np.cos(el)
    return np.sqrt(radius**2 - (EARTH_RADIUS_M * cos_el) ** 2) - EARTH_RADIUS_M * np.sin(el)


def coverage_half_angle(altitude: float, min_elevation: float) -> float:
    """Geocentric half-angle (radians) of the cone that sees a satellite.

    A satellite at `altitude` is at elevation >= `min_elevation` (degrees)
    from a station exactly when the angle at Earth's centre between the
    two is at most this.
    """
    el = math.radians(min_elevation)
    return (
        math.pi / 2 - el - math.asin(EARTH_RADIUS_M * math.cos(el) / (EARTH_RADIUS_M + altitude))
    )


def max_angle_rate(altitude: float) -> float:
    """Bound (rad/s) on how fast the geocentric angle between a satellite
    at `altitude` and a fixed station can change."""
    return 2.0 * math.pi / kepler_period(altitude) + EARTH_ROTATION_RAD_S


def visible_sats(
    config: ConstellationConfig,
    t: float,
    pair: tuple[GroundStation, GroundStation],
    min_elevation: float,
) -> list[VisibilityRecord]:
    """Satellites whose elevation to both stations is >= min_elevation at t."""
    if not 0.0 <= min_elevation < 90.0:
        raise ValueError(f"min_elevation must be in [0, 90), got {min_elevation}")
    pos = propagate_positions(config, np.array([t]))[0]
    el_a = elevation_deg(pos, station_ecef(pair[0]))
    el_b = elevation_deg(pos, station_ecef(pair[1]))
    records = []
    for idx in np.nonzero((el_a >= min_elevation) & (el_b >= min_elevation))[0]:
        ring, slot = divmod(int(idx), config.sats_per_ring)
        records.append(
            VisibilityRecord(
                time=t,
                sat=(ring, slot),
                elevation_a=float(el_a[idx]),
                elevation_b=float(el_b[idx]),
            )
        )
    return records
