"""Geometry tests: Kepler periods, propagation invariants, elevation, ranges.

Frozen values were computed independently: Kepler periods via arbitrary-
precision evaluation of 2*pi*sqrt(a^3/mu), the elevation example via a
brute-force dot-product construction sharing no code with the package.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satqkd import orbit
from satqkd.orbit import (
    EARTH_RADIUS_M,
    ConstellationConfig,
    GroundStation,
    SatPosition,
    coverage_half_angle,
    elevation,
    elevation_deg,
    kepler_period,
    max_angle_rate,
    propagate,
    propagate_positions,
    sat_positions,
    slant_range,
    slant_range_from_elevation,
    station_ecef,
    visible_sats,
)


class TestKeplerPeriod:
    def test_frozen_values(self):
        # 2*pi*sqrt((R_E + h)^3 / mu) at 50 dps
        assert kepler_period(500e3) == pytest.approx(5668.14436906117, rel=1e-12)
        assert kepler_period(1300e3) == pytest.approx(6686.34766631946, rel=1e-12)

    def test_sea_level_limit(self):
        assert kepler_period(1.0) == pytest.approx(5060.8374473405, rel=1e-6)

    def test_monotone_in_altitude(self):
        alts = [300e3, 500e3, 800e3, 1000e3, 1300e3]
        periods = [kepler_period(a) for a in alts]
        assert periods == sorted(periods)

    def test_domain(self):
        with pytest.raises(ValueError):
            kepler_period(-100.0)


class TestStationEcef:
    def test_on_sphere(self):
        for lat, lon in [(0, 0), (38.9072, -77.0369), (-45, 170), (89, 10)]:
            v = station_ecef(GroundStation("s", lat, lon))
            assert np.linalg.norm(v) == pytest.approx(EARTH_RADIUS_M, rel=1e-12)

    def test_reference_points(self):
        origin = station_ecef(GroundStation("o", 0.0, 0.0))
        assert origin == pytest.approx([EARTH_RADIUS_M, 0.0, 0.0], abs=1e-6)
        pole = station_ecef(GroundStation("p", 90.0, 0.0))
        assert pole[2] == pytest.approx(EARTH_RADIUS_M, rel=1e-12)
        assert abs(pole[0]) < 1e-6 and abs(pole[1]) < 1e-6


class TestPropagation:
    CFG = ConstellationConfig(altitude=500e3)

    def test_shape_and_count(self):
        times = np.arange(0.0, 10.0)
        pos = propagate_positions(self.CFG, times)
        assert pos.shape == (10, self.CFG.n_sats, 3)
        assert self.CFG.n_sats == 400

    def test_radius_conserved(self):
        rng = np.random.default_rng(7)
        times = rng.uniform(0.0, 86400.0, size=50)
        pos = propagate_positions(self.CFG, times)
        radii = np.linalg.norm(pos, axis=-1)
        target = EARTH_RADIUS_M + 500e3
        assert np.all(np.abs(radii / target - 1.0) < 1e-9)

    def test_periodic_in_inertial_frame(self):
        period = kepler_period(500e3)
        pos = propagate_positions(
            self.CFG, np.array([0.0, period]), earth_rotation=False
        )
        assert np.max(np.abs(pos[1] - pos[0])) < 1e-6

    def test_earth_rotation_breaks_periodicity(self):
        period = kepler_period(500e3)
        pos = propagate_positions(self.CFG, np.array([0.0, period]))
        assert np.max(np.abs(pos[1] - pos[0])) > 1e3

    def test_deterministic(self):
        times = np.arange(0.0, 100.0, 7.0)
        a = propagate_positions(self.CFG, times)
        b = propagate_positions(self.CFG, times)
        assert np.array_equal(a, b)

    def test_polar_rings_cross_poles(self):
        # A 90-degree inclination ring must reach |z| ~ orbit radius.
        times = np.arange(0.0, kepler_period(500e3), 1.0)
        pos = propagate_positions(self.CFG, times, earth_rotation=False)
        zmax = np.max(np.abs(pos[:, 0, 2]))
        assert zmax == pytest.approx(EARTH_RADIUS_M + 500e3, rel=1e-4)


class TestElevation:
    STATION = GroundStation("eq", 0.0, 0.0)

    @staticmethod
    def _sat(vec):
        return SatPosition(0, 0, tuple(float(v) for v in vec))

    def test_zenith(self):
        overhead = station_ecef(self.STATION) * (EARTH_RADIUS_M + 500e3) / EARTH_RADIUS_M
        assert elevation(self._sat(overhead), self.STATION) == pytest.approx(
            90.0, abs=1e-9
        )

    def test_antipodal(self):
        below = -station_ecef(self.STATION) * (EARTH_RADIUS_M + 500e3) / EARTH_RADIUS_M
        assert elevation(self._sat(below), self.STATION) == pytest.approx(
            -90.0, abs=1e-9
        )

    def test_frozen_offset_case(self):
        # Satellite 500 km above the equator at 10 deg east of the station;
        # value from an independent brute-force dot-product computation.
        r = EARTH_RADIUS_M + 500e3
        sat = self._sat([r * math.cos(math.radians(10.0)),
                         r * math.sin(math.radians(10.0)), 0.0])
        assert elevation(sat, self.STATION) == pytest.approx(
            18.344221529570078, abs=1e-9
        )

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(20, 3))
        pts *= (EARTH_RADIUS_M + 800e3) / np.linalg.norm(pts, axis=1, keepdims=True)
        vec = elevation_deg(pts, station_ecef(self.STATION))
        for i in range(20):
            assert vec[i] == pytest.approx(
                elevation(self._sat(pts[i]), self.STATION), abs=1e-12
            )

    @given(st.floats(min_value=-89.0, max_value=89.0),
           st.floats(min_value=-180.0, max_value=180.0))
    @settings(max_examples=100, deadline=None)
    def test_bounded(self, lat, lon):
        station = GroundStation("s", lat, lon)
        sat = self._sat([EARTH_RADIUS_M + 600e3, 0.0, 0.0])
        el = elevation(sat, station)
        assert -90.0 <= el <= 90.0


class TestSlantRange:
    def test_zenith_equals_altitude(self):
        assert slant_range_from_elevation(90.0, 500e3) == pytest.approx(
            500e3, rel=1e-9
        )

    def test_horizon_frozen_value(self):
        # sqrt((R+h)^2 - R^2) at elevation 0 for h = 500 km
        assert slant_range_from_elevation(0.0, 500e3) == pytest.approx(
            2573130.389234094, rel=1e-12
        )

    def test_decreasing_in_elevation(self):
        els = np.arange(5.0, 91.0, 5.0)
        ranges = [slant_range_from_elevation(e, 800e3) for e in els]
        assert ranges == sorted(ranges, reverse=True)

    def test_matches_vector_distance(self):
        station = GroundStation("s", 12.0, 34.0)
        sat = SatPosition(
            0, 0, tuple(station_ecef(station) * (EARTH_RADIUS_M + 1000e3) / EARTH_RADIUS_M)
        )
        assert slant_range(sat, station) == pytest.approx(1000e3, rel=1e-9)


class TestVisibility:
    CFG = ConstellationConfig(altitude=800e3)
    PAIR = (
        GroundStation("to", 43.6532, -79.3832),
        GroundStation("dc", 38.9072, -77.0369),
    )

    def test_lower_cutoff_sees_superset(self):
        low = {v.sat for v in visible_sats(self.CFG, 1234.0, self.PAIR, 10.0)}
        high = {v.sat for v in visible_sats(self.CFG, 1234.0, self.PAIR, 20.0)}
        assert high <= low

    def test_pair_symmetry(self):
        fwd = {v.sat for v in visible_sats(self.CFG, 4321.0, self.PAIR, 20.0)}
        rev = {v.sat for v in visible_sats(self.CFG, 4321.0, self.PAIR[::-1], 20.0)}
        assert fwd == rev

    def test_steep_cutoff_empty(self):
        assert visible_sats(self.CFG, 0.0, self.PAIR, 89.9) == []

    def test_cutoff_domain(self):
        with pytest.raises(ValueError):
            visible_sats(self.CFG, 0.0, self.PAIR, 90.0)

    def test_records_consistent(self):
        found = False
        for t in range(0, 86400, 600):
            snapshot = {
                (s.ring_index, s.slot_index): s for s in propagate(self.CFG, float(t))
            }
            for rec in visible_sats(self.CFG, float(t), self.PAIR, 20.0):
                found = True
                assert rec.elevation_a >= 20.0
                assert rec.elevation_b >= 20.0
                sat = snapshot[rec.sat]
                assert rec.elevation_a == pytest.approx(
                    elevation(sat, self.PAIR[0]), abs=1e-9
                )
                assert rec.elevation_b == pytest.approx(
                    elevation(sat, self.PAIR[1]), abs=1e-9
                )
            if found:
                break
        assert found, "expected at least one dual-visibility window in a day"


class TestCoarseToFineBounds:
    """The geometry behind the exact coarse-to-fine search in run_trace."""

    def test_sat_positions_gather_dense_bit_for_bit(self):
        cfg = ConstellationConfig(altitude=900e3, interplane_phase=0.7)
        rng = np.random.default_rng(11)
        times = rng.uniform(0.0, 86400.0, size=30)
        dense = propagate_positions(cfg, times)
        ti = rng.integers(0, 30, size=500)
        si = rng.integers(0, cfg.n_sats, size=500)
        assert np.array_equal(sat_positions(cfg, times[ti], si), dense[ti, si])

    @pytest.mark.parametrize("time_step", [0.5, 1.0, 7.0])
    def test_per_step_rotation_matches_sat_positions_bit_for_bit(self, time_step):
        """Earth's rotation computed once per step of a batch and gathered,
        as run_trace's fine pass does, gives `sat_positions` bit for bit."""
        cfg = ConstellationConfig(altitude=700e3, interplane_phase=0.4)
        rng = np.random.default_rng(12)
        times = np.arange(50_000) * time_step
        steps = np.sort(rng.integers(1000, len(times), size=5000))
        sats = rng.integers(0, cfg.n_sats, size=5000)
        cos_t, sin_t = orbit._rotation(times[steps[0] : steps[-1] + 1])
        local = steps - steps[0]
        got = orbit._sat_positions(cfg, times[steps], sats, (cos_t[local], sin_t[local]))
        assert np.array_equal(got, sat_positions(cfg, times[steps], sats))

    @pytest.mark.parametrize("altitude", [500e3, 1300e3])
    @pytest.mark.parametrize("min_elevation", [0.0, 20.0, 60.0])
    def test_cone_edge_is_at_min_elevation(self, altitude, min_elevation):
        lam = coverage_half_angle(altitude, min_elevation)
        r = EARTH_RADIUS_M + altitude
        sat = SatPosition(0, 0, (r * math.cos(lam), r * math.sin(lam), 0.0))
        assert elevation(sat, GroundStation("eq", 0.0, 0.0)) == pytest.approx(
            min_elevation, abs=1e-9
        )

    @pytest.mark.parametrize("altitude", [400e3, 1500e3])
    def test_angle_rate_bounds_motion(self, altitude):
        cfg = ConstellationConfig(altitude=altitude, interplane_phase=0.3)
        station = station_ecef(GroundStation("s", 37.0, -122.0))
        up = station / np.linalg.norm(station)
        times = np.arange(0.0, 6000.0, 10.0)
        pos = propagate_positions(cfg, times)
        angle = np.arccos(np.clip(pos @ up / np.linalg.norm(pos, axis=-1), -1.0, 1.0))
        step = np.abs(np.diff(angle, axis=0)).max()
        assert step <= max_angle_rate(altitude) * 10.0
        assert step > 0.5 * max_angle_rate(altitude) * 10.0
