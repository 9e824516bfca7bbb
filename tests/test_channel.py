"""Tests for the optical downlink channel model.

Frozen values were computed by hand from the closed-form expressions
(far-field diffraction, Beer-Lambert extinction, Poisson gate clicks).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satqkd.channel import (
    FIDELITY_FLOOR,
    ChannelParams,
    OpticsConfig,
    RadianceSchedule,
    SourceConfig,
    accidental_prob,
    arm_transmissivity,
    background_click_prob,
    delivered_fidelity,
    fidelity_to_qber,
    link_sample,
    pair_delivery_prob,
    select_best_satellite,
)
from satqkd.orbit import ConstellationConfig, GroundStation, VisibilityRecord

NO_ATMOSPHERE = OpticsConfig(zenith_optical_depth=0.0)


class TestArmTransmissivity:
    def test_inverse_square_doubling(self):
        # In the far field, doubling the range divides the diffraction
        # capture exactly by four (same zenith angle, so identical
        # atmospheric factor).
        r = 1.5e6
        eta1 = arm_transmissivity(r, 0.3, NO_ATMOSPHERE)
        eta2 = arm_transmissivity(2 * r, 0.3, NO_ATMOSPHERE)
        assert eta1 == 4.0 * eta2

    def test_near_field_capped(self):
        optics = OpticsConfig(zenith_optical_depth=0.0, rx_efficiency=1.0)
        # D / (theta * r) > 1 at short range: capture saturates at 1.
        short = optics.rx_aperture_diameter / optics.beam_divergence / 2.0
        assert arm_transmissivity(short, 0.0, optics) == 1.0

    def test_zero_depth_removes_atmosphere(self):
        eta_clear = arm_transmissivity(1e6, 1.0, NO_ATMOSPHERE)
        eta_zenith = arm_transmissivity(1e6, 0.0, NO_ATMOSPHERE)
        assert eta_clear == eta_zenith

    def test_frozen_zenith_case(self):
        # D = 1 m, theta = 10 urad, r = 2,000 km -> (1/20)^2 = 2.5e-3;
        # tau = 0.3 at zenith -> exp(-0.3); rx_efficiency = 0.5.
        optics = OpticsConfig(zenith_optical_depth=0.3)
        expected = 2.5e-3 * math.exp(-0.3) * 0.5
        assert arm_transmissivity(2e6, 0.0, optics) == pytest.approx(
            expected, rel=1e-14
        )

    def test_airmass_growth(self):
        optics = OpticsConfig()
        etas = [arm_transmissivity(1e6, z, optics) for z in (0.0, 0.5, 1.0, 1.4)]
        assert etas == sorted(etas, reverse=True)

    def test_array_input(self):
        out = arm_transmissivity(np.array([1e6, 2e6]), np.array([0.0, 0.0]), NO_ATMOSPHERE)
        assert out.shape == (2,)
        assert out[0] == 4.0 * out[1]

    def test_domain(self):
        with pytest.raises(ValueError):
            arm_transmissivity(0.0, 0.0, NO_ATMOSPHERE)
        with pytest.raises(ValueError):
            arm_transmissivity(1e6, math.pi / 2, NO_ATMOSPHERE)
        with pytest.raises(ValueError):
            arm_transmissivity(1e6, -0.1, NO_ATMOSPHERE)


class TestCoincidenceProbabilities:
    def test_pair_delivery(self):
        assert pair_delivery_prob(0.1, 0.2) == pytest.approx(0.02, rel=1e-15)
        assert pair_delivery_prob(0.0, 0.5) == 0.0

    def test_background_click_frozen_values(self):
        optics = OpticsConfig(dark_rate=100.0, gate_time=1e-9)
        schedule = RadianceSchedule(interval_scales=(1.0, 1.0, 100.0, 1.0))
        # midnight: rate = 1e4 + 100, noon: rate = 1e6 + 100; p = 1 - exp(-rate*gate)
        night = background_click_prob(0.0, schedule, 1e4, optics)
        noon = background_click_prob(13 * 3600.0, schedule, 1e4, optics)
        assert night == pytest.approx(1.009994899514588e-05, rel=1e-12)
        assert noon == pytest.approx(0.0009996000666699922, rel=1e-12)

    def test_background_click_zero_rate(self):
        optics = OpticsConfig(dark_rate=0.0)
        schedule = RadianceSchedule()
        assert background_click_prob(0.0, schedule, 0.0, optics) == 0.0

    def test_accidental_components(self):
        # noise-signal cross terms plus the noise-noise term
        assert accidental_prob(0.01, 0.02, 0.1, 0.2) == pytest.approx(
            0.01 * 0.2 + 0.02 * 0.1 + 0.01 * 0.02, rel=1e-15
        )

    def test_accidental_zero_noise(self):
        assert accidental_prob(0.0, 0.0, 0.3, 0.3) == 0.0


class TestRadianceSchedule:
    def test_four_intervals(self):
        sched = RadianceSchedule(interval_scales=(1.0, 20.0, 100.0, 1.0))
        assert sched.scale_at(0.0) == 1.0  # midnight
        assert sched.scale_at(6 * 3600.0) == 20.0  # dawn
        assert sched.scale_at(12 * 3600.0) == 100.0  # noon
        assert sched.scale_at(18 * 3600.0) == 1.0  # dusk
        assert sched.scale_at(23 * 3600.0 + 3599.0) == 1.0

    def test_wraps_daily(self):
        sched = RadianceSchedule(interval_scales=(1.0, 20.0, 100.0, 1.0))
        assert sched.scale_at(86400.0 + 13 * 3600.0) == 100.0

    def test_length_enforced(self):
        with pytest.raises(ValueError):
            RadianceSchedule(interval_scales=(1.0, 2.0, 3.0))


class TestTimeOfDayConvention:
    """Radiance intervals follow simulation time, whose origin is midnight
    UTC, not either station's local time."""

    SCHED = RadianceSchedule(interval_scales=(1.0, 2.0, 3.0, 4.0))

    @pytest.mark.parametrize(
        "hours, scale", [(0, 1.0), (6, 2.0), (12, 3.0), (18, 4.0), (24 + 13, 3.0)]
    )
    def test_interval_lookup(self, hours, scale):
        assert self.SCHED.scale_at(hours * 3600.0) == scale


class TestDeliveredFidelity:
    def test_noiseless_is_source_fidelity(self):
        assert delivered_fidelity(1e-4, 0.0, 1.0) == 1.0
        assert delivered_fidelity(1e-4, 0.0, 0.97) == 0.97

    def test_pure_noise_is_floor(self):
        assert delivered_fidelity(0.0, 1e-4, 1.0) == FIDELITY_FLOOR

    def test_equal_mixture(self):
        # signal and accidentals equally likely: midpoint of 1.0 and 0.25
        assert delivered_fidelity(1e-5, 1e-5, 1.0) == pytest.approx(0.625, rel=1e-14)

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            delivered_fidelity(0.0, 0.0, 1.0)

    @given(
        st.floats(min_value=1e-12, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.25, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_floor_and_source(self, p_sig, p_acc, f0):
        f = delivered_fidelity(p_sig, p_acc, f0)
        assert FIDELITY_FLOOR - 1e-12 <= f <= f0 + 1e-12


class TestQberMapping:
    def test_endpoints(self):
        assert fidelity_to_qber(1.0) == 0.0
        assert fidelity_to_qber(0.25) == 0.5

    def test_frozen_value(self):
        assert fidelity_to_qber(0.82) == pytest.approx(0.12, rel=1e-14)

    def test_array(self):
        q = fidelity_to_qber(np.array([1.0, 0.25]))
        assert q.tolist() == [0.0, 0.5]

    def test_domain(self):
        with pytest.raises(ValueError):
            fidelity_to_qber(0.2)
        with pytest.raises(ValueError):
            fidelity_to_qber(1.01)


class TestSatelliteSelection:
    CHANNEL = ChannelParams()

    def test_empty(self):
        assert select_best_satellite([], 500e3, self.CHANNEL) is None

    def test_single(self):
        rec = VisibilityRecord(time=0.0, sat=(3, 7), elevation_a=45.0, elevation_b=50.0)
        assert select_best_satellite([rec], 500e3, self.CHANNEL) == (3, 7)

    def test_higher_elevation_wins(self):
        low = VisibilityRecord(time=0.0, sat=(0, 0), elevation_a=25.0, elevation_b=25.0)
        high = VisibilityRecord(time=0.0, sat=(5, 5), elevation_a=80.0, elevation_b=80.0)
        assert select_best_satellite([low, high], 500e3, self.CHANNEL) == (5, 5)

    def test_tie_breaks_to_lowest_index(self):
        a = VisibilityRecord(time=0.0, sat=(2, 9), elevation_a=60.0, elevation_b=60.0)
        b = VisibilityRecord(time=0.0, sat=(2, 1), elevation_a=60.0, elevation_b=60.0)
        assert select_best_satellite([a, b], 500e3, self.CHANNEL) == (2, 1)


class TestLinkSample:
    PAIR = (
        GroundStation("to", 43.6532, -79.3832),
        GroundStation("dc", 38.9072, -77.0369),
    )
    CONST = ConstellationConfig(altitude=500e3)
    CHANNEL = ChannelParams()

    def test_no_visibility_empty_sample(self):
        # A pair on opposite sides of the planet never shares a satellite.
        far = (GroundStation("a", 0.0, 0.0), GroundStation("b", 0.0, 180.0))
        s = link_sample(0.0, far, self.CONST, self.CHANNEL, 20.0)
        assert s.fidelity is None
        assert s.sat is None
        assert s.sifted_bits == 0.0

    def test_linked_sample_ranges(self):
        for t in range(0, 86400, 300):
            s = link_sample(float(t), self.PAIR, self.CONST, self.CHANNEL, 20.0)
            if s.sat is not None:
                assert FIDELITY_FLOOR <= s.fidelity <= 1.0
                assert s.sifted_bits > 0.0
                return
        pytest.fail("expected at least one linked second in a day")

    def test_night_beats_noon(self):
        def best_fid(t0):
            fids = [
                link_sample(float(t), self.PAIR, self.CONST, self.CHANNEL, 20.0).fidelity
                for t in range(t0, t0 + 21600, 60)
            ]
            fids = [f for f in fids if f is not None]
            assert fids, "no link during interval"
            return max(fids)

        assert best_fid(0) > best_fid(12 * 3600)
