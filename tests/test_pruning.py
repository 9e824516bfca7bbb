"""Exactness of the coarse-to-fine satellite search in `harness.run_trace`.

`dense_trace.dense_trace` evaluates every satellite at every step; the
pruned search must reproduce its samples (satellite, fidelity, sifted bits)
bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_trace import dense_trace
from satqkd import channel, harness, orbit
from satqkd.config import ExperimentConfig, config_from_dict
from satqkd.orbit import ConstellationConfig, GroundStation

DEFAULT = ExperimentConfig()
TWO_HOURS = config_from_dict({"horizon_s": 7200.0})
W = harness._WINDOW
OUTER = harness._OUTER
BATCH = harness._BATCH


def assert_same_samples(got, want):
    assert len(got.samples) == len(want.samples)
    for g, w in zip(got.samples, want.samples):
        assert (g.time, g.sat, g.fidelity, g.sifted_bits) == (
            w.time, w.sat, w.fidelity, w.sifted_bits
        ), f"first difference at t={w.time}"


def pair_config(lat, lon, dlat, dlon, altitude, min_elevation, time_step,
                interplane_phase, n_steps):
    lon_b = (lon + dlon + 180.0) % 360.0 - 180.0
    return ExperimentConfig(
        constellation=ConstellationConfig(altitude=altitude, interplane_phase=interplane_phase),
        altitudes=(altitude,),
        stations=(GroundStation("A", lat, lon), GroundStation("B", lat + dlat, lon_b)),
        pairs=(("A", "B"),),
        horizon=n_steps * time_step,
        time_step=time_step,
        min_elevation=min_elevation,
    )


@pytest.mark.parametrize("altitude", DEFAULT.altitudes, ids=lambda a: f"{int(a)}m")
@pytest.mark.parametrize("pair", DEFAULT.pairs, ids=harness.pair_name)
def test_default_cells_match_dense_search(pair, altitude):
    want = dense_trace(TWO_HOURS, pair, altitude)
    assert_same_samples(harness.run_trace(TWO_HOURS, pair, altitude), want)


# Toronto-DC at 500 km: a day's first two hours mix passes and gaps.
@example(43.65, -79.38, -4.75, 2.35, 500e3, 20.0, 1.0, 0.0, 1)
@example(43.65, -79.38, -4.75, 2.35, 500e3, 20.0, 1.0, 0.0, W + 1)
@example(43.65, -79.38, -4.75, 2.35, 500e3, 20.0, 1.0, 0.0, 7 * W - 1)
@example(43.65, -79.38, -4.75, 2.35, 800e3, 0.0, 7.0, 0.3, 2 * W + 13)
@settings(max_examples=30, deadline=None)
@given(
    lat=st.floats(-70.0, 70.0),
    lon=st.floats(-180.0, 180.0),
    dlat=st.floats(-6.0, 6.0),
    dlon=st.floats(-6.0, 6.0),
    altitude=st.floats(400e3, 1500e3),
    min_elevation=st.floats(0.0, 60.0),
    time_step=st.sampled_from([0.5, 1.0, 2.0, 3.0, 7.0]),
    interplane_phase=st.floats(0.0, 2 * math.pi),
    n_steps=st.integers(1, 25 * W + 7),
)
def test_random_geometry_matches_dense_search(
    lat, lon, dlat, dlon, altitude, min_elevation, time_step, interplane_phase, n_steps
):
    cfg = pair_config(
        lat, lon, dlat, dlon, altitude, min_elevation, time_step, interplane_phase, n_steps
    )
    want = dense_trace(cfg, ("A", "B"), altitude)
    assert_same_samples(harness.run_trace(cfg, ("A", "B"), altitude), want)


# Equatorial stations under satellite (0, 0) at t = 0; each placement gives
# an elevation whose last bit differs between numpy's one-row and batched
# matmul kernels.
@pytest.mark.parametrize("lon, dlon", [(0.0, 1.0), (1.3, 0.5), (-0.9, 1.0)])
def test_single_candidate_satellite_second(lon, dlon):
    """One candidate means a one-row fine pass, where numpy's matmul
    switches kernels; the result must still match the dense search."""
    cfg = pair_config(0.0, lon, 0.0, dlon, 500e3, 40.0, 1.0, 0.0, 1)
    const = cfg.constellation_at(500e3)
    stations = [orbit.station_ecef(cfg.station(name)) for name in ("A", "B")]
    steps, sats = harness._candidates(cfg, const, stations, 0, 1)
    assert steps.tolist() == [0] and sats.tolist() == [0]

    got = harness.run_trace(cfg, ("A", "B"), 500e3)
    assert [s.sat for s in got.samples] == [(0, 0)]
    assert_same_samples(got, dense_trace(cfg, ("A", "B"), 500e3))


def test_window_sizes_nest():
    """Inner windows tile an outer window, and outer windows tile a batch."""
    assert OUTER % W == 0 and BATCH % OUTER == 0 and W < OUTER < BATCH


# Toronto-DC at 500 km, at the edges of an outer window and of a batch.
@example(43.65, -79.38, -4.75, 2.35, 500e3, 20.0, 1.0, 0.0, OUTER - 1)
@example(43.65, -79.38, -4.75, 2.35, 500e3, 20.0, 1.0, 0.0, OUTER)
@example(43.65, -79.38, -4.75, 2.35, 500e3, 20.0, 1.0, 0.0, OUTER + 1)
@example(43.65, -79.38, -4.75, 2.35, 500e3, 20.0, 1.0, 0.0, BATCH - 1)
@example(43.65, -79.38, -4.75, 2.35, 500e3, 20.0, 1.0, 0.0, BATCH)
@example(43.65, -79.38, -4.75, 2.35, 500e3, 20.0, 1.0, 0.0, BATCH + 1)
@example(43.65, -79.38, -4.75, 2.35, 1300e3, 20.0, 1.0, 0.0, 2 * BATCH + 1)
@settings(max_examples=6, deadline=None)
@given(
    lat=st.floats(-70.0, 70.0),
    lon=st.floats(-180.0, 180.0),
    dlat=st.floats(-6.0, 6.0),
    dlon=st.floats(-6.0, 6.0),
    altitude=st.floats(400e3, 1500e3),
    min_elevation=st.floats(0.0, 60.0),
    time_step=st.sampled_from([0.5, 1.0, 2.0, 3.0, 7.0]),
    interplane_phase=st.floats(0.0, 2 * math.pi),
    n_steps=st.integers(2 * OUTER, 2 * BATCH + 7),
)
def test_long_horizons_match_dense_search(
    lat, lon, dlat, dlon, altitude, min_elevation, time_step, interplane_phase, n_steps
):
    """Horizons over several outer windows and up to three batches."""
    cfg = pair_config(
        lat, lon, dlat, dlon, altitude, min_elevation, time_step, interplane_phase, n_steps
    )
    want = dense_trace(cfg, ("A", "B"), altitude)
    assert_same_samples(harness.run_trace(cfg, ("A", "B"), altitude), want)


@example(43.65, -79.38, -4.75, 2.35, 500e3, 20.0, 1.0, 0.0, BATCH + OUTER + 1)
@settings(max_examples=10, deadline=None)
@given(
    lat=st.floats(-70.0, 70.0),
    lon=st.floats(-180.0, 180.0),
    dlat=st.floats(-6.0, 6.0),
    dlon=st.floats(-6.0, 6.0),
    altitude=st.floats(400e3, 1500e3),
    min_elevation=st.floats(0.0, 60.0),
    time_step=st.sampled_from([0.5, 1.0, 7.0]),
    interplane_phase=st.floats(0.0, 2 * math.pi),
    n_steps=st.integers(1, 2 * BATCH + 7),
)
def test_candidates_hold_every_dual_visible_pair(
    lat, lon, dlat, dlon, altitude, min_elevation, time_step, interplane_phase, n_steps
):
    """Per batch, `_candidates` keeps every (step, satellite) that the dense
    search finds at or above min_elevation from both stations, and orders
    its pairs by step, then satellite, as the per-step pick needs."""
    cfg = pair_config(
        lat, lon, dlat, dlon, altitude, min_elevation, time_step, interplane_phase, n_steps
    )
    const = cfg.constellation_at(altitude)
    stations = [orbit.station_ecef(cfg.station(name)) for name in ("A", "B")]
    for start in range(0, n_steps, BATCH):
        stop = min(start + BATCH, n_steps)
        steps, sats = harness._candidates(cfg, const, stations, start, stop)
        kept = steps * const.n_sats + sats
        assert np.all(np.diff(kept) > 0)
        assert steps.size == 0 or (start <= steps[0] and steps[-1] < stop)

        pos = orbit.propagate_positions(const, np.arange(start, stop) * time_step)
        visible = np.ones(pos.shape[:2], dtype=bool)
        for station in stations:
            visible &= orbit.elevation_deg(pos, station) >= min_elevation
        step, sat = np.nonzero(visible)
        assert np.isin((start + step) * const.n_sats + sat, kept).all()


@pytest.mark.parametrize(
    "fidelity",
    [lambda f: np.full_like(f, 0.9), lambda f: np.round(f, 2)],
    ids=["all-equal", "rounded"],
)
def test_equal_fidelity_goes_to_lowest_index(monkeypatch, fidelity):
    """With fidelities made equal, or rounded so that many tie, each step
    still goes to the highest fidelity and, among equals, the lowest
    ring-major index, as the dense search's np.argmax picks."""
    delivered = channel.delivered_fidelity
    monkeypatch.setattr(channel, "delivered_fidelity", lambda *a: fidelity(delivered(*a)))
    want = dense_trace(TWO_HOURS, ("Toronto", "DC"), 1300e3)
    got = harness.run_trace(TWO_HOURS, ("Toronto", "DC"), 1300e3)
    assert_same_samples(got, want)
    assert len({s.sat for s in got.samples}) > 1
