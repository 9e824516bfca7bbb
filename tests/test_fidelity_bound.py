"""Exactness of the window-level fidelity bound in `harness.run_trace`.

Between the window search and the fine pass, `harness._can_win` drops each
(inner window, satellite) pair whose best-case fidelity over the window is
below the worst-case fidelity of a satellite visible at every step of it.
These tests hold the pruned search to `dense_trace.dense_trace`, which
evaluates every satellite at every step, in the cases where a looser bound
would go wrong: windows longer than a radiance interval, angle ranges past
0 or pi, zero click probability, fidelities that tie, and fidelities that
differ only by rounding.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_trace import dense_trace
from satqkd import channel, harness, orbit
from satqkd.config import config_from_dict
from test_pruning import BATCH, W, assert_same_samples, pair_config

TWO_HOURS = 7200.0
TWO_DAYS = 172800.0


def cell(pair, altitude, **overrides):
    """One (pair, altitude) cell of a config built from JSON overrides."""
    return config_from_dict({"altitudes_m": [altitude], "pairs": [list(pair)], **overrides})


def pruned_candidates(config, pair, altitude, start, stop):
    """The fine pass's (step, satellite) pairs over steps [start, stop), as
    `run_trace` composes them: window search, then the bound, then expand."""
    const = config.constellation_at(altitude)
    stations = [orbit.station_ecef(config.station(name)) for name in pair]
    n_steps = int(round(config.horizon / config.time_step))
    p_click = harness._click_probs(np.arange(n_steps) * config.time_step, config.channel)
    windows = harness._window_search(config, const, stations, start, stop)
    return harness._expand(*harness._can_win(config, const, stations, p_click, *windows))


@pytest.mark.parametrize("altitude", [500e3, 1300e3], ids=lambda a: f"{int(a)}m")
@pytest.mark.parametrize("time_step", [300.0, 1200.0, 3600.0])
def test_long_time_steps_match_dense_search(time_step, altitude):
    """A window of 20 long steps spans radiance intervals, and each
    station's angle range reaches past 0 and pi, where the elevation
    formula bounds nothing unless the angles are clamped.  Clamped, no
    satellite is sure to be visible throughout such a window, and the bound
    must keep every pair."""
    config = cell(("Toronto", "DC"), altitude, horizon_s=TWO_DAYS, time_step_s=time_step)
    want = dense_trace(config, ("Toronto", "DC"), altitude)
    assert_same_samples(harness.run_trace(config, ("Toronto", "DC"), altitude), want)


def test_click_bounds_cover_every_step_of_a_window(monkeypatch):
    """With radiance intervals of 7 s, a 20-step window holds up to four
    click probabilities, and its ends need not hold the extremes.  The
    bound must take them from every step: which of two satellites is better
    can flip with the click probability when one has a strong and a weak
    arm and the other two middling ones."""
    monkeypatch.setattr(channel, "INTERVAL_SECONDS", 7)
    monkeypatch.setattr(channel, "SECONDS_PER_DAY", 28)
    pair = ("Toronto", "Houston")
    config = cell(pair, 1300e3, horizon_s=TWO_HOURS, radiance={"base_flux_hz": 1e5})
    assert_same_samples(harness.run_trace(config, pair, 1300e3), dense_trace(config, pair, 1300e3))


@pytest.mark.parametrize("altitude", [500e3, 1300e3], ids=lambda a: f"{int(a)}m")
def test_zero_click_probability_matches_dense_search(altitude):
    """With no background and no dark counts every linked step delivers the
    source fidelity, so every satellite ties and the lowest index wins."""
    config = cell(
        ("Toronto", "DC"), altitude, horizon_s=TWO_HOURS, min_elevation_deg=0.0,
        radiance={"base_flux_hz": 0.0},
        optics={"dark_rate_hz": 0.0, "zenith_optical_depth": 0.0},
    )
    got = harness.run_trace(config, ("Toronto", "DC"), altitude)
    assert_same_samples(got, dense_trace(config, ("Toronto", "DC"), altitude))
    assert {s.fidelity for s in got.samples} - {None} == {1.0}


@pytest.mark.parametrize("altitude", [500e3, 1300e3], ids=lambda a: f"{int(a)}m")
def test_bound_keeps_pairs_without_coincidences(altitude):
    """At zero click probability an arm whose transmissivity underflows to 0
    gives no coincidence, which `delivered_fidelity` rejects.  The bound
    evaluates elevations down to the horizon, where that happens, also for
    satellites the fine pass never sees; it must keep such a pair rather
    than raise.  The fine pass then skips a pair with no coincidences, which
    cannot serve, as the dense search does."""
    pair = ("Toronto", "DC")
    config = cell(
        pair, altitude, horizon_s=TWO_HOURS, min_elevation_deg=0.0,
        radiance={"base_flux_hz": 0.0}, optics={"dark_rate_hz": 0.0},
    )
    n_steps = int(round(config.horizon / config.time_step))
    for start in range(0, n_steps, BATCH):
        pruned_candidates(config, pair, altitude, start, min(start + BATCH, n_steps))
    got = harness.run_trace(config, pair, altitude)
    assert_same_samples(got, dense_trace(config, pair, altitude))


@pytest.mark.parametrize("altitude", [500e3, 1300e3], ids=lambda a: f"{int(a)}m")
def test_fully_mixed_source_goes_to_lowest_index(altitude):
    """A source fidelity of 0.25 delivers 0.25 through every satellite, so
    every step ties and goes to the lowest ring-major index."""
    config = cell(
        ("Toronto", "DC"), altitude, horizon_s=TWO_HOURS, source={"source_fidelity": 0.25}
    )
    got = harness.run_trace(config, ("Toronto", "DC"), altitude)
    assert_same_samples(got, dense_trace(config, ("Toronto", "DC"), altitude))
    assert {s.fidelity for s in got.samples} - {None} == {0.25}


def test_rounding_noise_never_drops_a_tied_winner(monkeypatch):
    """Fidelities rounded to two places tie in groups, and a relative noise
    of 1e-12, a fixed function of each evaluation's inputs, stands for
    rounding error in the link budget.  Within a tie the noise picks the
    winner; the bound sees the same kind of noise at its own inputs, and its
    margin must keep it from dropping any member of a tie."""
    delivered = channel.delivered_fidelity

    def noisy(p_signal, p_accidental, source_fidelity):
        fid = np.round(delivered(p_signal, p_accidental, source_fidelity), 2)
        return fid * (1.0 + 1e-12 * np.sin(1e9 * p_signal))

    monkeypatch.setattr(channel, "delivered_fidelity", noisy)
    config = cell(("Toronto", "DC"), 1300e3, horizon_s=TWO_HOURS)
    want = dense_trace(config, ("Toronto", "DC"), 1300e3)
    assert_same_samples(harness.run_trace(config, ("Toronto", "DC"), 1300e3), want)


def test_bound_prunes_most_candidates():
    """At 1300 km many satellites see both stations at once, and the bound
    leaves the fine pass a small part of the window search's candidates,
    so the stage cannot silently stop pruning."""
    pair = ("Toronto", "DC")
    config = cell(pair, 1300e3, horizon_s=TWO_HOURS)
    const = config.constellation_at(1300e3)
    stations = [orbit.station_ecef(config.station(name)) for name in pair]
    n_steps = int(round(config.horizon / config.time_step))
    cone = pruned = 0
    for start in range(0, n_steps, BATCH):
        stop = min(start + BATCH, n_steps)
        cone += len(harness._candidates(config, const, stations, start, stop)[0])
        pruned += len(pruned_candidates(config, pair, 1300e3, start, stop)[0])
    assert 0 < pruned < cone / 3


# Toronto-DC at 500 km, and a dark, noisy 800 km pass.
@example(43.65, -79.38, -4.75, 2.35, 500e3, 20.0, 1.0, 0.0, 7 * W - 1, 3e3)
@example(43.65, -79.38, -4.75, 2.35, 800e3, 0.0, 7.0, 0.3, BATCH + 13, 1e6)
@settings(max_examples=20, deadline=None)
@given(
    lat=st.floats(-70.0, 70.0),
    lon=st.floats(-180.0, 180.0),
    dlat=st.floats(-15.0, 15.0),
    dlon=st.floats(-15.0, 15.0),
    altitude=st.floats(400e3, 1500e3),
    min_elevation=st.floats(0.0, 40.0),
    time_step=st.sampled_from([0.5, 1.0, 2.0, 7.0]),
    interplane_phase=st.floats(0.0, 2 * math.pi),
    n_steps=st.integers(1, BATCH + 2 * W),
    base_flux=st.sampled_from([0.0, 3e3, 1e5, 1e7]),
)
def test_pruned_candidates_hold_every_dense_winner(
    lat, lon, dlat, dlon, altitude, min_elevation, time_step, interplane_phase, n_steps,
    base_flux,
):
    """Per batch, the candidates left after the bound hold the (step,
    satellite) that the dense search picks at every linked step."""
    base = pair_config(
        lat, lon, dlat, dlon, altitude, min_elevation, time_step, interplane_phase, n_steps
    )
    doc = base.to_dict()
    doc["radiance"]["base_flux_hz"] = base_flux
    config = config_from_dict(doc)
    dense = dense_trace(config, ("A", "B"), altitude)
    sats_per_ring = config.constellation.sats_per_ring
    winners = {
        (step, s.sat[0] * sats_per_ring + s.sat[1])
        for step, s in enumerate(dense.samples)
        if s.sat is not None
    }
    kept = set()
    for start in range(0, n_steps, BATCH):
        steps, sats = pruned_candidates(
            config, ("A", "B"), altitude, start, min(start + BATCH, n_steps)
        )
        kept.update(zip(steps.tolist(), sats.tolist()))
    assert winners <= kept
