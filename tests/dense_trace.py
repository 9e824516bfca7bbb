"""Brute-force reference for `harness.run_trace`.

Evaluates orbit geometry and the full link budget for every satellite at
every time step, in chunks of time, and picks each step's best satellite
with `np.argmax`; a (step, satellite) with no coincidences (p_signal +
p_accidental == 0) cannot serve.  This is the dense search `run_trace`
used before coarse-to-fine pruning; the pruned search must reproduce its
samples bit for bit.
"""

import numpy as np

from sample_lists import columns_of
from satqkd import channel as ch
from satqkd import orbit
from satqkd.channel import LinkSample
from satqkd.harness import pair_name
from satqkd.strategy import FidelityTrace

TIME_CHUNK = 4096


def dense_trace(config, pair, altitude) -> FidelityTrace:
    """Per-second link samples for one station pair at one altitude."""
    gs_a = config.station(pair[0])
    gs_b = config.station(pair[1])
    const = config.constellation_at(altitude)
    chan = config.channel
    optics = chan.optics
    sta = orbit.station_ecef(gs_a)
    stb = orbit.station_ecef(gs_b)

    n_steps = int(round(config.horizon / config.time_step))
    times_all = np.arange(n_steps) * config.time_step
    samples = []

    for start in range(0, n_steps, TIME_CHUNK):
        times = times_all[start : start + TIME_CHUNK]
        pos = orbit.propagate_positions(const, times)
        el_a = orbit.elevation_deg(pos, sta)
        el_b = orbit.elevation_deg(pos, stb)
        mask = (el_a >= config.min_elevation) & (el_b >= config.min_elevation)

        # dummy elevations keep the transmissivity math in-domain off-mask
        el_a_safe = np.where(mask, el_a, 45.0)
        el_b_safe = np.where(mask, el_b, 45.0)
        eta_a = ch.arm_transmissivity(
            orbit.slant_range_from_elevation(el_a_safe, altitude),
            np.radians(90.0 - el_a_safe),
            optics,
        )
        eta_b = ch.arm_transmissivity(
            orbit.slant_range_from_elevation(el_b_safe, altitude),
            np.radians(90.0 - el_b_safe),
            optics,
        )
        p_click = np.array(
            [
                ch.background_click_prob(t, chan.radiance, chan.base_background_flux, optics)
                for t in times
            ]
        )[:, None]
        p_signal = eta_a * eta_b
        p_acc = ch.accidental_prob(p_click, p_click, eta_a, eta_b)
        mask &= p_signal + p_acc > 0  # a pair with no coincidences cannot serve
        fid = ch.delivered_fidelity(
            np.where(mask, p_signal, 1.0), np.where(mask, p_acc, 0.0),
            chan.source.source_fidelity,
        )
        sifted = chan.source.pair_rate * (p_signal + p_acc) * chan.basis_sift_factor

        fid_masked = np.where(mask, fid, -1.0)
        best = np.argmax(fid_masked, axis=1)
        has_link = mask.any(axis=1)
        for i, t in enumerate(times):
            if has_link[i]:
                j = int(best[i])
                samples.append(
                    LinkSample(
                        time=float(t),
                        fidelity=float(fid[i, j]),
                        sifted_bits=float(sifted[i, j]),
                        sat=divmod(j, const.sats_per_ring),
                    )
                )
            else:
                samples.append(LinkSample(time=float(t), fidelity=None, sifted_bits=0.0, sat=None))
    return FidelityTrace(pair=pair_name(pair), samples=columns_of(samples), horizon=config.horizon)
