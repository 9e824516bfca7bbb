"""A satellite whose coincidence probability is 0 delivers nothing and cannot serve.

With `min_elevation_deg` 0 and no background or dark counts, an arm within
a few hundredths of a degree of the horizon has a transmissivity that
underflows to 0, so its pair has p_signal + p_accidental == 0 and no
fidelity.  The vectorised search, the scalar oracle `link_sample` and the
dense oracle all skip such a (step, satellite), so the sweep gives keys,
not `NA` rows.  `test_fidelity_bound` holds `run_trace` to the dense
oracle on this configuration.
"""

from satqkd import channel, harness, orbit
from satqkd.config import config_from_dict

DARK = {
    "min_elevation_deg": 0,
    "radiance": {"base_flux_hz": 0},
    "optics": {"dark_rate_hz": 0},
}
TWO_HOURS = config_from_dict({**DARK, "horizon_s": 7200})
TEN_MINUTES = config_from_dict({**DARK, "horizon_s": 600})
PAIR = ("Toronto", "DC")
SILENT_AT = 36.0  # a step at which a visible satellite gives no coincidence at 500 km


def visible(config, t, altitude=500e3):
    const = config.constellation_at(altitude)
    stations = tuple(config.station(name) for name in PAIR)
    return const, stations, orbit.visible_sats(const, t, stations, config.min_elevation)


def test_a_visible_satellite_gives_no_coincidence():
    _, _, records = visible(TEN_MINUTES, SILENT_AT)
    budgets = [channel._link_budget(r, 500e3, TEN_MINUTES.channel) for r in records]
    assert None in budgets and any(b is not None for b in budgets)


def test_sweep_has_no_na_rows():
    rows = harness.run_experiment(TWO_HOURS)
    assert len(rows) == 4 * len(TWO_HOURS.pairs) * len(TWO_HOURS.altitudes)
    assert all(row.strategy != "NA" for row in rows)


def test_link_sample_skips_the_silent_satellite():
    const, stations, records = visible(TEN_MINUTES, SILENT_AT)
    silent = [r for r in records if channel._link_budget(r, 500e3, TEN_MINUTES.channel) is None]
    assert channel.select_best_satellite(silent, 500e3, TEN_MINUTES.channel) is None
    sample = channel.link_sample(
        SILENT_AT, stations, const, TEN_MINUTES.channel, TEN_MINUTES.min_elevation
    )
    trace = harness.run_trace(TEN_MINUTES, PAIR, 500e3)
    assert sample == trace.samples[int(SILENT_AT)]
    assert sample.sat not in {r.sat for r in silent}
