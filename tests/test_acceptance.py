"""Acceptance suite.

Nine criteria covering formula correctness against an arbitrary-precision
oracle, qualitative reproduction of the optimal-threshold and blockwise
results, geometry and channel invariants, and end-to-end CLI determinism.
Each test prints a PASS line when its criterion holds (visible with -s; the
per-test PASSED/FAILED status carries the same information under -v).
"""

import math
import time

import numpy as np
import pytest

import oracle
from sample_lists import columns_of
from satqkd import cli, harness
from satqkd.channel import (
    ChannelParams,
    LinkSample,
    OpticsConfig,
    arm_transmissivity,
    delivered_fidelity,
    link_sample,
)
from satqkd.config import ExperimentConfig
from satqkd.finite_key import (
    BlockStats,
    SampleCounts,
    SecurityParams,
    asymptotic_rate_block,
    asymptotic_rate_nonblock,
    binary_entropy,
    ec_leakage,
    key_length_block,
    key_length_nonblock,
    sampling_deviation,
)
from satqkd.orbit import (
    EARTH_RADIUS_M,
    ConstellationConfig,
    GroundStation,
    kepler_period,
    propagate_positions,
    visible_sats,
)
from satqkd.strategy import (
    BlockingPolicy,
    FidelityTrace,
    SearchGrids,
    best_blocking,
    evaluate_nonblock,
    improvement,
)

PARAMS = SecurityParams()
GRIDS = SearchGrids()
CONFIG = ExperimentConfig()


def _report(number: int, message: str) -> None:
    print(f"PASS criterion {number}: {message}")


def plateau_trace(spec):
    points = []
    for fid, total, seconds in spec:
        points.extend([(fid, total / seconds)] * seconds)
    samples = [
        LinkSample(time=float(i), fidelity=f, sifted_bits=b, sat=(0, 0))
        for i, (f, b) in enumerate(points)
    ]
    return FidelityTrace(pair="synthetic", samples=columns_of(samples), horizon=float(len(points)))


@pytest.fixture(scope="module")
def toronto_dc_traces():
    """Default one-day Toronto-DC traces, one per altitude."""
    start = time.monotonic()
    traces = {
        alt: harness.run_trace(CONFIG, ("Toronto", "DC"), alt)
        for alt in CONFIG.altitudes
    }
    elapsed = time.monotonic() - start
    assert elapsed < 120.0 * len(traces), "trace generation over budget"
    return traces


def test_criterion_1_formula_oracle():
    """Randomized formula evaluations match the mpmath oracle to 1e-12."""
    start = time.monotonic()
    rng = np.random.default_rng(20260826)
    for _ in range(1000):
        n = int(10 ** rng.uniform(2, 9))
        m = int(10 ** rng.uniform(0, min(8, math.log10(n))))
        q = rng.uniform(0.0, 0.5)
        eps_sec = 10 ** rng.uniform(-15, -3)
        eps_cor = 10 ** rng.uniform(-15, -3)
        params = SecurityParams(eps_sec=eps_sec, eps_cor=eps_cor)
        counts = SampleCounts(n, m)

        mu = sampling_deviation(counts, eps_sec)
        mu_ref = float(oracle.deviation(n, m, eps_sec))
        assert abs(mu - mu_ref) <= 1e-12 * mu_ref

        leak = ec_leakage(n, q, mu)
        leak_ref = float(oracle.leakage(n, q, mu_ref))
        # the formula's natural scale is n; cancellation-free terms are
        # also covered by the plain relative bound
        assert abs(leak - leak_ref) <= 1e-12 * max(abs(leak_ref), float(n))

        res = key_length_nonblock(counts, q, params)
        raw_ref = float(oracle.raw_key_length(n, m, q, eps_sec, eps_cor))
        assert abs(res.raw_value - raw_ref) <= 1e-12 * max(abs(raw_ref), float(n))
        assert res.secret_bits == oracle.secret_bits(n, m, q, eps_sec, eps_cor)

        blk = key_length_block(BlockStats(n + m, m, q), params)
        assert blk.raw_value == res.raw_value
        assert blk.secret_bits == res.secret_bits

        rate = asymptotic_rate_nonblock(q)
        rate_ref = float(oracle.rate_nonblock(q))
        assert abs(rate - rate_ref) <= 1e-12 * max(abs(rate_ref), 1.0)

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(1, f"1000 randomized oracle comparisons in {elapsed:.2f}s")


def test_criterion_2_concavity_dominance():
    """Blockwise asymptotic rate never loses to the pooled rate."""
    start = time.monotonic()
    rng = np.random.default_rng(7)
    for _ in range(1000):
        k = rng.integers(1, 6)
        weights = rng.dirichlet(np.ones(k))
        qbers = rng.uniform(0.0, 0.5, size=k)
        block = asymptotic_rate_block(list(zip(weights, qbers)))
        pooled = asymptotic_rate_nonblock(float(weights @ qbers))
        assert block >= pooled - 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(2, f"1000 random decompositions, zero violations, in {elapsed:.2f}s")


def test_criterion_3_finite_size_clamping():
    """Tiny blocks yield nothing; huge blocks approach the asymptotic rate."""
    start = time.monotonic()
    for size in range(2, 101):
        for m in range(1, size):
            for q in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
                assert key_length_block(BlockStats(size, m, q), PARAMS).secret_bits == 0

    # At 1e10 bits (comfortably past the 1e7 floor where finite-size terms
    # still dominate) the optimized finite key sits within 0.02 of the
    # asymptotic rate.
    big = 10**10
    best = 0
    for rate in GRIDS.sampling_rates:
        m = max(1, round(rate * big))
        res = key_length_nonblock(SampleCounts(big - m, m), 0.02, PARAMS)
        best = max(best, res.secret_bits)
    asym = asymptotic_rate_nonblock(0.02)
    gap = asym - best / big
    assert 0.0 < gap < 0.02
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(3, f"B<=100 always clamps to 0; gap at B=1e10 is {gap:.4f} < 0.02")


def test_criterion_4_interior_optimal_threshold(toronto_dc_traces):
    """The threshold sweep peaks strictly inside [0.70, 0.90]."""
    for alt, trace in toronto_dc_traces.items():
        start = time.monotonic()
        sweep = harness.threshold_sweep(trace, CONFIG)
        bits = [b for _, _, b in sweep]
        best = max(range(len(bits)), key=bits.__getitem__)
        assert 0 < best < len(bits) - 1, f"optimum at boundary for {alt} m"
        assert bits[best] > bits[0] and bits[best] > bits[-1]
        elapsed = time.monotonic() - start
        assert elapsed < 120.0
        _report(
            4,
            f"altitude {int(alt)} m: optimum at theta={sweep[best][0]:.2f}, "
            f"interior of [0.70, 0.90]",
        )


def test_criterion_5_blockwise_benefit():
    """Blockwise beats non-blockwise on a rich three-plateau trace."""
    start = time.monotonic()
    policies = [BlockingPolicy((0.98,)), BlockingPolicy((0.90, 0.98))]

    def gain(bits_per_plateau):
        trace = plateau_trace(
            [(0.99, bits_per_plateau, 500),
             (0.94, bits_per_plateau, 500),
             (0.80, bits_per_plateau, 500)]
        )
        nb = evaluate_nonblock(trace, GRIDS, PARAMS)
        blk = best_blocking(trace, policies, GRIDS, PARAMS)
        return improvement(blk.secret_bits, nb.secret_bits)

    one_day = gain(3e8)
    ten_day = gain(3e9)
    assert one_day is not None and 1.0 <= one_day <= 15.0
    assert ten_day > one_day
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(
        5,
        f"improvement {one_day:.2f}% at 3e8 bits/plateau, "
        f"{ten_day:.2f}% at 10x volume",
    )


def test_criterion_6_small_data_inversion():
    """At small volume blockwise loses to non-blockwise."""
    start = time.monotonic()
    per_plateau = 33_000  # 99,000 total bits, under the 1e5 cap
    trace = plateau_trace(
        [(0.99, per_plateau, 100), (0.94, per_plateau, 100), (0.80, per_plateau, 100)]
    )
    nb = evaluate_nonblock(trace, GRIDS, PARAMS)
    blk = best_blocking(
        trace, [BlockingPolicy((0.98,)), BlockingPolicy((0.90, 0.98))], GRIDS, PARAMS
    )
    assert nb.secret_bits > 0
    assert blk.secret_bits < nb.secret_bits
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(
        6,
        f"at 99k total bits blockwise ({blk.secret_bits}) < "
        f"non-blockwise ({nb.secret_bits})",
    )


def test_criterion_7_geometry_suite():
    """Kepler periods, radius conservation, zenith, visibility symmetry."""
    start = time.monotonic()

    # closed-form periods (frozen from 2*pi*sqrt((R_E+h)^3/mu) at 50 dps)
    assert abs(kepler_period(500e3) / 5668.14436906117 - 1.0) < 1e-3
    assert abs(kepler_period(1300e3) / 6686.34766631946 - 1.0) < 1e-3

    # circular orbits conserve radius to 1e-9 relative
    const = ConstellationConfig(altitude=800e3)
    rng = np.random.default_rng(5)
    pos = propagate_positions(const, rng.uniform(0, 86400.0, size=40))
    radii = np.linalg.norm(pos, axis=-1)
    assert np.all(np.abs(radii / (EARTH_RADIUS_M + 800e3) - 1.0) < 1e-9)

    # a satellite straight overhead sits at exactly 90 degrees elevation
    from satqkd.orbit import SatPosition, elevation, station_ecef

    station = GroundStation("s", 38.9072, -77.0369)
    overhead = SatPosition(
        0, 0, tuple(station_ecef(station) * (EARTH_RADIUS_M + 500e3) / EARTH_RADIUS_M)
    )
    assert elevation(overhead, station) == pytest.approx(90.0, abs=1e-9)

    # dual visibility is symmetric in the pair
    pair = (
        GroundStation("to", 43.6532, -79.3832),
        GroundStation("dc", 38.9072, -77.0369),
    )
    for t in (0.0, 3600.0, 40000.0, 81000.0):
        fwd = {v.sat for v in visible_sats(const, t, pair, 20.0)}
        rev = {v.sat for v in visible_sats(const, t, pair[::-1], 20.0)}
        assert fwd == rev

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(7, f"geometry invariants hold in {elapsed:.2f}s")


def test_criterion_8_channel_suite(toronto_dc_traces):
    """Inverse-square capture, noise-mixing limits, day/night contrast."""
    start = time.monotonic()

    # far-field capture follows an exact inverse-square law
    optics = OpticsConfig(zenith_optical_depth=0.0)
    assert arm_transmissivity(1.5e6, 0.2, optics) == 4.0 * arm_transmissivity(
        3.0e6, 0.2, optics
    )

    # mixing limits: pure signal keeps the source fidelity, pure accidentals
    # give the maximally mixed 0.25
    assert delivered_fidelity(1e-5, 0.0, 1.0) == 1.0
    assert delivered_fidelity(0.0, 1e-5, 1.0) == 0.25

    # the noon radiance interval degrades the best achievable fidelity
    trace = toronto_dc_traces[500e3]
    def interval_max(hour):
        fids = [
            s.fidelity
            for s in trace.samples[hour * 3600 : (hour + 6) * 3600]
            if s.fidelity is not None
        ]
        assert fids, f"no link in interval starting {hour}h"
        return max(fids)

    assert interval_max(0) > interval_max(12)

    # the scalar channel path agrees with the vectorized trace generator
    const = CONFIG.constellation_at(500e3)
    pair = (CONFIG.station("Toronto"), CONFIG.station("DC"))
    checked = 0
    for s in trace.samples[: 2 * 3600]:
        ref = link_sample(s.time, pair, const, CONFIG.channel, CONFIG.min_elevation)
        assert (ref.sat is None) == (s.sat is None)
        if ref.sat is not None:
            assert ref.sat == s.sat
            assert abs(ref.fidelity - s.fidelity) < 1e-12
            checked += 1
    assert checked > 0

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(8, f"channel invariants hold ({checked} scalar/vector seconds checked)")


def test_criterion_9_cli_determinism(tmp_path):
    """Two identical sweeps are byte-identical; keyrate round-trips."""
    start = time.monotonic()
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli.main(["sweep", "--out", str(out1)]) == 0
    assert cli.main(["sweep", "--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "plotdata_results.csv").read_bytes() == (
        out2 / "plotdata_results.csv"
    ).read_bytes()

    # simulate -> keyrate -> re-emit -> keyrate preserves the key length
    sim = tmp_path / "sim"
    assert cli.main(
        ["simulate", "--out", str(sim), "--pair", "Toronto:DC", "--altitude", "500000"]
    ) == 0
    trace_path = sim / "trace_Toronto-DC_500000.csv"
    trace, _ = harness.read_trace_csv(trace_path)
    first = evaluate_nonblock(trace, CONFIG.grids, CONFIG.security)

    copy_path = tmp_path / "copy.csv"
    harness.emit_trace_csv(trace, copy_path)
    trace2, _ = harness.read_trace_csv(copy_path)
    second = evaluate_nonblock(trace2, CONFIG.grids, CONFIG.security)
    assert second.secret_bits == first.secret_bits

    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _report(9, f"two sweeps byte-identical; round-trip stable in {elapsed:.0f}s")
