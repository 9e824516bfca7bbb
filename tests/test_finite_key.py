"""Unit and property tests for the finite-key formulas.

Frozen expected values were computed with the independent mpmath oracle in
tests/oracle.py at 50 decimal digits.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
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
    key_length_total,
    sampling_deviation,
    security_term,
)

DEFAULT = SecurityParams()


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_frozen_value(self):
        # oracle.entropy(0.11) at 50 dps
        assert binary_entropy(0.11) == pytest.approx(
            0.49991595816452799564, rel=1e-14
        )

    def test_symmetry(self):
        assert binary_entropy(0.3) == pytest.approx(binary_entropy(0.7), rel=1e-14)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            binary_entropy(bad)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_matches_oracle(self, q):
        expected = float(oracle.entropy(q))
        assert binary_entropy(q) == pytest.approx(expected, rel=1e-13, abs=1e-15)


class TestSamplingDeviation:
    def test_frozen_values(self):
        # oracle.deviation at 50 dps
        assert sampling_deviation(
            SampleCounts(990_000, 10_000), 1e-9
        ) == pytest.approx(0.046513335395094775711, rel=1e-13)
        assert sampling_deviation(
            SampleCounts(1_000_000, 1_000_000), 1e-9
        ) == pytest.approx(0.0065446824879316145434, rel=1e-13)

    def test_more_test_bits_reduce_deviation(self):
        small = sampling_deviation(SampleCounts(10**6, 10**3), 1e-9)
        large = sampling_deviation(SampleCounts(10**6, 10**5), 1e-9)
        assert large < small

    def test_domain(self):
        with pytest.raises(ValueError):
            sampling_deviation(SampleCounts(0, 10), 1e-9)
        with pytest.raises(ValueError):
            sampling_deviation(SampleCounts(10, 0), 1e-9)
        with pytest.raises(ValueError):
            sampling_deviation(SampleCounts(10, 10), 0.0)


class TestEcLeakage:
    def test_zero_error(self):
        assert ec_leakage(1000, 0.0, 0.0) == 0.0

    def test_full_entropy(self):
        assert ec_leakage(1000, 0.5, 0.0) == pytest.approx(1000.0, rel=1e-14)

    def test_frozen_value(self):
        # oracle.leakage(990000, 0.02, mu(990000, 10000, 1e-9)) at 50 dps
        mu = sampling_deviation(SampleCounts(990_000, 10_000), 1e-9)
        assert ec_leakage(990_000, 0.02, mu) == pytest.approx(
            349247.5229396889855, rel=1e-12
        )

    def test_efficiency_scales_linearly(self):
        base = ec_leakage(10**6, 0.05, 0.01)
        assert ec_leakage(10**6, 0.05, 0.01, efficiency=1.2) == pytest.approx(
            1.2 * base, rel=1e-14
        )

    def test_clips_at_half(self):
        # q + mu beyond 0.5 behaves exactly like 0.5
        assert ec_leakage(1000, 0.4, 0.3) == ec_leakage(1000, 0.5, 0.0)


class TestSecurityTerm:
    def test_frozen_value(self):
        # 1 - 2*log2(1e-9) - log2(1e-15) with eps powers of ten
        expected = 1.0 - 2.0 * math.log2(1e-9) - math.log2(1e-15)
        assert security_term(DEFAULT) == pytest.approx(expected, rel=1e-15)

    def test_tighter_eps_costs_more(self):
        loose = security_term(SecurityParams(eps_sec=1e-6, eps_cor=1e-6))
        tight = security_term(SecurityParams(eps_sec=1e-12, eps_cor=1e-12))
        assert tight > loose


class TestKeyLengthNonblock:
    def test_frozen_case(self):
        # oracle.raw_key_length(990000, 10000, 0.02, 1e-9, 1e-15) at 50 dps
        res = key_length_nonblock(SampleCounts(990_000, 10_000), 0.02, DEFAULT)
        assert res.raw_value == pytest.approx(291394.33049349074604, rel=1e-12)
        assert res.secret_bits == 291394

    def test_zero_when_noise_saturates(self):
        res = key_length_nonblock(SampleCounts(10**6, 10**4), 0.49, DEFAULT)
        assert res.secret_bits == 0
        assert res.raw_value < 0

    def test_zero_for_tiny_blocks(self):
        res = key_length_nonblock(SampleCounts(9, 1), 0.0, DEFAULT)
        assert res.secret_bits == 0

    def test_secret_bits_bounds(self):
        res = key_length_nonblock(SampleCounts(10**8, 10**6), 0.01, DEFAULT)
        assert 0 < res.secret_bits <= 10**8

    def test_ec_efficiency_reduces_key(self):
        counts = SampleCounts(10**7, 10**5)
        ideal = key_length_nonblock(counts, 0.03, DEFAULT)
        lossy = key_length_nonblock(counts, 0.03, DEFAULT, ec_efficiency=1.16)
        assert lossy.secret_bits < ideal.secret_bits

    def test_domain(self):
        with pytest.raises(ValueError):
            key_length_nonblock(SampleCounts(1000, 10), -0.01, DEFAULT)
        with pytest.raises(ValueError):
            key_length_nonblock(SampleCounts(1000, 10), 1.01, DEFAULT)


class TestKeyLengthBlockAndTotal:
    def test_single_block_matches_nonblock(self):
        counts = SampleCounts(990_000, 10_000)
        nb = key_length_nonblock(counts, 0.02, DEFAULT)
        blk = key_length_block(BlockStats(10**6, 10_000, 0.02), DEFAULT)
        assert blk.secret_bits == nb.secret_bits
        assert blk.raw_value == nb.raw_value

    def test_total_sums_clamped_blocks(self):
        good = BlockStats(10**6, 10_000, 0.01)
        dead = BlockStats(100, 10, 0.0)
        alone = key_length_block(good, DEFAULT)
        both = key_length_total([good, dead], DEFAULT)
        assert both.secret_bits == alone.secret_bits

    def test_total_of_identical_blocks_doubles(self):
        blk = BlockStats(10**6, 10_000, 0.02)
        one = key_length_total([blk], DEFAULT)
        two = key_length_total([blk, blk], DEFAULT)
        assert two.secret_bits == 2 * one.secret_bits

    def test_empty_total_is_zero(self):
        assert key_length_total([], DEFAULT).secret_bits == 0


class TestAsymptoticRates:
    def test_perfect_channel(self):
        assert asymptotic_rate_nonblock(0.0) == 1.0

    def test_dead_channel(self):
        assert asymptotic_rate_nonblock(0.5) == 0.0
        # Past the 11% hashing-bound crossover the rate is pinned at zero.
        assert asymptotic_rate_nonblock(0.2) == 0.0

    def test_frozen_values(self):
        # oracle.rate_nonblock at 50 dps
        assert asymptotic_rate_nonblock(0.11) == pytest.approx(
            0.000168083670944008719, rel=1e-10
        )
        assert asymptotic_rate_nonblock(0.05) == pytest.approx(
            0.42720608576808771889, rel=1e-13
        )

    def test_block_convexity_example(self):
        mixed = asymptotic_rate_block([(0.5, 0.01), (0.5, 0.09)])
        pooled = asymptotic_rate_nonblock(0.05)
        assert mixed > pooled

    def test_block_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            asymptotic_rate_block([(0.5, 0.01), (0.4, 0.09)])


# --- property tests -------------------------------------------------------

counts_strategy = st.tuples(
    st.integers(min_value=10, max_value=10**9),
    st.integers(min_value=1, max_value=10**8),
)
qber_strategy = st.floats(min_value=0.0, max_value=0.5)
eps_strategy = st.floats(min_value=1e-15, max_value=1e-3)


@settings(max_examples=200, deadline=None)
@given(counts_strategy, qber_strategy, eps_strategy, eps_strategy)
def test_raw_value_matches_oracle(counts, q, eps_sec, eps_cor):
    n, m = counts
    params = SecurityParams(eps_sec=eps_sec, eps_cor=eps_cor)
    res = key_length_nonblock(SampleCounts(n, m), q, params)
    expected = float(oracle.raw_key_length(n, m, q, eps_sec, eps_cor))
    # Cancellation in n*(1 - 2h) limits accuracy relative to the result
    # itself; measure against the natural scale n instead.
    assert abs(res.raw_value - expected) <= 1e-12 * max(abs(expected), float(n))


@settings(max_examples=200, deadline=None)
@given(counts_strategy, qber_strategy)
def test_secret_bits_clamped(counts, q):
    n, m = counts
    res = key_length_nonblock(SampleCounts(n, m), q, DEFAULT)
    assert 0 <= res.secret_bits <= n
    assert res.secret_bits == int(res.secret_bits)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=10**4, max_value=10**8),
    st.integers(min_value=100, max_value=10**6),
    st.floats(min_value=0.0, max_value=0.4),
    st.floats(min_value=0.001, max_value=0.09),
)
def test_monotone_decreasing_in_qber(n, m, q, dq):
    lo = key_length_nonblock(SampleCounts(n, m), q, DEFAULT)
    hi = key_length_nonblock(SampleCounts(n, m), q + dq, DEFAULT)
    assert hi.secret_bits <= lo.secret_bits


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=10**4, max_value=10**8),
    st.integers(min_value=100, max_value=10**6),
    st.floats(min_value=0.0, max_value=0.45),
)
def test_monotone_increasing_in_kept_bits(n, m, q):
    small = key_length_nonblock(SampleCounts(n, m), q, DEFAULT)
    large = key_length_nonblock(SampleCounts(2 * n, m), q, DEFAULT)
    assert large.secret_bits >= small.secret_bits


# Normalised weights that sum to 1 + 2**-52: pooling over them would give a
# QBER of 0.5000000000000001, so the pooled QBER is taken as the library
# takes it, sum(p * q) / sum(p), which stays <= 0.5 when every q does.
@example([(0.5, 0.5), (0.2917282405228406, 0.5), (0.2917282405228406, 0.5)])
@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=1.0),
            st.floats(min_value=0.0, max_value=0.5),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_blockwise_asymptotic_dominates(parts):
    total = sum(p for p, _ in parts)
    weights = [(p / total, q) for p, q in parts]
    pooled_q = sum(p * q for p, q in parts) / total
    block = asymptotic_rate_block(weights)
    pooled = asymptotic_rate_nonblock(pooled_q)
    assert block >= pooled - 1e-12
