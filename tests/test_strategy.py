"""Tests for thresholding, blocking, and grid-search optimization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sample_lists import columns_of
from satqkd.channel import LinkSample
from satqkd.finite_key import SampleCounts, SecurityParams, key_length_nonblock
from satqkd.strategy import (
    BlockingPolicy,
    FidelityTrace,
    NoDataError,
    SampleColumns,
    SearchGrids,
    aggregate_qber,
    apply_threshold,
    best_blocking,
    bucket_ranges,
    evaluate_block,
    evaluate_nonblock,
    improvement,
    optimize_sampling,
    optimize_threshold,
    partition,
)

PARAMS = SecurityParams()
GRIDS = SearchGrids()


def make_trace(points, pair="a-b"):
    """Trace from (fidelity, sifted_bits) points; fidelity None = no link."""
    samples = [
        LinkSample(time=float(i), fidelity=f, sifted_bits=b, sat=None if f is None else (0, 0))
        for i, (f, b) in enumerate(points)
    ]
    return FidelityTrace(pair=pair, samples=columns_of(samples), horizon=float(len(points)))


def plateau_trace(spec):
    """Trace with constant-fidelity plateaus: [(fidelity, total_bits, seconds)]."""
    points = []
    for fid, total, seconds in spec:
        points.extend([(fid, total / seconds)] * seconds)
    return make_trace(points)


class TestTraceValidation:
    def test_times_must_increase(self):
        good = make_trace([(0.9, 10.0), (0.8, 10.0)])
        assert len(good.samples) == 2
        with pytest.raises(ValueError):
            FidelityTrace("x", columns_of([*good.samples, good.samples[0]]), 3.0)


class TestBlockingPolicy:
    def test_labels(self):
        assert BlockingPolicy().label == "non-blockwise"
        assert BlockingPolicy((0.98,)).label == "2-block"
        assert BlockingPolicy((0.90, 0.98)).label == "3-block"

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockingPolicy((0.98, 0.90))
        with pytest.raises(ValueError):
            BlockingPolicy((1.0,))


class TestAggregateQber:
    def test_uniform(self):
        trace = make_trace([(0.82, 100.0)] * 3)
        total, qber = aggregate_qber(trace.samples)
        assert total == pytest.approx(300.0)
        assert qber == pytest.approx(0.12, rel=1e-14)

    def test_weighted_mean(self):
        # Q(1.0) = 0, Q(0.25) = 0.5; weights 7:3 -> 0.15
        trace = make_trace([(1.0, 700.0), (0.25, 300.0)])
        total, qber = aggregate_qber(trace.samples)
        assert total == pytest.approx(1000.0)
        assert qber == pytest.approx(0.15, rel=1e-14)

    def test_skips_unlinked(self):
        trace = make_trace([(None, 0.0), (0.9, 50.0), (None, 0.0)])
        total, qber = aggregate_qber(trace.samples)
        assert total == pytest.approx(50.0)

    def test_empty_raises(self):
        with pytest.raises(NoDataError):
            aggregate_qber(columns_of([]))
        with pytest.raises(NoDataError):
            aggregate_qber(make_trace([(None, 0.0)]).samples)


class TestApplyThreshold:
    TRACE = make_trace([(0.95, 10.0), (0.80, 10.0), (None, 0.0), (0.70, 10.0)])

    def test_keeps_at_or_above(self):
        kept = apply_threshold(self.TRACE.samples, 0.80)
        assert [s.fidelity for s in kept] == [0.95, 0.80]

    def test_floor_keeps_all_linked(self):
        assert len(apply_threshold(self.TRACE.samples, 0.25)) == 3

    def test_domain(self):
        with pytest.raises(ValueError):
            apply_threshold(self.TRACE.samples, 0.1)

    @given(st.floats(min_value=0.25, max_value=1.0), st.floats(min_value=0.0, max_value=0.75))
    @settings(max_examples=100, deadline=None)
    def test_raising_threshold_never_adds_bits(self, theta, dtheta):
        hi = min(1.0, theta + dtheta)
        kept_lo = apply_threshold(self.TRACE.samples, theta)
        kept_hi = apply_threshold(self.TRACE.samples, hi)
        assert sum(s.sifted_bits for s in kept_hi) <= sum(s.sifted_bits for s in kept_lo)


class TestPartition:
    def test_two_block(self):
        trace = make_trace([(0.99, 1.0), (0.98, 2.0), (0.50, 3.0), (None, 0.0), (1.0, 4.0)])
        hi, lo = partition(trace, BlockingPolicy((0.98,)))
        assert sorted(s.fidelity for s in hi) == [0.98, 0.99, 1.0]
        assert [s.fidelity for s in lo] == [0.50]

    def test_three_block_ranges(self):
        policy = BlockingPolicy((0.90, 0.98))
        assert bucket_ranges(policy) == [(0.98, 1.0), (0.90, 0.98), (0.25, 0.90)]
        trace = make_trace([(0.95, 1.0), (0.98, 1.0), (0.90, 1.0), (0.30, 1.0)])
        top, mid, bot = partition(trace, policy)
        assert [s.fidelity for s in top] == [0.98]
        assert sorted(s.fidelity for s in mid) == [0.90, 0.95]
        assert [s.fidelity for s in bot] == [0.30]

    def test_empty_policy_single_bucket(self):
        trace = make_trace([(0.9, 1.0), (0.3, 1.0)])
        buckets = partition(trace, BlockingPolicy())
        assert len(buckets) == 1
        assert len(buckets[0]) == 2

    def test_partition_is_exhaustive(self):
        rng = np.random.default_rng(11)
        trace = make_trace([(f, 1.0) for f in rng.uniform(0.25, 1.0, size=200)])
        policy = BlockingPolicy((0.5, 0.7, 0.9))
        buckets = partition(trace, policy)
        assert sum(len(b) for b in buckets) == 200
        for bucket, (lo, hi) in zip(buckets, bucket_ranges(policy)):
            for s in bucket:
                assert lo <= s.fidelity <= hi


class TestOptimizeSampling:
    def test_matches_exhaustive(self):
        total, qber = 10**8, 0.03
        rate, result = optimize_sampling(total, qber, GRIDS, PARAMS)
        brute = []
        for r in GRIDS.sampling_rates:
            m = max(1, round(r * total))
            res = key_length_nonblock(SampleCounts(total - m, m), qber, PARAMS)
            brute.append((r, res.secret_bits))
        best_bits = max(b for _, b in brute)
        assert result.secret_bits == best_bits
        # tie-break: the smallest rate achieving the maximum
        assert rate == min(r for r, b in brute if b == best_bits)

    def test_interior_optimum(self):
        rate, _ = optimize_sampling(10**8, 0.02, GRIDS, PARAMS)
        rates = GRIDS.sampling_rates
        assert rates[0] < rate < rates[-1]

    def test_saturated_noise_gives_zero(self):
        rate, result = optimize_sampling(10**6, 0.5, GRIDS, PARAMS)
        assert result.secret_bits == 0
        assert rate == GRIDS.sampling_rates[0]

    def test_too_few_bits(self):
        with pytest.raises(NoDataError):
            optimize_sampling(1.0, 0.0, GRIDS, PARAMS)


class TestOptimizeThreshold:
    def test_bimodal_trace_discards_noise(self):
        trace = plateau_trace([(0.99, 5e7, 100), (0.40, 5e7, 100)])
        theta, rate, result, (total, qber, kept) = optimize_threshold(
            trace.samples, GRIDS, PARAMS
        )
        assert theta is not None and theta > 0.40
        assert kept == 100
        assert total == pytest.approx(5e7)
        no_cut = optimize_threshold(trace.samples, GRIDS, PARAMS, thresholds=(0.25,))
        assert result.secret_bits > no_cut[2].secret_bits

    def test_clean_trace_keeps_smallest_theta(self):
        trace = plateau_trace([(0.99, 1e8, 100)])
        theta, _, _, _ = optimize_threshold(trace.samples, GRIDS, PARAMS)
        # every grid threshold keeps everything; tie goes to the smallest
        assert theta == GRIDS.thresholds[0]

    def test_empty_threshold_tuple_means_no_discard(self):
        trace = plateau_trace([(0.95, 1e8, 100)])
        theta, rate, result, _ = optimize_threshold(
            trace.samples, GRIDS, PARAMS, thresholds=()
        )
        assert theta is None
        assert result.secret_bits > 0

    def test_no_data_scores_zero(self):
        theta, rate, result, stats = optimize_threshold(columns_of([]), GRIDS, PARAMS)
        assert result.secret_bits == 0


class TestEvaluate:
    THREE_PLATEAU = plateau_trace(
        [(0.99, 3e8, 500), (0.94, 3e8, 500), (0.80, 3e8, 500)]
    )

    def test_nonblock_on_plateaus(self):
        out = evaluate_nonblock(self.THREE_PLATEAU, GRIDS, PARAMS)
        assert out.label == "non-blockwise"
        assert len(out.per_block) == 1
        assert out.secret_bits > 0

    def test_blockwise_beats_nonblock_on_plateaus(self):
        nb = evaluate_nonblock(self.THREE_PLATEAU, GRIDS, PARAMS)
        b3 = evaluate_block(self.THREE_PLATEAU, BlockingPolicy((0.90, 0.98)), GRIDS, PARAMS)
        assert b3.secret_bits > nb.secret_bits

    def test_empty_policy_reduces_to_nonblock(self):
        nb = evaluate_nonblock(self.THREE_PLATEAU, GRIDS, PARAMS)
        b1 = evaluate_block(self.THREE_PLATEAU, BlockingPolicy(), GRIDS, PARAMS)
        assert b1.secret_bits == nb.secret_bits
        assert b1.per_block[0].threshold == nb.per_block[0].threshold
        assert b1.per_block[0].sampling_rate == nb.per_block[0].sampling_rate
        # unlinked seconds carry bits that neither counts: the whole outcome agrees
        gaps = make_trace([(0.99, 6e5), (None, 5e5), (0.94, 6e5), (None, 7e5), (0.8, 6e5)] * 300)
        nb = evaluate_nonblock(gaps, GRIDS, PARAMS)
        assert nb.secret_bits > 0
        assert evaluate_block(gaps, BlockingPolicy(), GRIDS, PARAMS) == nb
        # a linked fidelity outside [0.25, 1] is an error on both, not a key
        fid = [0.95, 1.5, 0.9, 0.97]
        bad = FidelityTrace("a-b", SampleColumns(range(4), [0] * 4, [0] * 4, fid, [1e9] * 4), 4.0)
        with pytest.raises(ValueError, match="fidelity"):
            evaluate_nonblock(bad, GRIDS, PARAMS)
        with pytest.raises(ValueError, match="fidelity"):
            evaluate_block(bad, BlockingPolicy(), GRIDS, PARAMS)

    def test_block_outcome_bookkeeping(self):
        out = evaluate_block(
            self.THREE_PLATEAU, BlockingPolicy((0.90, 0.98)), GRIDS, PARAMS
        )
        assert [b.fidelity_hi for b in out.per_block] == [1.0, 0.98, 0.90]
        assert out.secret_bits == sum(b.secret_bits for b in out.per_block)
        for b in out.per_block:
            assert b.secret_bits <= b.block_bits

    def test_bucket_above_grid_uses_no_discard(self):
        # All data at fidelity 0.99 in the top bucket of a (0.98,) policy:
        # no grid threshold lies in [0.98, 1.0], so the block is distilled
        # without a discard step.
        trace = plateau_trace([(0.99, 1e8, 100)])
        out = evaluate_block(trace, BlockingPolicy((0.98,)), GRIDS, PARAMS)
        top = out.per_block[0]
        assert top.threshold is None
        assert top.secret_bits > 0

    def test_best_blocking_prefers_fewer_blocks_on_tie(self):
        trace = plateau_trace([(0.99, 1e8, 100)])
        # both policies put everything in one bucket with no local thresholds
        out = best_blocking(
            trace, [BlockingPolicy((0.98,)), BlockingPolicy((0.90, 0.98))], GRIDS, PARAMS
        )
        assert out.label == "2-block"

    def test_best_blocking_requires_policies(self):
        with pytest.raises(ValueError):
            best_blocking(self.THREE_PLATEAU, [], GRIDS, PARAMS)

    def test_deterministic(self):
        a = evaluate_block(self.THREE_PLATEAU, BlockingPolicy((0.90, 0.98)), GRIDS, PARAMS)
        b = evaluate_block(self.THREE_PLATEAU, BlockingPolicy((0.90, 0.98)), GRIDS, PARAMS)
        assert a == b


class TestImprovement:
    def test_frozen_example(self):
        assert improvement(1086, 1000) == pytest.approx(8.6, rel=1e-14)

    def test_zero_and_negative(self):
        assert improvement(500, 500) == 0.0
        assert improvement(400, 500) == pytest.approx(-20.0, rel=1e-14)

    def test_undefined_when_baseline_zero(self):
        assert improvement(5, 0) is None

    def test_domain(self):
        with pytest.raises(ValueError):
            improvement(-1, 10)


class TestAsymptoticConsistency:
    def test_improvement_grows_with_volume(self):
        def outcome(scale):
            trace = plateau_trace(
                [(0.99, scale, 500), (0.94, scale, 500), (0.80, scale, 500)]
            )
            nb = evaluate_nonblock(trace, GRIDS, PARAMS)
            blk = best_blocking(
                trace, [BlockingPolicy((0.98,)), BlockingPolicy((0.90, 0.98))], GRIDS, PARAMS
            )
            return improvement(blk.secret_bits, nb.secret_bits)

        small = outcome(3e8)
        large = outcome(3e9)
        assert small is not None and large is not None
        assert large > small > 0
