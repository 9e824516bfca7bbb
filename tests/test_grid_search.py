"""The batched grid search against the scalar loops of `grid_search.py`.

`strategy.optimize_threshold` and `strategy.best_per_threshold` screen every
(threshold, rate) cell of a block in one numpy array and confirm only the
cells that can win with the scalar formula.  Their outcomes (threshold,
rate, `KeyLengthResult`, stats, and every `BlockOutcome` built from them)
must equal those of the loop that evaluates every cell with the scalar
formula, and they must raise where that loop raises.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grid_search import reference_search
from list_strategy import reference_path
from satqkd import cli, harness, strategy
from satqkd.channel import LinkSample
from satqkd.config import ExperimentConfig
from satqkd.finite_key import SampleCounts, SecurityParams, key_length_nonblock
from satqkd.strategy import (
    BlockingPolicy,
    FidelityTrace,
    SearchGrids,
    evaluate_block,
    evaluate_nonblock,
)

PARAMS = SecurityParams()
POLICIES = [BlockingPolicy(b) for b in [(), (0.98,), (0.90, 0.98), (0.72,)]]


def make_samples(points):
    """LinkSamples from (fidelity, sifted_bits) points; fidelity None = no link."""
    return [
        LinkSample(time=float(i), fidelity=f, sifted_bits=b, sat=None if f is None else (0, i))
        for i, (f, b) in enumerate(points)
    ]


def attempt(search):
    """A search's outcome, or the type and message of what it raised."""
    try:
        return search()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def searches(samples, grids):
    """Every search the strategy layer offers, on one trace."""
    trace = FidelityTrace("a-b", samples, float(len(samples)))
    config = SimpleNamespace(grids=grids, security=PARAMS)
    return [
        attempt(lambda: evaluate_nonblock(trace, grids, PARAMS)),
        *(attempt(lambda p=p: evaluate_block(trace, p, grids, PARAMS)) for p in POLICIES),
        attempt(lambda: harness.threshold_sweep(trace, config)),
        attempt(lambda: strategy.optimize_threshold(trace.samples, grids, PARAMS)),
        attempt(lambda: strategy.optimize_threshold(trace.samples, grids, PARAMS, thresholds=())),
    ]


def assert_matches_loop(samples, grids):
    batched = searches(samples, grids)
    with reference_search():
        loop = searches(samples, grids)
    assert batched == loop


SPECIAL_FIDELITIES = [
    0.25, 0.7, 0.72, 0.9, 0.98, 1.0, math.nextafter(0.98, 0.0), math.nextafter(1.0, 0.0),
]
FIDELITY = st.one_of(st.sampled_from(SPECIAL_FIDELITIES), st.floats(0.25, 1.0))
# tiny totals, all-zero keys, ordinary blocks, and totals past 2**53
BITS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 1e3, 1e5, 3e7, 1e9, 4e15]),
    st.floats(0.0, 1e10),
)
ROW = st.one_of(st.tuples(FIDELITY, BITS), st.tuples(st.none(), BITS))
# rates near 1 leave n < 1 on small blocks; a repeated rate forces a tie
RATES = st.lists(
    st.one_of(st.sampled_from([1e-5, 1e-3, 0.01, 0.05, 0.3, 0.6, 0.9, 0.999]),
              st.floats(1e-6, 0.999)),
    min_size=1, max_size=8,
)
THRESHOLDS = st.lists(st.one_of(st.sampled_from(SPECIAL_FIDELITIES), FIDELITY), min_size=1,
                      max_size=6)
GRIDS = st.builds(
    lambda rates, thresholds: SearchGrids(tuple(rates), tuple(thresholds)), RATES, THRESHOLDS
)
SMALL_GRIDS = SearchGrids(tuple(np.geomspace(1e-5, 0.05, 10)), (0.7, 0.8, 0.9, 0.98))


class TestAgainstScalarLoop:
    @given(st.lists(ROW, min_size=1, max_size=30), GRIDS)
    @example([(None, 5e8)], SMALL_GRIDS)  # unlinked rows carry bits, no link
    @example([(0.95, 1.0)], SMALL_GRIDS)  # total below 2
    @example([(0.95, 2.0), (0.99, 1.0)], SearchGrids((0.9, 0.999, 0.3), (0.7,)))  # n < 1
    @example([(0.9, 1e3)] * 3, SMALL_GRIDS)  # every key is 0
    @example([(0.99, 1e9)] * 4, SearchGrids((0.01, 0.01, 0.02), (0.7, 0.8, 0.9)))  # ties
    @example([(0.8, 1e9), (0.85, 1e9)], SearchGrids((0.01,), (0.9, 0.95, 1.0)))  # above all
    @example([(0.99, 4e15), (0.9, 4e15)], SMALL_GRIDS)  # total past 2**53
    @settings(max_examples=200, deadline=None)
    def test_random_blocks(self, points, grids):
        assert_matches_loop(make_samples(points), grids)

    @given(
        st.lists(ROW, min_size=1, max_size=12),
        st.lists(st.tuples(st.sampled_from([0.1, 0.2499, 1.0001, 1.5]), BITS), min_size=1,
                 max_size=3),
        GRIDS,
    )
    @example([(0.9, 1e9)], [(1.5, 1e9)], SMALL_GRIDS)
    @example([(0.9, 1e9)], [(1.5, 0.0)], SMALL_GRIDS)
    @example([(0.9, 1e9)], [(0.1, 1e9)], SMALL_GRIDS)
    @settings(max_examples=100, deadline=None)
    def test_fidelities_outside_the_domain(self, points, bad, grids):
        """A `LinkSample` trace may hold fidelities the QBER map rejects."""
        assert_matches_loop(make_samples(points + bad), grids)

    @pytest.mark.parametrize("thresholds", [(0.1,), (0.8, 1.2), (0.9, math.nan)])
    def test_thresholds_outside_the_domain(self, thresholds):
        samples = make_samples([(0.9, 1e9), (0.95, 1e9)])
        grids = SearchGrids((0.01, 0.02), (0.8,))
        batched = attempt(lambda: strategy.optimize_threshold(samples, grids, PARAMS, thresholds))
        with reference_search():
            loop = attempt(lambda: strategy.optimize_threshold(samples, grids, PARAMS, thresholds))
        assert batched == loop
        assert batched[0] is ValueError


@pytest.fixture(scope="module")
def default_traces():
    config = ExperimentConfig()
    return config, [
        harness.run_trace(config, pair, altitude)
        for pair in config.pairs
        for altitude in config.altitudes
    ]


def test_default_cells_match_loop(default_traces):
    """The 12 default one-day cells against the scalar loop."""
    config, traces = default_traces
    for trace in traces:
        batched = searches(trace.samples, config.grids)
        with reference_search():
            loop = searches(trace.samples, config.grids)
        assert batched == loop, trace.pair


def test_two_hours_match_list_and_loop():
    """A real two-hour trace against the list-based search on the scalar loop."""
    config = ExperimentConfig(horizon=7200.0)
    trace = harness.run_trace(config, ("Toronto", "DC"), 500e3)
    batched = searches(trace.samples, config.grids)
    with reference_path(), reference_search():
        loop = searches(list(trace.samples), config.grids)
    assert batched == loop


def test_few_scalar_evaluations(default_traces, monkeypatch):
    """The screen leaves a handful of cells per block to the scalar formula."""
    config, traces = default_traces
    calls = []
    scalar = strategy.key_length_nonblock
    monkeypatch.setattr(strategy, "key_length_nonblock", lambda *a: calls.append(a) or scalar(*a))
    trace = traces[0]
    evaluate_nonblock(trace, config.grids, config.security)
    for policy in config.policies:
        evaluate_block(trace, policy, config.grids, config.security)
    blocks = 1 + sum(p.n_blocks for p in config.policies)
    assert len(calls) <= 5 * blocks  # against 550 cells per block


def test_block_diagnostics_come_from_the_scalar_result(default_traces, tmp_path, capsys):
    """`BlockOutcome.mu` and `ec_leakage` are the winning cell's, and
    `keyrate` prints them at the end of each block line."""
    config, traces = default_traces
    path = tmp_path / "trace.csv"
    harness.emit_trace_csv(traces[0], path)
    trace, _ = harness.read_trace_csv(path)
    outcome = evaluate_block(trace, BlockingPolicy((0.90, 0.98)), config.grids, config.security)
    for b in outcome.per_block:
        counts = SampleCounts(b.block_bits - b.test_bits, b.test_bits)
        result = key_length_nonblock(counts, b.qber, config.security)
        assert (b.secret_bits, b.mu, b.ec_leakage) == (
            result.secret_bits, result.mu, result.ec_leakage
        )
        assert b.mu > 0 and b.ec_leakage > 0
    assert cli.main(["keyrate", "--trace", str(path), "--boundaries", "0.90,0.98"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert len(lines) == len(outcome.per_block)
    for line, b in zip(lines, outcome.per_block):
        assert line.endswith(f" secret_bits={b.secret_bits} mu={b.mu:.6g} leak={b.ec_leakage:.6g}")


# -- the screen's bounds --------------------------------------------------------


def scalar_keys(total, qber, rates):
    """`optimize_sampling`'s key length at each rate; None where n < 1."""
    n_total = int(total)
    keys = []
    for rate in rates:
        m = max(1, round(rate * n_total))
        n = n_total - m
        keys.append(
            None if n < 1 else key_length_nonblock(SampleCounts(n, m), qber, PARAMS).secret_bits
        )
    return keys


@given(
    total=st.one_of(st.floats(2.0, 1e4), st.floats(2.0, 1e13)),
    qber=st.one_of(st.sampled_from([0.0, 0.5, 0.11]), st.floats(0.0, 0.5)),
)
@example(total=2.0, qber=0.0)
@example(total=1e6, qber=0.0)
@example(total=2.5e8, qber=0.02)
@settings(max_examples=300, deadline=None)
def test_screen_keeps_every_cell_within_one_bit(total, qber):
    """Every cell's scalar key lies in the screen's [lo, hi]; below about
    5e8 bits the two bounds are at most one bit apart, so the screen places
    each cell within one bit, and every cell that ties the best is confirmed."""
    rates = SearchGrids().sampling_rates
    lo, hi = strategy._screen(np.array([total]), np.array([qber]), rates, PARAMS)
    keys = scalar_keys(total, qber, rates)
    for key, cell_lo, cell_hi in zip(keys, lo[0], hi[0]):
        if key is None:
            assert cell_lo == cell_hi == -1
            continue
        assert cell_lo <= key <= cell_hi
        if total < 4e8:
            assert cell_hi - cell_lo <= 1
    feasible = [key for key in keys if key is not None]
    if feasible:
        best = max(feasible)
        floor = max(lo[0].max(), 1.0)
        assert all(cell_hi >= floor for key, cell_hi in zip(keys, hi[0]) if key == best > 0)


@pytest.mark.parametrize("total", [1e6, 1e8, 3e9])
def test_screen_brackets_keys_on_a_knife_edge(total):
    """QBERs bisected until the scalar raw length sits on either side of an
    integer, where its floor turns on the last bits that numpy and `math`
    may round differently: the margin keeps both cells inside the bounds."""
    rate = 0.01
    n_total = int(total)
    m = max(1, round(rate * n_total))
    counts = SampleCounts(n_total - m, m)

    def raw(qber):
        return key_length_nonblock(counts, qber, PARAMS).raw_value

    edge = math.floor(raw(0.03))
    above, below = 0.0, 0.5  # raw falls as the QBER rises
    while math.nextafter(above, 1.0) < below:
        mid = (above + below) / 2
        above, below = (mid, below) if raw(mid) >= edge else (above, mid)
    assert 0 <= raw(above) - edge < 1e-3 and raw(below) < edge
    for qber in (above, below):
        key = key_length_nonblock(counts, qber, PARAMS).secret_bits
        lo, hi = strategy._screen(np.array([total]), np.array([qber]), (rate,), PARAMS)
        assert lo[0, 0] <= key <= hi[0, 0]
