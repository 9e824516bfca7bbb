"""Reference grid search: one scalar key length per (threshold, rate) cell.

`strategy.optimize_threshold` screens every cell of a block in one numpy
array and confirms only the cells that can win with the scalar formula.
These are the loops it replaces, which evaluate every cell with the scalar
formula; the batched search must give the same outcomes bit for bit.
`reference_search()` swaps them into `strategy` and `harness`, so
`evaluate_nonblock`, `evaluate_block` and `harness.threshold_sweep` run on
them.  They look `apply_threshold` and `aggregate_qber` up in `strategy`,
so `list_strategy.reference_path()` composes with them.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from satqkd import harness, strategy
from satqkd.finite_key import KeyLengthResult, SampleCounts, key_length_nonblock
from satqkd.strategy import NoDataError


def optimize_sampling(total_bits, qber, grid, params):
    """Grid-search the sampling rate maximizing the key length.

    Ties break toward the smaller rate.
    """
    if total_bits < 2:
        raise NoDataError(f"need at least 2 bits to split, got {total_bits}")
    n_total = int(total_bits)
    best = None
    for rate in grid.sampling_rates:
        m = max(1, round(rate * n_total))
        n = n_total - m
        if n < 1:
            continue
        result = key_length_nonblock(SampleCounts(n, m), qber, params)
        if best is None or result.secret_bits > best[1].secret_bits:
            best = (rate, result)
    if best is None:
        raise NoDataError("no feasible sampling rate on the grid")
    return best


def optimize_threshold(samples, grids, params, thresholds=None):
    """Joint (threshold, sampling-rate) grid search maximizing key length.

    Ties break toward the smaller threshold; cells with no retainable data
    score zero.
    """
    candidates = list(grids.thresholds) if thresholds is None else list(thresholds)
    if not candidates:
        candidates = [None]

    zero = KeyLengthResult(secret_bits=0, raw_value=0.0, mu=0.0, ec_leakage=0.0)
    best_theta = None
    best_rate = None
    best_result = zero
    best_stats = (0.0, 0.0, 0)
    have_best = False
    for theta in candidates:
        kept = samples if theta is None else strategy.apply_threshold(samples, theta)
        try:
            total, qber = strategy.aggregate_qber(kept)
            rate, result = optimize_sampling(total, qber, grids, params)
            stats = (total, qber, len(kept))
        except NoDataError:
            rate, result, stats = None, zero, (0.0, 0.0, len(kept))
        if not have_best or result.secret_bits > best_result.secret_bits:
            best_theta, best_rate, best_result, best_stats = theta, rate, result, stats
            have_best = True
    return best_theta, best_rate, best_result, best_stats


def threshold_sweep(trace, config):
    """Key length at every threshold grid point (non-blockwise)."""
    out = []
    for theta in config.grids.thresholds:
        _, rate, result, _ = optimize_threshold(
            trace.samples, config.grids, config.security, thresholds=(theta,)
        )
        out.append((theta, rate, result.secret_bits))
    return out


@contextlib.contextmanager
def reference_search():
    """Run `strategy`'s block evaluation and `harness.threshold_sweep` on the loops above."""
    with mock.patch.object(strategy, "optimize_threshold", optimize_threshold), \
            mock.patch.object(harness, "threshold_sweep", threshold_sweep):
        yield
