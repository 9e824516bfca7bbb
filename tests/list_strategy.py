"""Reference strategy layer over lists of `LinkSample`.

`strategy` thresholds, partitions and aggregates by boolean masks over a
trace's numpy columns.  These are the list-based versions they replace,
one Python object per second; the columnar path must give the same
outcomes bit for bit.  `reference_path()` swaps them into `strategy`, so
the unchanged grid search (`optimize_threshold`, `evaluate_nonblock`,
`evaluate_block`, `harness.threshold_sweep`) runs on them.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np

from satqkd import strategy
from satqkd.channel import FIDELITY_FLOOR, fidelity_to_qber
from satqkd.strategy import NoDataError


def _linked_arrays(samples) -> tuple[np.ndarray, np.ndarray]:
    """(fidelity, sifted_bits) arrays over samples that carried a link."""
    fid = np.array(
        [s.fidelity for s in samples if s.fidelity is not None], dtype=float
    )
    bits = np.array(
        [s.sifted_bits for s in samples if s.fidelity is not None], dtype=float
    )
    return fid, bits


def aggregate_qber(samples) -> tuple[float, float]:
    """Total sifted bits and rate-weighted mean QBER over the samples."""
    fid, bits = _linked_arrays(samples)
    total = float(bits.sum())
    if len(fid) == 0 or total <= 0.0:
        raise NoDataError("no sifted bits in sample set")
    qber = float((bits * fidelity_to_qber(fid)).sum() / total)
    return total, qber


def apply_threshold(samples, theta: float):
    """Keep only the samples whose fidelity is >= theta."""
    if not FIDELITY_FLOOR <= theta <= 1.0:
        raise ValueError(f"threshold must be in [0.25, 1], got {theta}")
    return [s for s in samples if s.fidelity is not None and s.fidelity >= theta]


def partition(trace, policy):
    """Split linked samples into fidelity buckets, highest bucket first.

    Bucket j covers [b_j, b_{j+1}); the top bucket is closed at 1.
    """
    edges = [FIDELITY_FLOOR, *policy.boundaries, 1.0]
    ranges = [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]
    buckets = [[] for _ in ranges]
    for s in trace.samples:
        if s.fidelity is None:
            continue
        for i, (lo, hi) in enumerate(ranges):
            if lo <= s.fidelity < hi or (s.fidelity == hi == 1.0):
                buckets[i].append(s)
                break
    return buckets[::-1]


@contextlib.contextmanager
def reference_path():
    """Run `strategy`'s search on the list-based functions above."""
    with mock.patch.multiple(
        strategy,
        aggregate_qber=aggregate_qber,
        apply_threshold=apply_threshold,
        partition=partition,
    ):
        yield
