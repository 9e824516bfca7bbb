"""Independent finite-key oracle for checking `compare` and `optimize` output.

Restates the finite-key length and the grid-search policy from the
model's definition, without importing satqkd:

    mu  = sqrt((n + m)(m + 1) / (n m^2) * ln(2 / eps_sec))
    l   = n (1 - h(Q + mu)) - n h(Q + mu) - log2(2 / (eps_sec^2 eps_cor))

clamped to [0, n] and floored, with Q the bit-weighted Werner QBER
2 (1 - F) / 3 over the seconds kept.  A threshold keeps seconds with
F >= theta; ties in the search go to the smaller threshold and rate;
blocks are fidelity buckets [b_j, b_j+1), highest first, the top bucket
closed at 1.
"""

from __future__ import annotations

import math

import numpy as np

FLOOR = 0.25


def _entropy(x: float) -> float:
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


class KeyOracle:
    def __init__(self, sampling_rates, thresholds, policies, eps_sec, eps_cor):
        self.rates = tuple(sampling_rates)
        self.thresholds = tuple(thresholds)
        self.policies = [tuple(p) for p in policies]
        self.eps_sec = eps_sec
        self.security = 1.0 - 2.0 * math.log2(eps_sec) - math.log2(eps_cor)

    def key(self, n: int, m: int, qber: float) -> int:
        mu = math.sqrt((n + m) * (m + 1) / (n * m * m) * math.log(2.0 / self.eps_sec))
        h = _entropy(min(qber + mu, 0.5))
        raw = n * (1.0 - h) - n * h - self.security
        return min(n, max(0, math.floor(raw)))

    def best_over_rates(self, fid: np.ndarray, bits: np.ndarray) -> int:
        """Best key over the sampling-rate grid for one set of seconds."""
        total = float(bits.sum())
        if len(fid) == 0 or total < 2:
            return 0
        qber = float((bits * (2.0 * (1.0 - fid) / 3.0)).sum() / total)
        n_total = int(total)
        best = None
        for rate in self.rates:
            m = max(1, round(rate * n_total))
            if n_total - m < 1:
                continue
            bits_out = self.key(n_total - m, m, qber)
            if best is None or bits_out > best:
                best = bits_out
        return 0 if best is None else best

    def best_over_thresholds(self, fid, bits, thresholds) -> int:
        if not thresholds:
            return self.best_over_rates(fid, bits)
        return max(
            self.best_over_rates(fid[fid >= theta], bits[fid >= theta]) for theta in thresholds
        )

    def nonblock(self, fid, bits) -> int:
        return self.best_over_thresholds(fid, bits, self.thresholds)

    def block(self, fid, bits, boundaries) -> int:
        edges = [FLOOR, *boundaries, 1.0]
        total = 0
        for lo, hi in zip(edges, edges[1:]):
            inside = ((fid >= lo) & (fid < hi)) | ((fid == hi) & (hi == 1.0))
            local = tuple(t for t in self.thresholds if lo <= t < hi)
            total += self.best_over_thresholds(fid[inside], bits[inside], local)
        return total

    def threshold_sweep(self, fid, bits) -> list[tuple[float, int]]:
        return [(theta, self.best_over_thresholds(fid, bits, (theta,))) for theta in self.thresholds]
