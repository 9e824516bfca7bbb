"""Post-processing policies over fidelity traces.

A trace holds its per-second samples as five numpy columns in time order
(`SampleColumns`): `time`, `ring` and `slot` of the serving satellite
(-1 = no link), `fidelity` (NaN = no link) and `bits` (sifted bits).  A
second is linked when its fidelity is not NaN; an unlinked second may still
carry bits, which no policy counts.  Thresholding and partitioning are
boolean masks over those columns, so every subset keeps time order and the
sums over it see the same values in the same order as a loop over the
seconds would.

`FidelityTrace.samples` is that column set, the one form in which the
trace and every function here take samples.  For `perfbench`, which
indexes and iterates them, it keeps a read-only `LinkSample` view: an int
index builds one sample (Python floats, `None` fidelity and satellite when
unlinked), iteration yields them in order and a slice is a column set.

A policy then decides which samples to discard (fidelity threshold), how
to partition the rest into blocks, and how many bits to sacrifice to error
sampling.  Thresholds and sampling rates are chosen by exhaustive grid
search; everything here is deterministic, with ties broken toward the
smaller threshold, the smaller sampling rate, and the fewer blocks.

The grid search over a block (`optimize_threshold`, `best_per_threshold`)
is exact but evaluates few cells with the scalar formula:

- sums: the block's linked bits and bits * QBER are formed once, and each
  threshold's totals are `np.sum` over the same time-ordered compacted
  arrays that `aggregate_qber` sums (`_time_sum`), so every total and QBER
  is the one the per-threshold path gives.
- screen: every (threshold, rate) cell's key length is evaluated in one
  numpy array with `optimize_sampling`'s exact counts and bounded from
  below and above by `floor(raw -/+ margin)`, clamped to [0, n].  The
  margin, 1e-9 * (|raw| + n) + 1e-6 bits, covers numpy's rounding, which
  may differ from `math` in the last bits; it scales with n because
  raw = n (1 - 2 h) - c can cancel.
- confirm: only the cells whose upper bound reaches the best lower bound
  (at least 1) go to `optimize_sampling`, i.e. to the scalar
  `key_length_nonblock`, in (threshold, rate) order.  A cell left out
  scores below some other cell, so it can neither win nor tie.  When
  every cell may score 0, the first threshold's first feasible rate, the
  winner of that case, is confirmed too.
- winner: its stats come from `apply_threshold` and `aggregate_qber`.

Every returned `KeyLengthResult` comes from the scalar formula, so the
outcome is the one a scalar loop over every cell gives.  A threshold the
screen does not cover (out of [0.25, 1], a total below 2 or of 2**53 and
more, a QBER outside [0, 0.5], a fidelity outside [0.25, 1]) is searched
by that loop, which raises where it always did.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .channel import FIDELITY_FLOOR, LinkSample, fidelity_to_qber
from .finite_key import (
    KeyLengthResult,
    SampleCounts,
    SecurityParams,
    key_length_nonblock,
    security_term,
)


class NoDataError(ValueError):
    """Raised when an operation needs sample data and none is available."""


def _sample(time, ring, slot, fidelity, bits) -> LinkSample:
    return LinkSample(
        time=time,
        fidelity=None if fidelity != fidelity else fidelity,  # NaN = no link
        sifted_bits=bits,
        sat=None if ring < 0 else (ring, slot),
    )


class SampleColumns:
    """Per-second samples as five read-only numpy columns in time order."""

    __slots__ = ("time", "ring", "slot", "fidelity", "bits")

    def __init__(self, time, ring, slot, fidelity, bits):
        columns = (
            np.asarray(time, dtype=float),
            np.asarray(ring, dtype=np.int64),
            np.asarray(slot, dtype=np.int64),
            np.asarray(fidelity, dtype=float),
            np.asarray(bits, dtype=float),
        )
        if any(c.shape != columns[0].shape or c.ndim != 1 for c in columns):
            raise ValueError("sample columns must be 1-D and of one length")
        for name, column in zip(self.__slots__, columns):
            column = column.view()  # lock this view, not the caller's array
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def columns(self) -> tuple[np.ndarray, ...]:
        return self.time, self.ring, self.slot, self.fidelity, self.bits

    def select(self, mask: np.ndarray) -> SampleColumns:
        """The rows where `mask` holds, in time order."""
        return SampleColumns(*(c[mask] for c in self.columns()))

    def __setattr__(self, name, value):
        raise AttributeError("SampleColumns is read-only")

    def __len__(self) -> int:
        return len(self.time)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SampleColumns(*(c[index] for c in self.columns()))
        return _sample(*(c[index].item() for c in self.columns()))

    def __iter__(self):
        return map(_sample, *(c.tolist() for c in self.columns()))

    def __eq__(self, other):
        if not isinstance(other, SampleColumns):
            return NotImplemented
        return len(self) == len(other) and all(
            np.array_equal(a, b, equal_nan=True) for a, b in zip(self.columns(), other.columns())
        )

    def __repr__(self) -> str:
        return f"SampleColumns(<{len(self)} samples>)"


@dataclass(frozen=True)
class FidelityTrace:
    """Per-second link samples for one ground-station pair."""

    pair: str
    samples: SampleColumns
    horizon: float

    def __post_init__(self):
        if not isinstance(self.samples, SampleColumns):
            raise TypeError(f"samples must be SampleColumns, not {type(self.samples).__name__}")
        if np.any(self.samples.time[1:] <= self.samples.time[:-1]):
            raise ValueError("trace samples must be strictly increasing in time")


@dataclass(frozen=True)
class BlockingPolicy:
    """Fidelity cut-points defining blocks; empty = non-blockwise."""

    boundaries: tuple[float, ...] = ()

    def __post_init__(self):
        if any(b >= c for b, c in zip(self.boundaries, self.boundaries[1:])):
            raise ValueError("boundaries must be strictly ascending")
        if any(not FIDELITY_FLOOR < b < 1.0 for b in self.boundaries):
            raise ValueError("boundaries must lie in (0.25, 1)")

    @property
    def n_blocks(self) -> int:
        return len(self.boundaries) + 1

    @property
    def label(self) -> str:
        if not self.boundaries:
            return "non-blockwise"
        return f"{self.n_blocks}-block"


RATE_RANGE = (1e-5, 0.05, 50)  # default sampling rates: min, max, points
THRESHOLD_RANGE = (0.70, 0.90, 0.02)  # default thresholds: min, max, step


def rate_grid(lo: float, hi: float, points: int) -> tuple[float, ...]:
    """`points` sampling rates spaced geometrically from lo to hi."""
    if not 0 < lo <= hi:
        raise ValueError("need 0 < sampling_rate_min <= sampling_rate_max")
    return tuple(np.geomspace(lo, hi, points))


def threshold_grid(lo: float, hi: float, step: float) -> tuple[float, ...]:
    """Thresholds from lo to hi in steps of `step`, each rounded to 10 places."""
    if not (step > 0 and lo <= hi):
        raise ValueError("need threshold_step > 0 and threshold_min <= threshold_max")
    n = int(round((hi - lo) / step)) + 1
    return tuple(round(lo + i * step, 10) for i in range(n))


@dataclass(frozen=True)
class SearchGrids:
    """Grid-search candidates for sampling rate and fidelity threshold."""

    sampling_rates: tuple[float, ...] = field(default_factory=lambda: rate_grid(*RATE_RANGE))
    thresholds: tuple[float, ...] = field(default_factory=lambda: threshold_grid(*THRESHOLD_RANGE))

    def __post_init__(self):
        if not self.sampling_rates or not self.thresholds:
            raise ValueError("grids must be nonempty")
        if any(not 0.0 < r < 1.0 for r in self.sampling_rates):
            raise ValueError("grids: sampling_rates must lie in (0, 1)")
        if any(not FIDELITY_FLOOR <= t <= 1.0 for t in self.thresholds):
            raise ValueError("grids: thresholds must lie in [0.25, 1]")


@dataclass(frozen=True)
class BlockOutcome:
    """Diagnostics for one distilled block."""

    fidelity_lo: float
    fidelity_hi: float
    block_bits: int  # bits retained after thresholding (N fed to the formula)
    test_bits: int
    qber: float
    threshold: float | None  # None when the block used no discard step
    sampling_rate: float | None
    secret_bits: int
    mu: float = 0.0  # sampling deviation of the winning cell
    ec_leakage: float = 0.0  # bits leaked by error correction in the winning cell


@dataclass(frozen=True)
class StrategyOutcome:
    """A distillation result: total key plus per-block bookkeeping."""

    secret_bits: int
    per_block: list[BlockOutcome]
    label: str


def _time_sum(values: np.ndarray) -> float:
    """`np.sum` of a column compacted in time order: every total and QBER of
    the search is taken by this one reduction, so all paths agree bit for bit."""
    return float(values.sum())


def aggregate_qber(samples: SampleColumns) -> tuple[float, float]:
    """Total sifted bits and rate-weighted mean QBER over the linked samples."""
    linked = ~np.isnan(samples.fidelity)
    fid, bits = samples.fidelity[linked], samples.bits[linked]
    total = _time_sum(bits)
    if len(fid) == 0 or total <= 0.0:
        raise NoDataError("no sifted bits in sample set")
    return total, _time_sum(bits * fidelity_to_qber(fid)) / total


def apply_threshold(samples: SampleColumns, theta: float) -> SampleColumns:
    """Keep only the samples whose fidelity is >= theta."""
    if not FIDELITY_FLOOR <= theta <= 1.0:
        raise ValueError(f"threshold must be in [0.25, 1], got {theta}")
    return samples.select(samples.fidelity >= theta)  # NaN (no link) compares False


def partition(trace: FidelityTrace, policy: BlockingPolicy) -> list[SampleColumns]:
    """Split linked samples into fidelity buckets, highest bucket first.

    Bucket j covers [b_j, b_{j+1}); the top bucket is closed at 1.
    """
    fid = trace.samples.fidelity
    buckets = []
    for lo, hi in bucket_ranges(policy):
        mask = (lo <= fid) & (fid < hi)
        if hi == 1.0:
            mask |= fid == 1.0
        buckets.append(trace.samples.select(mask))
    return buckets


def bucket_ranges(policy: BlockingPolicy) -> list[tuple[float, float]]:
    """Fidelity ranges of the policy's buckets, highest first."""
    edges = [FIDELITY_FLOOR, *policy.boundaries, 1.0]
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)][::-1]


def optimize_sampling(
    total_bits: float,
    qber: float,
    grid: SearchGrids,
    params: SecurityParams,
    rates: Sequence[float] | None = None,
) -> tuple[float, KeyLengthResult]:
    """Grid-search the sampling rate maximizing the key length.

    `rates` restricts the search to some of the grid's rates, in grid
    order.  Ties break toward the smaller rate.
    """
    if total_bits < 2:
        raise NoDataError(f"need at least 2 bits to split, got {total_bits}")
    n_total = int(total_bits)
    best = None
    for rate in grid.sampling_rates if rates is None else rates:
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


_ZERO = KeyLengthResult(secret_bits=0, raw_value=0.0, mu=0.0, ec_leakage=0.0)
_SCREEN_MARGIN = (1e-9, 1e-6)  # screen bounds widen by rel * (|raw| + n) + abs bits
_EXACT = 2.0**53  # totals below this give exact integer counts in float64


def optimize_threshold(
    samples,
    grids: SearchGrids,
    params: SecurityParams,
    thresholds: tuple[float, ...] | None = None,
) -> tuple[float | None, float | None, KeyLengthResult, tuple[float, float, int]]:
    """Joint (threshold, sampling-rate) grid search maximizing key length.

    `thresholds` overrides the grid's threshold candidates; an empty tuple
    means a single no-discard evaluation.  Ties break toward the smaller
    threshold.  Returns (theta, rate, result, (total_bits, qber, n_samples))
    for the winning cell; cells with no retainable data score zero.  The
    search is the screen and confirmation of the module docstring.
    """
    candidates = list(grids.thresholds) if thresholds is None else list(thresholds)
    if not candidates:
        candidates = [None]
    best = None
    for theta, (rate, result, kept) in _best_cells(samples, candidates, grids, params, each=False):
        if best is None or result.secret_bits > best[2].secret_bits:
            best = (theta, rate, result, kept)
    theta, rate, result, kept = best
    if rate is None:
        return theta, None, result, (0.0, 0.0, kept)
    kept = samples if theta is None else apply_threshold(samples, theta)
    total, qber = aggregate_qber(kept)
    return theta, rate, result, (total, qber, len(kept))


def best_per_threshold(
    samples, grids: SearchGrids, params: SecurityParams
) -> list[tuple[float, float | None, KeyLengthResult]]:
    """(theta, rate, result) of the best sampling rate at each grid threshold
    on its own, as `optimize_threshold` with that threshold alone would
    find it; the rate is None when the threshold keeps no usable data."""
    cells = _best_cells(samples, list(grids.thresholds), grids, params, each=True)
    return [(theta, rate, result) for theta, (rate, result, _) in cells]


def _best_cells(samples, candidates, grids, params, each: bool):
    """Per candidate threshold in order, the (theta, (rate, result, kept))
    of its best cell that can win: `kept` counts the samples it keeps and
    rate is None when it has no data.  A candidate none of whose cells can
    win is left out.  With `each`, every candidate is searched on its own;
    otherwise only cells that can win the whole search are confirmed.
    """
    sums = _threshold_sums(samples, candidates)  # the block's arrays end here
    rows = [
        i for i, (theta, (_, total, weighted)) in enumerate(zip(candidates, sums))
        if (theta is None or FIDELITY_FLOOR <= theta <= 1.0)
        and 2.0 <= total < _EXACT and 0.0 <= weighted / total <= 0.5
    ]
    totals = np.array([sums[i][1] for i in rows])
    qbers = np.array([sums[i][2] / sums[i][1] for i in rows])
    lo, hi = _screen(totals, qbers, grids.sampling_rates, params)
    top = lo.max(axis=1) if each else np.full(len(rows), lo.max(initial=-1.0))
    screened = dict(zip(rows, zip(totals.tolist(), qbers.tolist(), lo, hi, top)))

    for i, theta in enumerate(candidates):
        kept = sums[i][0]
        if i not in screened:
            yield theta, _scalar_cell(samples, theta, grids, params)
            continue
        total, qber, cell_lo, cell_hi, row_top = screened[i]
        feasible = np.flatnonzero(cell_lo >= 0)
        if not len(feasible):
            yield theta, (None, _ZERO, kept)
            continue
        pick = cell_hi >= max(row_top, 1.0)
        if row_top < 1.0 and (each or i == 0):  # every cell may score 0
            pick[feasible[0]] = True  # and the first feasible rate then wins
        if pick.any():
            rates = [grids.sampling_rates[j] for j in np.flatnonzero(pick)]
            yield theta, (*optimize_sampling(total, qber, grids, params, rates), kept)


def _threshold_sums(samples, candidates) -> list[tuple[int, float, float]]:
    """(samples kept, total bits, bits-weighted QBER sum) at each candidate
    threshold, from the sums `aggregate_qber` takes; the weighted sum is NaN
    where a kept fidelity lies outside [0.25, 1]."""
    linked = ~np.isnan(samples.fidelity)
    fid, bits = samples.fidelity[linked], samples.bits[linked]
    valid = (FIDELITY_FLOOR <= fid) & (fid <= 1.0)
    weighted = fidelity_to_qber(fid if valid.all() else np.where(valid, fid, math.nan))
    weighted *= bits
    sums = []
    for theta in candidates:
        if theta is None:
            sums.append((len(samples), _time_sum(bits), _time_sum(weighted)))
        else:
            keep = fid >= theta
            kept = int(np.count_nonzero(keep))
            sums.append((kept, _time_sum(bits[keep]), _time_sum(weighted[keep])))
    return sums


def _screen(totals, qbers, rates, params) -> tuple[np.ndarray, np.ndarray]:
    """Bounds lo <= key <= hi on the scalar key length of every (threshold,
    rate) cell, one row per (total, qber); both are -1 where n < 1.

    The counts are `optimize_sampling`'s, exact below 2**53; the formula is
    `key_length_nonblock`'s in numpy, whose rounding the margin covers.
    """
    n_total = np.trunc(totals)[:, None]
    m = np.maximum(1.0, np.rint(np.asarray(rates) * n_total))
    n = n_total - m
    feasible = n >= 1.0
    n = np.where(feasible, n, 1.0)
    mu = np.sqrt((n + m) * (m + 1.0) / (n * m * m) * math.log(2.0 / params.eps_sec))
    q = np.minimum(qbers[:, None] + mu, 0.5)
    h = -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q)
    raw = n * (1.0 - h) - n * h - security_term(params)
    rel, absolute = _SCREEN_MARGIN
    margin = rel * (np.abs(raw) + n) + absolute
    return tuple(
        np.where(feasible, np.clip(np.floor(raw + d), 0.0, n), -1.0) for d in (-margin, margin)
    )


def _scalar_cell(samples, theta, grids, params):
    """One candidate threshold searched by the scalar loop alone, for totals
    the screen does not cover: (rate, result, kept)."""
    kept = samples if theta is None else apply_threshold(samples, theta)
    try:
        total, qber = aggregate_qber(kept)
        return (*optimize_sampling(total, qber, grids, params), len(kept))
    except NoDataError:
        return None, _ZERO, len(kept)


def _bucket_outcome(
    bucket_samples,
    fid_range: tuple[float, float],
    grids: SearchGrids,
    params: SecurityParams,
    thresholds: tuple[float, ...] | None,
) -> BlockOutcome:
    theta, rate, result, (total, qber, _) = optimize_threshold(
        bucket_samples, grids, params, thresholds=thresholds
    )
    test_bits = max(1, round(rate * int(total))) if rate is not None else 0
    return BlockOutcome(
        fidelity_lo=fid_range[0],
        fidelity_hi=fid_range[1],
        block_bits=int(total),
        test_bits=test_bits,
        qber=qber,
        threshold=theta,
        sampling_rate=rate,
        secret_bits=result.secret_bits,
        mu=result.mu,
        ec_leakage=result.ec_leakage,
    )


def evaluate_nonblock(
    trace: FidelityTrace, grids: SearchGrids, params: SecurityParams
) -> StrategyOutcome:
    """Distill the whole trace as a single block."""
    block = _bucket_outcome(
        trace.samples, (FIDELITY_FLOOR, 1.0), grids, params, thresholds=None
    )
    return StrategyOutcome(
        secret_bits=block.secret_bits, per_block=[block], label="non-blockwise"
    )


def evaluate_block(
    trace: FidelityTrace,
    policy: BlockingPolicy,
    grids: SearchGrids,
    params: SecurityParams,
) -> StrategyOutcome:
    """Partition the trace per the policy and distill each block on its own.

    Within each bucket, threshold candidates are the grid points that fall
    inside the bucket's fidelity range; buckets entirely above the grid are
    distilled without a discard step.
    """
    buckets = partition(trace, policy)
    per_block = []
    total = 0
    for bucket_samples, fid_range in zip(buckets, bucket_ranges(policy)):
        lo, hi = fid_range
        if policy.boundaries:
            local = tuple(t for t in grids.thresholds if lo <= t < hi)
        else:
            local = tuple(grids.thresholds)
        block = _bucket_outcome(bucket_samples, fid_range, grids, params, local)
        per_block.append(block)
        total += block.secret_bits
    return StrategyOutcome(secret_bits=total, per_block=per_block, label=policy.label)


def best_blocking(
    trace: FidelityTrace,
    policies: list[BlockingPolicy],
    grids: SearchGrids,
    params: SecurityParams,
) -> StrategyOutcome:
    """Evaluate every policy and keep the best (`best_outcome`)."""
    return best_outcome([evaluate_block(trace, p, grids, params) for p in policies])


def best_outcome(outcomes: Sequence[StrategyOutcome]) -> StrategyOutcome:
    """The outcome with the most secret bits; ties go to fewer blocks, then
    to the earlier outcome."""
    if not outcomes:
        raise ValueError("no outcomes to choose from")
    return min(outcomes, key=lambda o: (-o.secret_bits, len(o.per_block)))


def improvement(l_block: int, l_nonblock: int) -> float | None:
    """Percent gain of blockwise over non-blockwise; None when undefined."""
    if l_block < 0 or l_nonblock < 0:
        raise ValueError("key lengths must be >= 0")
    if l_nonblock == 0:
        return None
    return 100.0 * (l_block - l_nonblock) / l_nonblock
