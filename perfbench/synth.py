"""Seeded synthetic fidelity traces for the post-processing workload.

Uses only numpy and the standard library.  Each trace is written in the
documented trace CSV format (``time_s,sat_ring,sat_slot,fidelity,
sifted_bits``, empty satellite and fidelity fields for a second without a
link) with floats written by ``repr``, so reading a file back gives
exactly the arrays that were generated.

The ladder of traces is fixed: the seed moves the pass layout, the
fidelities and the bit counts, but never the number of rows or linked
seconds, so the cost of post-processing a trace does not depend on the
seed.  The ladder spans scarce and abundant data and three fidelity
spreads; every trace carries enough bits for a positive non-blockwise key.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

HORIZON_S = 21600  # six hours, one row per second
N_TRACES = 12
SPREADS = ("narrow", "wide", "bimodal")

# (label, linked fraction, mean sifted bits per linked second, fidelity
# spread): data volume grows geometrically along the ladder, so the cost of
# one op varies smoothly from trace to trace instead of in a few clusters.
LADDER = tuple(
    (f"{i:02d}-{SPREADS[i % 3]}", float(frac), float(bits), SPREADS[i % 3])
    for i, (frac, bits) in enumerate(
        zip(np.geomspace(0.03, 0.95, N_TRACES), np.geomspace(1500.0, 25000.0, N_TRACES))
    )
)

MEAN_PASS_S = 300


@dataclass(frozen=True)
class SyntheticTrace:
    """A generated trace: its file and the linked seconds it holds."""

    path: Path
    pair: str
    horizon: int
    fidelity: np.ndarray  # linked seconds only, in time order
    sifted_bits: np.ndarray


def _passes(rng, n_linked: int, horizon: int) -> list[tuple[int, int]]:
    """Contiguous (start, length) link windows covering n_linked seconds."""
    k = max(1, n_linked // MEAN_PASS_S)
    lengths = rng.multinomial(n_linked - k, np.full(k, 1.0 / k)) + 1
    gaps = rng.multinomial(horizon - n_linked, np.full(k + 1, 1.0 / (k + 1)))
    windows, t = [], 0
    for gap, length in zip(gaps, lengths):
        t += int(gap)
        windows.append((t, int(length)))
        t += int(length)
    return windows


def _pass_fidelity(rng, spread: str, x: np.ndarray) -> np.ndarray:
    """Fidelity over one pass; x runs over [0, 1] from rise to set."""
    arc = (2.0 * x - 1.0) ** 2  # 0 at culmination, 1 at the horizon
    if spread == "narrow":
        peak, depth, noise = rng.uniform(0.965, 0.985), 0.02, 0.003
    elif spread == "wide":
        peak, depth, noise = rng.uniform(0.90, 0.995), 0.20, 0.005
    elif rng.random() < 0.5:  # bimodal: a clean pass or a noisy one
        peak, depth, noise = 0.985, 0.01, 0.002
    else:
        peak, depth, noise = 0.82, 0.05, 0.01
    fid = peak - depth * arc + noise * rng.standard_normal(len(x))
    return np.clip(fid, 0.30, 0.9999)


def generate(rng, label, pair, horizon, link_fraction, mean_bits, spread, path) -> SyntheticTrace:
    n_linked = int(round(link_fraction * horizon))
    fid = np.empty(n_linked)
    bits = np.empty(n_linked)
    rows = [None] * horizon
    k = 0
    for start, length in _passes(rng, n_linked, horizon):
        x = (np.arange(length) + 0.5) / length
        fid[k : k + length] = _pass_fidelity(rng, spread, x)
        shape = 0.3 + 0.7 * (1.0 - (2.0 * x - 1.0) ** 2)
        bits[k : k + length] = mean_bits * shape * rng.lognormal(0.0, 0.2, length)
        ring, slot = (int(v) for v in rng.integers(0, 20, 2))
        for i, (f, b) in enumerate(zip(fid[k : k + length].tolist(), bits[k : k + length].tolist())):
            rows[start + i] = f"{start + i},{ring},{slot},{f!r},{b!r}\n"
        k += length
    with open(path, "w", newline="") as fh:
        fh.write(f"# pair={pair}\n# horizon_s={float(horizon)!r}\n# generator={label}\n")
        fh.write("time_s,sat_ring,sat_slot,fidelity,sifted_bits\n")
        fh.writelines(row if row is not None else f"{t},,,,0.0\n" for t, row in enumerate(rows))
    return SyntheticTrace(Path(path), pair, horizon, fid, bits)


def write_ladder(directory: Path, seed: int) -> list[SyntheticTrace]:
    """Write one trace per LADDER entry into `directory`."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 2])
    return [
        generate(
            rng, label, f"synthetic-{label}", HORIZON_S, frac, bits, spread,
            directory / f"trace_{label}.csv",
        )
        for label, frac, bits, spread in LADDER
    ]


def write_warmup(directory: Path, seed: int) -> SyntheticTrace:
    """A short trace for warming up the post-processing path."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 3])
    return generate(
        rng, "warmup", "synthetic-warmup", 900, 0.5, 3000.0, "narrow",
        directory / "trace_warmup.csv",
    )
