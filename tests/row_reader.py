"""Reference trace CSV reader: one Python `split`/`float`/`int` per row.

`harness.read_trace_csv` parses a file's rows in one bulk numpy pass and
checks them with vector masks.  This is the row-by-row reader it replaces;
on every file both accept, both must return bit-identical columns, `meta`,
`pair` and `horizon`, and on a file both reject, both must name the same
line.  The metadata rules are restated here (`_check_meta`), not imported.
"""

from __future__ import annotations

import math

from satqkd.channel import FIDELITY_FLOOR
from satqkd.config import ConfigError
from satqkd.harness import TRACE_COLUMNS, _meta
from satqkd.strategy import FidelityTrace, SampleColumns


def read_trace_csv(path) -> tuple[FidelityTrace, dict]:
    """Re-ingest a trace CSV; returns the trace and its header metadata.

    A malformed row raises ConfigError naming its line.
    """
    meta = {}
    times, rings, slots, fids, bitss = [], [], [], [], []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    with fh:
        header = None
        previous = -math.inf
        for number, line in enumerate(fh, start=1):
            if line.startswith("#"):
                _meta(line, meta)
                _check_meta(meta, path, number)
                continue
            if header is None:
                header = line.rstrip("\r\n")
                if header != TRACE_COLUMNS:
                    break
                continue
            try:
                time_s, ring, slot, fidelity, bits = line.split(",")
                time_s, bits = float(time_s), float(bits)
                linked = not (ring == slot == fidelity == "")
                if linked:
                    ring, slot, fidelity = int(ring), int(slot), float(fidelity)
                else:
                    ring, slot, fidelity = -1, -1, math.nan
            except ValueError as exc:
                raise ConfigError(f"{path}: line {number}: {exc}") from None
            if not (
                previous < time_s < math.inf
                and 0.0 <= bits < math.inf
                and (not linked or (ring >= 0 and slot >= 0 and FIDELITY_FLOOR <= fidelity <= 1.0))
            ):
                raise ConfigError(
                    f"{path}: line {number}: need finite increasing time_s, finite "
                    "sifted_bits >= 0, sat_ring and sat_slot >= 0 and fidelity in [0.25, 1]"
                )
            previous = time_s
            times.append(time_s)
            rings.append(ring)
            slots.append(slot)
            fids.append(fidelity)
            bitss.append(bits)
    if header != TRACE_COLUMNS:
        raise ConfigError(f"{path}: not a trace CSV (bad or missing header)")
    horizon = float(meta.get("horizon_s", times[-1] + 1 if times else 0))
    samples = SampleColumns(times, rings, slots, fids, bitss)
    return FidelityTrace(pair=meta.get("pair", "unknown"), samples=samples, horizon=horizon), meta


def _check_meta(meta: dict, path, number: int) -> None:
    """A horizon_s must be a finite number > 0, and a pair non-empty
    printable text without `,`, `:`, `/` or `\\`; the line that breaks
    either rule is named."""
    if "horizon_s" in meta:
        try:
            horizon = float(meta["horizon_s"])
        except ValueError:
            horizon = math.nan
        if not (horizon > 0.0 and math.isfinite(horizon)):
            raise ConfigError(f"{path}: line {number}: horizon_s must be a finite number > 0")
    pair = meta.get("pair")
    if pair is not None and (pair == "" or not pair.isprintable() or set(pair) & set(",:/\\")):
        raise ConfigError(f"{path}: line {number}: bad pair {pair!r}")
