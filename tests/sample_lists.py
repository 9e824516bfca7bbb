"""Traces built from lists of `LinkSample`.

The strategy layer takes a trace only as `SampleColumns`.  Tests and the
list-based oracles that build their samples one `LinkSample` at a time
convert them here, at their boundary.
"""

import math

from satqkd.strategy import SampleColumns


def columns_of(samples) -> SampleColumns:
    """Columns of a `LinkSample` sequence; fidelity None becomes NaN."""
    samples = list(samples)
    return SampleColumns(
        [s.time for s in samples],
        [-1 if s.sat is None else s.sat[0] for s in samples],
        [-1 if s.sat is None else s.sat[1] for s in samples],
        [math.nan if s.fidelity is None else s.fidelity for s in samples],
        [s.sifted_bits for s in samples],
    )
