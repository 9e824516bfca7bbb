"""Experiment orchestration and flat-file I/O.

A trace picks, every time step, the satellite visible from both stations
that delivers the highest fidelity.  `run_trace` finds it with an exact
coarse-to-fine search instead of evaluating all satellites every step:

- coarse, in two levels: the constellation is propagated once per outer
  window of `_OUTER` steps, at the window's centre, and a (window,
  satellite) pair is kept only if the satellite lies inside both stations'
  visibility cones, each widened by the angle it can turn through in half
  a window, `max_angle_rate * (_OUTER - 1) / 2 * time_step`, plus a float
  guard (see the `orbit` module docstring).  Each survivor is then tested
  the same way at the centre of every inner window of `_WINDOW` steps in
  its outer window, with the cones widened by that window's half-width.
  No satellite outside a window's widened cones can be visible anywhere in
  the window, so neither level drops a visible satellite.
- bound: within an inner window each station's geocentric angle gamma
  stays within delta of its value at the window centre, delta being that
  window's widening, guard included.  Elevation falls with gamma on
  [0, pi], so `el(gamma + delta) <= elevation <= el(gamma - delta)` at
  every step, both angles clamped to [0, pi].  Transmissivity rises with
  elevation and delivered fidelity rises with both arms' transmissivity
  and falls with the click probability, whose range is taken over every
  step of the window.  So each pair gets a best-case fidelity (upper
  elevations, lowest click probability) and a worst-case one (lower
  elevations, highest click probability), through the fine pass's link
  budget (`_link_budget`).  A satellite whose lower elevations clear
  `min_elevation` at both stations is visible at every step, and a pair
  whose best case times `1 + _FIDELITY_MARGIN` is below such a
  satellite's worst case times `1 - _FIDELITY_MARGIN` loses to it at
  every step, ties included, so it is dropped; the margin covers rounding.
  The bound evaluates no elevation below `_EL_MIN`, and a bound with no
  coincidences to divide by (zero click probability, zero transmissivity)
  keeps the pair, so the bound raises nowhere the fine pass would not.
  Windows with a single candidate are left alone.
- fine: each kept pair gets per-step positions, elevations and the link
  budget, through the same `orbit` and `channel` functions and in the same
  element-wise arithmetic as an evaluation of every satellite, so the
  samples are bit-identical to that brute-force search.  Earth's rotation
  is evaluated once per step and gathered.  The candidates come ordered by
  step, so each step's best satellite (highest fidelity, ties to the
  lowest index) is found in one linear pass over per-step runs.

Outer windows are handled in batches so memory stays flat over long
horizons.  The search's per-step arrays become the trace's columns
(`SampleColumns`) as they are, with no per-second object, and go to the
strategy layer.  All outputs are CSV with a leading comment block that
records the resolved config hash, so results are attributable to the
exact configuration that produced them.

A trace CSV has one row per time step, `time_s,sat_ring,sat_slot,fidelity,
sifted_bits`, and the writer puts time down losslessly: an integral time as
an integer, any other by `repr`.  `read_trace_csv` accepts this grammar:

- lines end in LF, CRLF or a lone CR; the last may lack its ending;
- a `#` line anywhere is `key=value` metadata; a blank line is an error;
  `horizon_s`, if given, is a finite number > 0;
- a data row is five comma-separated ASCII decimal numbers, spaces and
  tabs around each ignored; `nan`, `inf`, `_` and non-ASCII digits are not
  valid;
- a row with no link leaves sat_ring, sat_slot and fidelity empty; a linked
  row has integral sat_ring and sat_slot in [0, 2**53) (`3.0` reads as 3)
  and fidelity in [0.25, 1];
- time is finite and increasing, sifted_bits finite and >= 0.

It parses every data row in one `np.loadtxt` call and checks them with
vector masks; only a file that fails is walked row by row, to name the
first bad line in a ConfigError.
"""

from __future__ import annotations

import io
import locale
import math
from dataclasses import dataclass, replace

import numpy as np

from . import channel as ch
from . import orbit
from .channel import FIDELITY_FLOOR
from .config import ConfigError, ExperimentConfig
from .strategy import (
    BlockingPolicy,
    FidelityTrace,
    SampleColumns,
    StrategyOutcome,
    best_outcome,
    best_per_threshold,
    evaluate_block,
    evaluate_nonblock,
    improvement,
)

_WINDOW = 20  # time steps per inner coarse window
_OUTER = 24 * _WINDOW  # time steps per outer coarse window
_BATCH = 8 * _OUTER  # time steps per batch
_ANGLE_GUARD = 1e-6  # rad; covers rounding in the cone test
_EL_MIN = 1e-6  # deg; lowest elevation the fidelity bound evaluates
_FIDELITY_MARGIN = 1e-9  # relative; covers rounding in the fidelity bound

TRACE_COLUMNS = "time_s,sat_ring,sat_slot,fidelity,sifted_bits"
RESULT_COLUMNS = "pair,altitude_m,strategy,secret_bits,threshold,improvement_pct,normalized_bits"


@dataclass(frozen=True)
class ResultRow:
    pair: str
    altitude_m: float
    strategy: str
    secret_bits: int
    threshold: str
    improvement_pct: float | None
    normalized_bits: float


def pair_name(pair: tuple[str, str]) -> str:
    return f"{pair[0]}-{pair[1]}"


def run_trace(
    config: ExperimentConfig, pair: tuple[str, str], altitude: float
) -> FidelityTrace:
    """Per-second link samples for one station pair at one altitude.

    Each step is served by the satellite of highest delivered fidelity
    among those at or above `min_elevation` from both stations that give
    coincidences (p_signal + p_accidental > 0); ties go to the lowest
    ring-major index.
    """
    const = config.constellation_at(altitude)
    stations = [orbit.station_ecef(config.station(name)) for name in pair]
    n_steps = int(round(config.horizon / config.time_step))
    times = np.arange(n_steps) * config.time_step
    p_click = _click_probs(times, config.channel)

    best = np.full(n_steps, -1)
    fid = np.full(n_steps, np.nan)
    bits = np.zeros(n_steps)
    for start in range(0, n_steps, _BATCH):
        windows = _window_search(config, const, stations, start, min(start + _BATCH, n_steps))
        steps, sats = _expand(*_can_win(config, const, stations, p_click, *windows))
        if len(steps):
            served, sat, f, b = _best_links(config, const, stations, times, p_click, steps, sats)
            best[served], fid[served], bits[served] = sat, f, b

    linked = best >= 0
    ring = np.where(linked, best // const.sats_per_ring, -1)
    slot = np.where(linked, best % const.sats_per_ring, -1)
    samples = SampleColumns(times, ring, slot, fid, bits)
    return FidelityTrace(pair=pair_name(pair), samples=samples, horizon=config.horizon)


def _click_probs(times: np.ndarray, chan: ch.ChannelParams) -> np.ndarray:
    """Noise-click probability at each time, one evaluation per radiance interval.

    `background_click_prob` depends on t only through the radiance
    interval, so each interval's value is computed at its start.
    """
    interval = (times // ch.INTERVAL_SECONDS).astype(np.int64)
    per_interval = np.array(
        [
            ch.background_click_prob(
                float(k * ch.INTERVAL_SECONDS), chan.radiance, chan.base_background_flux,
                chan.optics,
            )
            for k in range(int(interval[-1]) + 1)
        ]
    )
    return per_interval[interval]


def _window_search(config, const, stations, start, stop):
    """Coarse pass over steps [start, stop): the (inner window, satellite)
    pairs whose satellite is inside both widened cones at the centre of its
    outer window and at the centre of its inner window, ordered by window,
    then satellite; then the inner windows' first and last steps and each
    pair's position at its window's centre.

    Every satellite is tested once per outer window, and only the survivors
    once per inner window.
    """
    first, last = _windows(start, stop, _OUTER)
    pos = orbit.propagate_positions(const, (first + last) / 2 * config.time_step)
    outer, sats = np.nonzero(_inside(pos, stations, _reach(config, const, _OUTER)))
    first, last = _windows(start, stop, _WINDOW)
    # each surviving (outer window, satellite) to the inner windows it holds
    inner, sats = _expand(outer, sats, *_windows(0, len(first), _OUTER // _WINDOW))
    pos = orbit.sat_positions(const, (first[inner] + last[inner]) / 2 * config.time_step, sats)
    near = _inside(pos, stations, _reach(config, const, _WINDOW))
    return inner[near], sats[near], first, last, pos[near]


def _candidates(config, const, stations, start, stop):
    """Every (step, satellite) pair of steps [start, stop) that the window
    search keeps, ordered by step, then satellite: a superset of the pairs
    at or above min_elevation from both stations."""
    return _expand(*_window_search(config, const, stations, start, stop)[:4])


def _windows(start, stop, width):
    """First and last step of each window of `width` steps over [start, stop)."""
    first = np.arange(start, stop, width)
    return first, np.minimum(first + width, stop) - 1


def _turn(config, const, width):
    """Bound (rad) on the geocentric angle a satellite can turn through in
    half a window of `width` steps, plus a float guard."""
    return (
        orbit.max_angle_rate(const.altitude) * (width - 1) / 2 * config.time_step + _ANGLE_GUARD
    )


def _reach(config, const, width):
    """Cone half-angle (rad) widened by `_turn`."""
    cone = orbit.coverage_half_angle(const.altitude, config.min_elevation)
    return cone + _turn(config, const, width)


def _inside(pos, stations, reach):
    """Whether each position (..., 3) lies within `reach` of both stations."""
    limit = math.cos(min(reach, math.pi)) * np.linalg.norm(pos, axis=-1)
    near = np.ones(pos.shape[:-1], dtype=bool)
    for station in stations:
        near &= pos @ (station / np.linalg.norm(station)) >= limit
    return near


def _expand(group, sats, first, last):
    """Each (group, satellite) pair to every (index, satellite) with index in
    [first[group], last[group]].

    `group` is non-decreasing and `sats` ascending within a group, and the
    groups' index ranges ascend without overlap, so the output is ordered
    by index, then satellite.
    """
    per_group = np.bincount(group, minlength=len(first))
    size = per_group * (last - first + 1)
    owner = np.repeat(np.arange(len(first)), size)
    row, col = np.divmod(
        np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size), per_group[owner]
    )
    return first[owner] + row, sats[(np.cumsum(per_group) - per_group)[owner] + col]


def _can_win(config, const, stations, p_click, window, sats, first, last, pos):
    """The (inner window, satellite) pairs of the window search that can
    serve a step of their window, with the windows' first and last steps.

    A pair is dropped when its best-case fidelity over the window is below
    the worst-case fidelity of a satellite that is visible at every step of
    the window (bounds and exactness in the module docstring).
    """
    # only a window with two or more satellites can drop one
    starts = np.flatnonzero(np.diff(window, prepend=-1))
    size = np.diff(starts, append=len(window))
    rival = np.flatnonzero(np.repeat(size > 1, size))
    if not len(rival):
        return window, sats, first, last
    group, pos = window[rival], pos[rival]

    # each station's geocentric angle at the window centre, widened both ways
    up = np.stack([station / np.linalg.norm(station) for station in stations], axis=-1)
    gamma = np.arccos(np.clip(pos @ up / np.linalg.norm(pos, axis=-1)[:, None], -1.0, 1.0))
    turn = _turn(config, const, _WINDOW)
    el_hi = _elevation_at(np.clip(gamma - turn, 0.0, math.pi), const.altitude)
    el_lo = _elevation_at(np.clip(gamma + turn, 0.0, math.pi), const.altitude)
    # the click probability's range over every step of each window
    span, offsets = p_click[first[0] : last[-1] + 1], first - first[0]
    p_lo = np.minimum.reduceat(span, offsets)[group]
    p_hi = np.maximum.reduceat(span, offsets)[group]

    # a satellite visible at every step bounds its window's winner from below
    sure = el_lo.min(axis=1) >= max(config.min_elevation, _EL_MIN)
    el = np.maximum(np.concatenate([el_hi, el_lo[sure]]), _EL_MIN)
    eta = _arm(el, const.altitude, config.channel.optics)
    fid, _ = _link_budget(eta[:, 0], eta[:, 1], np.concatenate([p_lo, p_hi[sure]]), config.channel)
    best, worst = fid[: len(group)], np.full(len(group), -math.inf)
    worst[sure] = fid[len(group) :]
    # fmax skips an undefined (NaN) bound, and a NaN best is never below
    runs = np.flatnonzero(np.diff(group, prepend=-1))
    floor = np.repeat(np.fmax.reduceat(worst, runs), np.diff(runs, append=len(group)))
    keep = np.ones(len(window), dtype=bool)
    keep[rival] = ~(best * (1 + _FIDELITY_MARGIN) < floor * (1 - _FIDELITY_MARGIN))
    return window[keep], sats[keep], first, last


def _elevation_at(gamma, altitude):
    """Elevation (degrees) of a satellite at `altitude` whose geocentric
    angle from a station is `gamma` in [0, pi] (the `orbit` docstring)."""
    ratio = orbit.EARTH_RADIUS_M / (orbit.EARTH_RADIUS_M + altitude)
    return np.degrees(np.arctan2(np.cos(gamma) - ratio, np.sin(gamma)))


def _elevations(pos: np.ndarray, station: np.ndarray) -> np.ndarray:
    """`orbit.elevation_deg` over a flat (K, 3) batch.

    numpy evaluates a one-row matmul with a dot-product kernel whose last
    bit can differ from the matrix-vector kernel every larger batch uses,
    so a single row is padded to two.
    """
    if len(pos) == 1:
        return orbit.elevation_deg(np.concatenate([pos, pos]), station)[:1]
    return orbit.elevation_deg(pos, station)


def _arm(el: np.ndarray, altitude: float, optics) -> np.ndarray:
    return ch.arm_transmissivity(
        orbit.slant_range_from_elevation(el, altitude), np.radians(90.0 - el), optics
    )


def _link_budget(eta_a, eta_b, p, chan: ch.ChannelParams):
    """Delivered fidelity and sifted bits through arms of transmissivity
    `eta_a`, `eta_b` at click probability `p`, elementwise as the scalar
    `channel._link_budget`; NaN fidelity where no coincidence can occur."""
    p_signal = eta_a * eta_b
    p_acc = ch.accidental_prob(p, p, eta_a, eta_b)
    some = p_signal + p_acc > 0
    fid = ch.delivered_fidelity(
        np.where(some, p_signal, 1.0), np.where(some, p_acc, 0.0), chan.source.source_fidelity
    )
    bits = chan.source.pair_rate * (p_signal + p_acc) * chan.basis_sift_factor
    return np.where(some, fid, math.nan), bits


def _best_links(config, const, stations, times, p_click, steps, sats):
    """Fine pass over candidate (step, satellite) pairs, ordered by step and
    then satellite: the link budget of every dual-visible pair, then the
    best satellite of each step.  A pair whose coincidence probability
    p_signal + p_accidental is 0 delivers nothing and does not serve.

    Returns the served steps and their satellite, fidelity and sifted bits.
    """
    chan = config.channel
    # Earth's rotation once per step of the batch, gathered per candidate
    cos_t, sin_t = orbit._rotation(times[steps[0] : steps[-1] + 1])
    local = steps - steps[0]
    pos = orbit._sat_positions(const, times[steps], sats, (cos_t[local], sin_t[local]))
    el_a, el_b = (_elevations(pos, station) for station in stations)
    mask = (el_a >= config.min_elevation) & (el_b >= config.min_elevation)
    steps, sats, el_a, el_b = steps[mask], sats[mask], el_a[mask], el_b[mask]

    eta_a, eta_b = (_arm(el, const.altitude, chan.optics) for el in (el_a, el_b))
    fid, bits = _link_budget(eta_a, eta_b, p_click[steps], chan)
    # a pair with no coincidences delivers nothing and cannot serve
    serves = ~np.isnan(fid)
    steps, sats, fid, bits = steps[serves], sats[serves], fid[serves], bits[serves]

    # per step: highest fidelity, then lowest index (np.argmax's tie rule);
    # each step's pairs are one run with satellites ascending, so the first
    # pair of a run at its run's maximum wins
    starts = np.flatnonzero(np.diff(steps, prepend=-1))
    top = np.maximum.reduceat(fid, starts)
    at_top = np.flatnonzero(fid == np.repeat(top, np.diff(starts, append=len(steps))))
    lead = at_top[np.diff(steps[at_top], prepend=-1) != 0]
    return steps[lead], sats[lead], fid[lead], bits[lead]


def _threshold_summary(outcome: StrategyOutcome) -> str:
    def fmt(theta):
        return "none" if theta is None else f"{theta:g}"

    return "|".join(fmt(b.threshold) for b in outcome.per_block)


def _rows_for_cell(
    pair: tuple[str, str], altitude: float, outcomes: dict[str, StrategyOutcome]
) -> list[ResultRow]:
    nonblock = outcomes["non-blockwise"].secret_bits
    rows = []
    for label, outcome in outcomes.items():
        imp = None if label == "non-blockwise" else improvement(outcome.secret_bits, nonblock)
        rows.append(
            ResultRow(
                pair=pair_name(pair),
                altitude_m=altitude,
                strategy=label,
                secret_bits=outcome.secret_bits,
                threshold=_threshold_summary(outcome),
                improvement_pct=imp,
                normalized_bits=0.0,  # filled in by normalization
            )
        )
    return rows


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Full sweep: every pair at every altitude, all strategies.

    A data or domain error (ValueError, which covers NoDataError and
    ConfigError) in a single (pair, altitude) cell becomes an NA row and the
    sweep continues; any other exception is a bug and propagates.  Rows come
    out in (pair, altitude, strategy) order with normalized_bits filled per
    altitude group; "best-block" is the policies' `best_outcome`.
    """
    rows: list[ResultRow] = []
    for pair in config.pairs:
        for altitude in config.altitudes:
            try:
                trace = run_trace(config, pair, altitude)
                nonblock = evaluate_nonblock(trace, config.grids, config.security)
                blocks = [
                    evaluate_block(trace, policy, config.grids, config.security)
                    for policy in config.policies
                ]
                outcomes = {"non-blockwise": nonblock, **{o.label: o for o in blocks}}
                if blocks:
                    outcomes["best-block"] = best_outcome(blocks)
                rows.extend(_rows_for_cell(pair, altitude, outcomes))
            except ValueError:  # a data or domain error isolates the cell
                rows.append(
                    ResultRow(
                        pair=pair_name(pair),
                        altitude_m=altitude,
                        strategy="NA",
                        secret_bits=0,
                        threshold="NA",
                        improvement_pct=None,
                        normalized_bits=0.0,
                    )
                )
    return _normalize(rows)


def _normalize(rows: list[ResultRow]) -> list[ResultRow]:
    """Scale secret_bits to [0, 1] within each altitude group."""
    peaks: dict[float, int] = {}
    for row in rows:
        peaks[row.altitude_m] = max(peaks.get(row.altitude_m, 0), row.secret_bits)
    out = []
    for row in rows:
        peak = peaks[row.altitude_m]
        out.append(replace(row, normalized_bits=row.secret_bits / peak if peak > 0 else 0.0))
    return out


def _open_out(path, header_meta: dict):
    """Open path for writing and emit the comment header."""
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    for key, value in header_meta.items():
        fh.write(f"# {key}={value}\n")
    return fh


def emit_trace_csv(trace: FidelityTrace, path, meta: dict | None = None) -> None:
    """Write a per-second trace; empty sat/fidelity fields mean no link."""
    header = {"pair": trace.pair, "horizon_s": trace.horizon}
    header.update(meta or {})
    columns = trace.samples
    with _open_out(path, header) as fh:
        fh.write(TRACE_COLUMNS + "\n")
        # .tolist() gives Python scalars, whose !r is a plain number
        rest = (c.tolist() for c in columns.columns()[1:])
        for t, ring, slot, f, b in zip(_time_text(columns.time), *rest):
            if ring < 0:
                fh.write(f"{t},,,,{b!r}\n")
            else:
                fh.write(f"{t},{ring},{slot},{f:.6f},{b!r}\n")


def _time_text(time: np.ndarray) -> list:
    """Each time in a form that reads back as the same float: an integral
    time as an integer (the bytes `:g` gives below 1e6), any other by repr.
    Whether every time is integral is decided once, for the whole column."""
    if np.all((np.trunc(time) == time) & (np.abs(time) < 2.0**53) & ~np.signbit(time)):
        return time.astype(np.int64).tolist()
    return [f"{t:.0f}" if t.is_integer() else repr(t) for t in time.tolist()]


def read_trace_csv(path) -> tuple[FidelityTrace, dict]:
    """Re-ingest a trace CSV; returns the trace and its header metadata.

    A malformed row raises ConfigError naming its line (grammar in the
    module docstring).
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    if b"\r" in text:  # CRLF and a lone CR each end one line, as in text mode
        text = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    meta: dict = {}
    header, start, number = None, 0, 1  # offset and number of the next line
    while start < len(text):
        end = text.find(b"\n", start)
        end = len(text) if end < 0 else end
        line, start, number = text[start:end], end + 1, number + 1
        if not line.startswith(b"#"):
            header = line
            break
        _read_meta(line, meta, path, number - 1)
    if header != TRACE_COLUMNS.encode():
        raise ConfigError(f"{path}: not a trace CSV (bad or missing header)")
    body = text[start:]
    del text  # one copy of the file at a time keeps peak memory down
    samples = _parse_rows(body, number, meta, path)
    horizon = float(meta.get("horizon_s", samples.time[-1] + 1 if len(samples) else 0))
    return FidelityTrace(pair=meta.get("pair", "unknown"), samples=samples, horizon=horizon), meta


# What the bulk parser strips around a number; the row check strips the same.
_BLANK = b" \t\x0b\x0c\x1c\x1d\x1e\x1f"
_NO_LINK = b",,,,"  # empty sat_ring, sat_slot and fidelity
_ROW_RULE = (
    "need finite increasing time_s, finite sifted_bits >= 0, integral sat_ring and "
    "sat_slot >= 0 and fidelity in [0.25, 1]"
)


def _parse_rows(body: bytes, first: int, meta: dict, path) -> SampleColumns:
    """The data rows of a trace CSV, `body` from line `first` on (LF endings),
    in the grammar of the module docstring; `#` lines go into `meta`.

    Each empty triple becomes `-1,-1,nan` and one `np.loadtxt` call parses
    every row; a literal `-1,-1,nan` row is caught by counting the empty
    triples.  Only when the bulk check fails is the body walked row by row,
    to name the first bad line.
    """
    rows = body
    if rows.startswith(b"#") or b"\n#" in rows:  # metadata among the rows
        lines = rows.split(b"\n")
        for number, line in enumerate(lines, start=first):
            if line.startswith(b"#"):
                _read_meta(line, meta, path, number)
        rows = b"\n".join(line for line in lines if not line.startswith(b"#"))
    if not rows:
        return SampleColumns([], [], [], [], [])
    n = rows.count(b"\n") + (not rows.endswith(b"\n"))
    table = None
    # np.loadtxt skips blank lines and decodes bytes as latin-1, so neither may reach it
    if rows.isascii() and not (rows.startswith(b"\n") or b"\n\n" in rows):
        try:
            table = np.loadtxt(
                io.BytesIO(rows.replace(_NO_LINK, b",-1,-1,nan,")),
                delimiter=",", comments=None, ndmin=2,
            )
        except ValueError:
            pass
    if table is not None and table.shape == (n, 5):
        time, ring, slot, fidelity, bits = table.T
        previous = np.concatenate(([-np.inf], time[:-1]))
        no_link = slot == -1
        if (
            _rows_ok(time, ring, slot, fidelity, bits, previous, no_link).all()
            and np.count_nonzero(no_link) == rows.count(_NO_LINK)
        ):
            return SampleColumns(
                time.copy(), ring.astype(np.int64), slot.astype(np.int64), fidelity.copy(),
                bits.copy(),
            )
    raise _bad_row(body, first, path)


def _rows_ok(time, ring, slot, fidelity, bits, previous, no_link):
    """The row rules of `_parse_rows`, elementwise; `no_link` marks an empty
    triple, read as ring and slot -1 and fidelity NaN."""
    linked = (FIDELITY_FLOOR <= fidelity) & (fidelity <= 1.0)
    for index in (ring, slot):
        linked &= (0 <= index) & (index < 2.0**53) & (np.trunc(index) == index)
    return (
        (previous < time) & (time < np.inf) & (0.0 <= bits) & (bits < np.inf)
        & np.where(no_link, (ring == -1) & np.isnan(fidelity), linked)
    )


def _bad_row(body: bytes, first: int, path) -> ConfigError:
    """The error naming the first row of `body` that `_parse_rows` rejects."""
    lines = body.split(b"\n")
    if body.endswith(b"\n"):
        lines.pop()
    previous = -math.inf
    for number, line in enumerate(lines, start=first):
        if line.startswith(b"#"):
            continue
        fields = line.split(b",")
        no_link = len(fields) == 5 and fields[1] == fields[2] == fields[3] == b""
        try:
            if len(fields) != 5 or not line.isascii() or b"_" in line:
                raise ValueError
            if no_link:
                fields[1:4] = b"-1", b"-1", b"nan"
            values = [float(field.strip(_BLANK)) for field in fields]
        except ValueError:
            return ConfigError(
                f"{path}: line {number}: need five comma-separated ASCII decimal numbers "
                "(sat_ring, sat_slot and fidelity empty for no link)"
            )
        if not _rows_ok(*values, previous, no_link):
            return ConfigError(f"{path}: line {number}: {_ROW_RULE}")
        previous = values[0]
    return ConfigError(f"{path}: malformed trace rows")


def _decode(line: bytes) -> str:
    """A metadata line as text, in the encoding `open` reads and writes."""
    return line.decode(locale.getpreferredencoding(False))


def _read_meta(line: bytes, meta: dict, path, number: int) -> None:
    """Add a `#` line to `meta`; a horizon_s that is not a finite number > 0
    is a ConfigError naming the line."""
    _meta(_decode(line), meta)
    if "horizon_s" in meta:
        try:
            horizon = float(meta["horizon_s"])
        except ValueError:
            horizon = math.nan
        if not 0.0 < horizon < math.inf:
            raise ConfigError(f"{path}: line {number}: horizon_s must be a finite number > 0")


def _meta(line: str, meta: dict) -> None:
    body = line[1:].strip()
    if "=" in body:
        key, _, value = body.partition("=")
        meta[key.strip()] = value.strip()


def format_improvement(imp: float | None) -> str:
    return "NA" if imp is None else f"{imp:.6f}"


def emit_results_csv(rows: list[ResultRow], path, meta: dict | None = None) -> None:
    with _open_out(path, meta or {}) as fh:
        fh.write(RESULT_COLUMNS + "\n")
        for r in rows:
            fh.write(
                f"{r.pair},{int(r.altitude_m)},{r.strategy},{r.secret_bits},"
                f"{r.threshold},{format_improvement(r.improvement_pct)},"
                f"{r.normalized_bits:.6f}\n"
            )


def emit_plotdata(obj, path, meta: dict | None = None) -> None:
    """Plot-ready data: per-minute fidelity and bits for traces, or result rows."""
    if isinstance(obj, FidelityTrace):
        _emit_trace_plotdata(obj, path, meta)
    else:
        _emit_results_plotdata(obj, path, meta)


def _emit_trace_plotdata(trace: FidelityTrace, path, meta: dict | None) -> None:
    """One row per minute of simulation time, floor(time / 60), that holds a
    sample: the mean fidelity of its linked samples and the sum of its bits.

    Both sums run in time order over Python floats, as a loop would.
    """
    header = {"pair": trace.pair}
    header.update(meta or {})
    columns = trace.samples
    minute = np.floor(columns.time / 60.0).astype(np.int64)
    starts = np.flatnonzero(np.diff(minute, prepend=minute[:1] - 1)).tolist()
    minute, fid, bits = minute.tolist(), columns.fidelity.tolist(), columns.bits.tolist()
    with _open_out(path, header) as fh:
        fh.write("minute,mean_fidelity,sifted_bits\n")
        for a, b in zip(starts, [*starts[1:], len(bits)]):
            fids = [f for f in fid[a:b] if f == f]  # NaN = no link
            mean = f"{sum(fids) / len(fids):.6f}" if fids else ""
            fh.write(f"{minute[a]},{mean},{sum(bits[a:b])!r}\n")


def _emit_results_plotdata(rows: list[ResultRow], path, meta: dict | None) -> None:
    with _open_out(path, meta or {}) as fh:
        fh.write("pair,altitude_m,strategy,normalized_bits,improvement_pct\n")
        for r in rows:
            fh.write(
                f"{r.pair},{int(r.altitude_m)},{r.strategy},{r.normalized_bits:.6f},"
                f"{format_improvement(r.improvement_pct)}\n"
            )


def threshold_sweep(trace: FidelityTrace, config: ExperimentConfig):
    """Key length at every threshold grid point (non-blockwise).

    Returns a list of (theta, best_rate, secret_bits) over the whole grid;
    the basis of the optimal-threshold curve.  All thresholds share one
    batched search (`strategy.best_per_threshold`).
    """
    return [
        (theta, rate, result.secret_bits)
        for theta, rate, result in best_per_threshold(trace.samples, config.grids, config.security)
    ]
