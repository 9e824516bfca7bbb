"""Experiment configuration: defaults, JSON loading, validation, hashing.

The config file is a single JSON document.  `CONFIG_TABLE` lists each value
once, with its JSON key, its attribute on `ExperimentConfig` and its parser;
`to_dict` and `config_from_dict` both follow it.  Every value is optional
and falls back to the dataclass defaults, which the shipped
configs/default.json repeats; a search grid may also be given as a range
(`GRID_RANGES`).  An unknown key is an error, and so is a number that is
not finite (Python's `json` reads `NaN` and `Infinity`).  Station
coordinates are public geographic facts; the radiance scales and optics
values are invented calibration defaults.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, replace
from functools import cache
from operator import attrgetter
from typing import get_type_hints

from .channel import ChannelParams
from .finite_key import SecurityParams
from .orbit import ConstellationConfig, GroundStation
from .strategy import (
    RATE_RANGE,
    THRESHOLD_RANGE,
    BlockingPolicy,
    SearchGrids,
    rate_grid,
    threshold_grid,
)


class ConfigError(ValueError):
    """A configuration file failed to parse or validate."""


DEFAULT_STATIONS = (
    GroundStation("DC", 38.9072, -77.0369),
    GroundStation("Toronto", 43.6532, -79.3832),
    GroundStation("Houston", 29.7604, -95.3698),
)
DEFAULT_PAIRS = (("Toronto", "DC"), ("DC", "Houston"), ("Toronto", "Houston"))
DEFAULT_ALTITUDES = (500e3, 800e3, 1000e3, 1300e3)
_NAME_SEPARATORS = frozenset(",-:/\\")  # of CSV fields, pair names, `--pair A:B` and paths
_NAME_RULE = "need non-empty printable text without , - : / or \\"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a full sweep needs, resolved and validated."""

    constellation: ConstellationConfig = field(
        default_factory=lambda: ConstellationConfig(altitude=DEFAULT_ALTITUDES[0])
    )
    altitudes: tuple[float, ...] = DEFAULT_ALTITUDES
    stations: tuple[GroundStation, ...] = DEFAULT_STATIONS
    pairs: tuple[tuple[str, str], ...] = DEFAULT_PAIRS
    channel: ChannelParams = field(default_factory=ChannelParams)
    security: SecurityParams = field(default_factory=SecurityParams)
    grids: SearchGrids = field(default_factory=SearchGrids)
    policies: tuple[BlockingPolicy, ...] = (BlockingPolicy((0.98,)), BlockingPolicy((0.90, 0.98)))
    horizon: float = 86400.0
    time_step: float = 1.0
    min_elevation: float = 20.0

    def __post_init__(self):
        names = {s.name for s in self.stations}
        if len(names) != len(self.stations):
            raise ConfigError("stations: duplicate station names")
        for name in (s.name for s in self.stations):
            printable = isinstance(name, str) and name.isprintable() and name
            if not printable or _NAME_SEPARATORS & set(name):
                raise ConfigError(f"stations: bad station name {name!r}: {_NAME_RULE}")
        for i, (a, b) in enumerate(self.pairs):
            for name in (a, b):
                if name not in names:
                    raise ConfigError(
                        f"pairs: pair {a}-{b} references undeclared station {name!r}"
                    )
            if a == b:
                raise ConfigError(f"pairs: pair {a}-{b} repeats one station")
            if (a, b) in self.pairs[:i]:
                raise ConfigError(f"pairs: pair {a}-{b} is listed twice")
        if self.horizon <= 0 or self.time_step <= 0:
            raise ConfigError("horizon and time_step must be > 0")
        if self.horizon % self.time_step != 0:
            raise ConfigError("horizon must be divisible by time_step")
        if not 0.0 <= self.min_elevation < 90.0:
            raise ConfigError("min_elevation must be in [0, 90)")
        if any(a <= 0 for a in self.altitudes):
            raise ConfigError("altitudes must all be > 0")
        blocks = [p.n_blocks for p in self.policies]
        if 1 in blocks:
            raise ConfigError("policies: a policy needs a boundary (none is non-blockwise)")
        if len(set(blocks)) != len(blocks):
            raise ConfigError("policies: two policies have the same block count and label")

    def station(self, name: str) -> GroundStation:
        for s in self.stations:
            if s.name == name:
                return s
        raise ConfigError(f"unknown station {name!r}")

    def constellation_at(self, altitude: float) -> ConstellationConfig:
        return replace(self.constellation, altitude=altitude)

    def to_dict(self) -> dict:
        """Fully resolved config as plain JSON-serializable data."""
        out: dict = {}
        for key, attr, _ in CONFIG_TABLE:
            _put(out, key, _plain(attrgetter(attr)(self)))
        return out

    def hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


_STATION_KEYS = {f.name for f in fields(GroundStation)}


def _stations(values) -> tuple[GroundStation, ...]:
    for i, s in enumerate(values):
        if not isinstance(s, dict):
            raise ConfigError(f"stations[{i}]: must be an object, got {s!r}")
        unknown = sorted(s.keys() - _STATION_KEYS)
        if unknown:
            raise ConfigError(f"unknown config key 'stations[{i}].{unknown[0]}'")
    return tuple(
        GroundStation(s["name"], float(s["latitude"]), float(s["longitude"])) for s in values
    )


def _pairs(values) -> tuple[tuple[str, str], ...]:
    for i, p in enumerate(values):
        if not isinstance(p, (list, tuple)) or len(p) != 2:
            raise ConfigError(f"pairs[{i}]: a pair is a list of two station names, got {p!r}")
    return tuple((p[0], p[1]) for p in values)


# Every config value once: its JSON key path, its attribute path on
# ExperimentConfig and the parser of its JSON value, in `to_dict` order.
CONFIG_TABLE = (
    ("constellation.rings", "constellation.rings", int),
    ("constellation.sats_per_ring", "constellation.sats_per_ring", int),
    ("constellation.raan_span_rad", "constellation.raan_span", float),
    ("constellation.interplane_phase_rad", "constellation.interplane_phase", float),
    ("altitudes_m", "altitudes", _floats),
    ("stations", "stations", _stations),
    ("pairs", "pairs", _pairs),
    ("source.pair_rate", "channel.source.pair_rate", float),
    ("source.pump_power", "channel.source.pump_power", float),
    ("source.source_fidelity", "channel.source.source_fidelity", float),
    ("optics.beam_divergence_rad", "channel.optics.beam_divergence", float),
    ("optics.rx_aperture_diameter_m", "channel.optics.rx_aperture_diameter", float),
    ("optics.rx_efficiency", "channel.optics.rx_efficiency", float),
    ("optics.zenith_optical_depth", "channel.optics.zenith_optical_depth", float),
    ("optics.dark_rate_hz", "channel.optics.dark_rate", float),
    ("optics.gate_time_s", "channel.optics.gate_time", float),
    ("radiance.interval_scales", "channel.radiance.interval_scales", _floats),
    ("radiance.base_flux_hz", "channel.base_background_flux", float),
    ("basis_sift_factor", "channel.basis_sift_factor", float),
    ("security.eps_sec", "security.eps_sec", float),
    ("security.eps_cor", "security.eps_cor", float),
    ("grids.sampling_rates", "grids.sampling_rates", _floats),
    ("grids.thresholds", "grids.thresholds", _floats),
    ("policies", "policies", lambda values: tuple(BlockingPolicy(_floats(b)) for b in values)),
    ("horizon_s", "horizon", float),
    ("time_step_s", "time_step", float),
    ("min_elevation_deg", "min_elevation", float),
)

# The range form of a search grid, used when its list is not given: the grid
# function, its default range and its range keys under "grids"; each range
# value is parsed to the type of its default.
GRID_RANGES = {
    "grids.sampling_rates": (
        rate_grid, RATE_RANGE, ("sampling_rate_min", "sampling_rate_max", "sampling_rate_points")
    ),
    "grids.thresholds": (
        threshold_grid, THRESHOLD_RANGE, ("threshold_min", "threshold_max", "threshold_step")
    ),
}

_KEYS = {tuple(key.split(".")) for key, _, _ in CONFIG_TABLE} | {
    ("grids", name) for _, _, names in GRID_RANGES.values() for name in names
}
_SECTIONS = {key[0] for key in _KEYS if len(key) == 2}


def _put(tree: dict, path: str, value) -> None:
    """Set `value` at the dotted `path` of a nested dict."""
    *sections, name = path.split(".")
    for section in sections:
        tree = tree.setdefault(section, {})
    tree[name] = value


def _plain(value):
    """A config value as JSON data: tuples as lists, a policy as its boundaries."""
    if isinstance(value, GroundStation):
        return dict(vars(value))
    if isinstance(value, BlockingPolicy):
        value = value.boundaries
    if isinstance(value, tuple):
        composite = (tuple, GroundStation, BlockingPolicy)
        return [_plain(v) if isinstance(v, composite) else v for v in value]
    return value


def _flatten(data: dict) -> dict:
    """Values by dotted JSON key path; an unknown key or non-object section is an error."""
    flat = {}
    for name, value in data.items():
        if name not in _SECTIONS:
            items = {(name,): value}
        elif isinstance(value, dict):
            items = {(name, inner): v for inner, v in value.items()}
        else:
            raise ConfigError(f"{name}: must be an object, got {value!r}")
        for path, v in items.items():
            if path not in _KEYS:
                raise ConfigError(f"unknown config key {'.'.join(path)!r}")
            flat[".".join(path)] = v
    return flat


def _finite(path: str, value) -> None:
    """Raise ConfigError naming the first number in a JSON value that is not
    finite, by its key path."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path}: must be a finite number, got {value!r}")
    if isinstance(value, dict):
        for name, item in value.items():
            _finite(f"{path}.{name}", item)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _finite(f"{path}[{i}]", item)


_field_types = cache(get_type_hints)  # evaluating annotations costs more than a whole load


def _build(cls, values: dict):
    """A `cls` dataclass from nested attribute values; a missing field keeps its default."""
    types = _field_types(cls)
    return cls(**{k: _build(types[k], v) if isinstance(v, dict) else v for k, v in values.items()})


def config_from_dict(data: dict) -> ExperimentConfig:
    """A validated config from parsed JSON; a missing value keeps its dataclass default."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    flat = _flatten(data)
    for key, value in flat.items():
        _finite(key, value)
    values: dict = {}
    try:
        for key, attr, parse in CONFIG_TABLE:
            if key in flat:
                value = parse(flat[key])
            elif key in GRID_RANGES:
                grid, default, names = GRID_RANGES[key]
                bounds = (type(d)(flat.get(f"grids.{n}", d)) for n, d in zip(names, default))
                value = grid(*bounds)
            else:
                continue
            _finite(key, _plain(value))  # a string such as "nan" parses to one
            _put(values, attr, value)
        _put(values, "constellation.altitude", values.get("altitudes", DEFAULT_ALTITUDES)[0])
        return _build(ExperimentConfig, values)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


def load_config(path: str | None = None) -> ExperimentConfig:
    """Load a JSON config file; None gives the built-in defaults."""
    if path is None:
        return ExperimentConfig()
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    return config_from_dict(data)
