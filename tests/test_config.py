"""Tests for the table-driven config, the best-outcome rule and input checks.

The pinned hashes were computed with the config code that preceded
`CONFIG_TABLE`, so they show that the table reads and writes every value as
that code did.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satqkd import cli, harness
from satqkd.config import (
    CONFIG_TABLE,
    GRID_RANGES,
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    load_config,
)
from satqkd.strategy import (
    BlockingPolicy,
    FidelityTrace,
    SampleColumns,
    SearchGrids,
    StrategyOutcome,
    best_outcome,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
TABLE_KEYS = [key for key, _, _ in CONFIG_TABLE]

DEFAULT_HASH = "8d816d064ff281bfa9fcc72d7b07a9c73d5ded61a685f0ffc9ac04bbb261b8f9"

# Config documents used by the benchmark, CI and a grid given as ranges.
PINNED_DOCS = {
    "sweep_day": (
        {"pairs": [["Toronto", "DC"]], "altitudes_m": [500000.0, 1300000.0], "horizon_s": 86400.0},
        "8b5b1e10a64e09255a77d8fd890c53312dfc25b63214737c3a80b1f290af6671",
    ),
    "simulate_write": (
        {
            "pairs": [["Toronto", "DC"], ["DC", "Houston"], ["Toronto", "Houston"]],
            "altitudes_m": [800000.0],
            "horizon_s": 28800.0,
        },
        "e66a94bff955beaa6deaf629ab983bec6f0261d00edcdd3477c64234cf08606e",
    ),
    "postprocess_read": (
        {
            "grids": {
                "sampling_rates": [float(r) for r in np.geomspace(1e-5, 0.05, 50)],
                "thresholds": [round(0.70 + 0.02 * i, 2) for i in range(11)],
            },
            "security": {"eps_sec": 1e-9, "eps_cor": 1e-15},
            "policies": [[0.98], [0.90, 0.98]],
        },
        DEFAULT_HASH,
    ),
    "ci_roundtrip": (
        {
            "altitudes_m": [500000.0, 1300000.0],
            "pairs": [["Toronto", "DC"]],
            "horizon_s": 100800.0,
            "time_step_s": 0.5,
            "grids": {"sampling_rates": [0.01, 0.1], "thresholds": [0.8, 0.9]},
        },
        "93ccff87add0926d3d9a3b430b4b0b5fe538004c263b366b050a37cd21c4e9f2",
    ),
    "grid_ranges": (
        {
            "grids": {
                "sampling_rate_min": 1e-4,
                "sampling_rate_max": 0.2,
                "sampling_rate_points": 7,
                "threshold_min": 0.6,
                "threshold_max": 0.95,
                "threshold_step": 0.05,
            }
        },
        "8e89d334ba469fb9838bb240c391eda388fe082bf76dd5ba206ca0ff374ed5af",
    ),
}

# One override per table key: (value, hash of the config it gives).
ONE_KEY = {
    "constellation.rings": (
        12, "a3ea9b6119b2ddbdba9de38107d9af19d527ab20eccf07ed18ca9a14a22baf5a"),
    "constellation.sats_per_ring": (
        15, "74c420f365559a9e19421866e1606d030c347f793a4f53227e6d26f087d859f6"),
    "constellation.raan_span_rad": (
        3.0, "c5798dd7f4629ddadfd19de5957b8ceca3109b8eeff5ed8c64cd36a0375085ee"),
    "constellation.interplane_phase_rad": (
        0.1, "0f1f9a05745eb1b3db20a8c1cf186bb9e6edd3ac2390eeb4b3c6c5f4bcb4ff49"),
    "altitudes_m": (
        [600000.0, 900000.0], "241e9686571b11c7ea9304639f50128a482ba6cc63e0ea8378b201b5276918e8"),
    "stations": (
        [
            {"name": "DC", "latitude": 38.9072, "longitude": -77.0369},
            {"name": "Toronto", "latitude": 43.6532, "longitude": -79.3832},
            {"name": "Houston", "latitude": 29.7604, "longitude": -95.3698},
            {"name": "Oslo", "latitude": 59.9139, "longitude": 10.7522},
        ],
        "b9f55c2bff0f469dcadde96badb22f1f07669b63ee4685af867ecbd861b9628e",
    ),
    "pairs": (
        [["DC", "Toronto"]], "da68ae35a74f2d91fd5c069c0373b29f77a4b8916509285fe8cb2d6259a6027b"),
    "source.pair_rate": (
        5e8, "ab65900ecf3934785a315d090ae314af892acb753b0cd91c97ed9d9cce553b28"),
    "source.pump_power": (
        0.02, "002cd3eb05ee11285d4ca4efca13dfb354e96ef216195ca1d6538cb16d623161"),
    "source.source_fidelity": (
        0.99, "107c7f05b3f3242846b43c1cdd865ef382f1c94acb961b9d9e8267dbd949af92"),
    "optics.beam_divergence_rad": (
        2e-5, "f4011abd6b169245f87b0464f6e9c8249fc9b78180aaa0dd37a79a6114a95a50"),
    "optics.rx_aperture_diameter_m": (
        0.5, "63068d07e651422664b2035eef9c4518720f5ab90633925bd62357d20b1e8c2c"),
    "optics.rx_efficiency": (
        0.4, "8b0f74bd3632422ec32bdfc87bb8d2f8668a570638ffa961b6c3689a55a1c328"),
    "optics.zenith_optical_depth": (
        0.5, "0645b20e670a625d53fcec2e349f3b0e50bfc737efe26ceab8e1beab80a0a415"),
    "optics.dark_rate_hz": (
        50.0, "37fa2c8a97eabdbe44a89b8b10d334ddad4912ef3a69001537ad06438c888b5c"),
    "optics.gate_time_s": (
        2e-9, "f4c7cd73e88d9fef95c173fd3c58dc07d02de49e371e3b923d1a57600ca36e8e"),
    "radiance.interval_scales": (
        [1.0, 10.0, 50.0, 2.0],
        "7deaeefc7d743fb36b937cf3d11109c3b4d42d10b3dabd9c51e9af0ccaa1e81e",
    ),
    "radiance.base_flux_hz": (
        1000.0, "6c40c3188c70b9d56b80aa0a4429dada5574397f0ab70b12a8e1769dbdeefb0a"),
    "basis_sift_factor": (
        0.75, "1338c8c6c4b2d1ca6dd7fd6258043f102fb104d66ffab9fcc1fc03db5a39336a"),
    "security.eps_sec": (
        1e-10, "150a74ad82b5f6890f5d1dec742a57587c238fc83b5b7dd5a9c48628d55f9de0"),
    "security.eps_cor": (
        1e-12, "1e4f4b63bc564e90fa646703a32480cf53a436de8c9f88a60d6099b13ee608ec"),
    "grids.sampling_rates": (
        [0.01, 0.02], "155d299e86d75eebb9d2ffbddcceaf2eb4b410dd6e67c92eadd2df6a61fbb7c7"),
    "grids.thresholds": (
        [0.8, 0.85], "b6d2f011da0fb83a90861ad2955828104fcca6d0a8966d1ee1acce4593e39b55"),
    "policies": (
        [[0.95]], "e56994ae41fae8d06bcef256b8a972b8cdef0eb6655f9b31d55674a9edb0130c"),
    "horizon_s": (
        43200.0, "4f5ac2e56d9abc2fc3343a4ac25405ac658aa54d627bda0f1cd2dd990d1f570b"),
    "time_step_s": (
        2.0, "a763752a06414966e673059c0a01102e3b86f418930539b5c802f211d13428a6"),
    "min_elevation_deg": (
        25.0, "de52172d60685445c72a0efab151b52ffaf389c1865183c8e0a36d7add1b5ebe"),
}
ALL_KEYS_HASH = "af0c17f86ae85a5bc1e4804377166284200e7277b5f408f2be19ae684caf586f"


def _doc(key: str, value) -> dict:
    section, _, name = key.rpartition(".")
    return {section: {name: value}} if section else {key: value}


def _all_keys_doc() -> dict:
    doc: dict = {}
    for key, (value, _) in ONE_KEY.items():
        for section, inner in _doc(key, value).items():
            if "." in key:
                doc.setdefault(section, {}).update(inner)
            else:
                doc[section] = inner
    return doc


class TestPinnedHashes:
    def test_defaults(self):
        assert ExperimentConfig().hash() == DEFAULT_HASH

    def test_shipped_default_file(self):
        assert load_config(str(REPO_ROOT / "configs" / "default.json")).hash() == DEFAULT_HASH

    @pytest.mark.parametrize("name", sorted(PINNED_DOCS))
    def test_pinned_documents(self, name):
        doc, want = PINNED_DOCS[name]
        assert config_from_dict(doc).hash() == want

    def test_one_override_per_table_key(self):
        assert sorted(ONE_KEY) == sorted(TABLE_KEYS)

    @pytest.mark.parametrize("key", sorted(ONE_KEY))
    def test_each_table_key(self, key):
        value, want = ONE_KEY[key]
        config = config_from_dict(_doc(key, value))
        assert config.hash() == want
        section, _, name = key.rpartition(".")
        written = config.to_dict()
        assert (written[section][name] if section else written[key]) == value

    def test_all_keys_at_once(self):
        config = config_from_dict(_all_keys_doc())
        assert config.hash() == ALL_KEYS_HASH
        assert config.constellation.altitude == 600000.0  # the first altitude


class TestTable:
    def test_to_dict_keys_follow_the_table(self):
        flat = []
        for name, value in ExperimentConfig().to_dict().items():
            if isinstance(value, dict):
                flat.extend(f"{name}.{inner}" for inner in value)
            else:
                flat.append(name)
        assert flat == TABLE_KEYS

    def test_shipped_default_file_names_every_key(self):
        doc = json.loads((REPO_ROOT / "configs" / "default.json").read_text())
        for key in TABLE_KEYS:
            section, _, name = key.rpartition(".")
            named = doc.get(section, {}) if section else doc
            if key in GRID_RANGES:  # the file gives the search grids as ranges
                _, _, range_keys = GRID_RANGES[key]
                assert name in named or all(k in named for k in range_keys), key
            else:
                assert name in named, key

    def test_grid_ranges_give_the_default_grids(self):
        doc = json.loads((REPO_ROOT / "configs" / "default.json").read_text())
        assert config_from_dict({"grids": doc["grids"]}).grids == SearchGrids()


_FINITE = {"allow_nan": False, "allow_infinity": False}


@st.composite
def config_docs(draw):
    """A valid config document over a random subset of the table keys."""
    step = draw(st.sampled_from([0.5, 1.0, 2.0]))
    sizes = draw(st.sets(st.integers(1, 3), max_size=3))
    policies = [
        sorted(draw(st.sets(st.floats(0.26, 0.99, **_FINITE), min_size=n, max_size=n)))
        for n in sorted(sizes)
    ]
    values = {
        "constellation.rings": st.integers(1, 30),
        "constellation.sats_per_ring": st.integers(1, 30),
        "constellation.raan_span_rad": st.floats(0.1, 2 * math.pi, **_FINITE),
        "constellation.interplane_phase_rad": st.floats(0.0, 1.0, **_FINITE),
        "altitudes_m": st.lists(st.floats(3e5, 2e6, **_FINITE), min_size=1, max_size=4),
        "pairs": st.lists(
            st.sampled_from([["Toronto", "DC"], ["DC", "Houston"], ["Houston", "Toronto"]]),
            max_size=3,
            unique_by=tuple,
        ),
        "source.pair_rate": st.floats(1e3, 1e10, **_FINITE),
        "source.pump_power": st.floats(0.0, 1.0, **_FINITE),
        "source.source_fidelity": st.floats(0.25, 1.0, **_FINITE),
        "optics.beam_divergence_rad": st.floats(1e-7, 1e-3, **_FINITE),
        "optics.rx_aperture_diameter_m": st.floats(0.01, 10.0, **_FINITE),
        "optics.rx_efficiency": st.floats(0.01, 1.0, **_FINITE),
        "optics.zenith_optical_depth": st.floats(0.0, 5.0, **_FINITE),
        "optics.dark_rate_hz": st.floats(0.0, 1e6, **_FINITE),
        "optics.gate_time_s": st.floats(1e-12, 1e-6, **_FINITE),
        "radiance.interval_scales": st.lists(
            st.floats(0.0, 1e3, **_FINITE), min_size=4, max_size=4
        ),
        "radiance.base_flux_hz": st.floats(0.0, 1e6, **_FINITE),
        "basis_sift_factor": st.floats(0.01, 1.0, **_FINITE),
        "security.eps_sec": st.floats(1e-20, 0.5, **_FINITE),
        "security.eps_cor": st.floats(1e-20, 0.5, **_FINITE),
        "grids.sampling_rates": st.lists(st.floats(1e-6, 0.5, **_FINITE), min_size=1, max_size=5),
        "grids.thresholds": st.lists(st.floats(0.25, 1.0, **_FINITE), min_size=1, max_size=5),
        "policies": st.just(policies),
        "horizon_s": st.integers(1, 1000).map(lambda k: k * step),
        "time_step_s": st.just(step),
        "min_elevation_deg": st.floats(0.0, 89.0, **_FINITE),
    }
    keys = draw(st.sets(st.sampled_from(sorted(values))))
    if "horizon_s" in keys or "time_step_s" in keys:
        keys |= {"horizon_s", "time_step_s"}
    doc: dict = {}
    for key in sorted(keys):
        section, _, name = key.rpartition(".")
        (doc.setdefault(section, {}) if section else doc)[name] = draw(values[key])
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=config_docs())
def test_round_trip(doc):
    config = config_from_dict(doc)
    assert config_from_dict(config.to_dict()) == config
    back = config_from_dict(json.loads(json.dumps(config.to_dict())))
    assert back == config and back.hash() == config.hash()


# -- failing documents ---------------------------------------------------------


class TestRejectedDocuments:
    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"horizon": 7200}, "'horizon'"),
            ({"optics": {"dark_rate": 5.0}}, "'optics.dark_rate'"),
            ({"grids": {"threshold_steps": 0.01}}, "'grids.threshold_steps'"),
            ({"constellation.rings": 5}, "'constellation.rings'"),
            ({"security": {"eps_sec": 1e-9, "eps": 1e-9}}, "'security.eps'"),
        ],
    )
    def test_unknown_key_names_its_path(self, doc, path):
        with pytest.raises(ConfigError, match=f"unknown config key {path}"):
            config_from_dict(doc)

    @pytest.mark.parametrize("section", ["constellation", "optics", "grids", "radiance"])
    @pytest.mark.parametrize("value", [5, None, [1.0], "x"])
    def test_section_must_be_an_object(self, section, value):
        with pytest.raises(ConfigError, match=f"^{section}: must be an object"):
            config_from_dict({section: value})

    @pytest.mark.parametrize("policies", [[[]], [[0.98], []]])
    def test_policy_without_boundary(self, policies):
        with pytest.raises(ConfigError, match="needs a boundary"):
            config_from_dict({"policies": policies})

    @pytest.mark.parametrize("policies", [[[0.90], [0.98]], [[0.9, 0.98], [0.5], [0.8, 0.95]]])
    def test_policies_with_one_block_count(self, policies):
        with pytest.raises(ConfigError, match="same block count"):
            config_from_dict({"policies": policies})

    def test_policy_checks_on_the_dataclass(self):
        with pytest.raises(ConfigError, match="same block count"):
            ExperimentConfig(policies=(BlockingPolicy((0.9,)), BlockingPolicy((0.98,))))
        with pytest.raises(ConfigError, match="needs a boundary"):
            ExperimentConfig(policies=(BlockingPolicy(()),))

    @pytest.mark.parametrize(
        "grids, match",
        [
            ({"thresholds": [1.5]}, "thresholds must lie in"),
            ({"thresholds": [0.8, 0.2]}, "thresholds must lie in"),
            ({"sampling_rates": [1.0]}, "sampling_rates must lie in"),
            ({"sampling_rates": [0.0, 0.1]}, "sampling_rates must lie in"),
            ({"threshold_step": 0}, "threshold_step > 0"),
            ({"threshold_min": 0.9, "threshold_max": 0.7}, "threshold_step > 0"),
            ({"sampling_rate_min": 0.1, "sampling_rate_max": 0.01}, "sampling_rate_min"),
            ({"sampling_rate_max": 1.5}, "sampling_rates must lie in"),
        ],
    )
    def test_bad_grid(self, grids, match):
        with pytest.raises(ConfigError, match=match):
            config_from_dict({"grids": grids})

    def test_grid_checks_on_the_dataclass(self):
        with pytest.raises(ValueError, match="thresholds"):
            SearchGrids(thresholds=(1.5,))
        with pytest.raises(ValueError, match="sampling_rates"):
            SearchGrids(sampling_rates=(float("nan"),))

    @pytest.mark.parametrize(
        "doc",
        [
            {"horizon": 7200},
            {"constellation": 5},
            {"optics": None},
            {"grids": {"thresholds": [1.5]}},
            {"policies": [[0.90], [0.98]]},
        ],
    )
    def test_cli_exits_2(self, doc, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        argv = ["sweep", "--config", str(path), "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()


# -- the one best-outcome rule -----------------------------------------------------


def _outcome(bits: int, blocks: int, label: str) -> StrategyOutcome:
    return StrategyOutcome(secret_bits=bits, per_block=[None] * blocks, label=label)


class TestBestOutcome:
    def test_most_bits_wins(self):
        outcomes = [_outcome(5, 2, "a"), _outcome(7, 3, "b"), _outcome(6, 2, "c")]
        assert best_outcome(outcomes).label == "b"

    def test_tie_goes_to_fewer_blocks_in_any_order(self):
        outcomes = [_outcome(7, 3, "three"), _outcome(7, 2, "two"), _outcome(7, 4, "four")]
        assert best_outcome(outcomes).label == "two"
        assert best_outcome(outcomes[::-1]).label == "two"

    def test_full_tie_keeps_the_earlier(self):
        assert best_outcome([_outcome(7, 2, "first"), _outcome(7, 2, "second")]).label == "first"

    def test_empty(self):
        with pytest.raises(ValueError):
            best_outcome([])


def _plateau(fidelity: float, bits: float, seconds: int) -> FidelityTrace:
    """A trace linked every second at one fidelity and bit count."""
    n = np.arange(seconds)
    samples = SampleColumns(
        n.astype(float), np.zeros(seconds), n, np.full(seconds, fidelity), np.full(seconds, bits)
    )
    return FidelityTrace("Toronto-DC", samples, float(seconds))


# Every sample above both policies' top cut: the 2- and 3-block policies give
# the same key, so the tie must go to 2 blocks although 3 blocks come first.
TIE_DOC = {
    "altitudes_m": [500000.0],
    "pairs": [["Toronto", "DC"]],
    "horizon_s": 100.0,
    "grids": {"sampling_rates": [0.01, 0.1], "thresholds": [0.8]},
    "policies": [[0.90, 0.98], [0.98]],
}


def test_run_experiment_tie_goes_to_fewer_blocks(monkeypatch):
    trace = _plateau(0.99, 1e6, 100)
    monkeypatch.setattr(harness, "run_trace", lambda config, pair, altitude: trace)
    rows = {r.strategy: r for r in harness.run_experiment(config_from_dict(TIE_DOC))}
    assert list(rows) == ["non-blockwise", "3-block", "2-block", "best-block"]
    assert rows["2-block"].secret_bits == rows["3-block"].secret_bits > 0
    assert rows["2-block"].threshold != rows["3-block"].threshold
    assert rows["best-block"].threshold == rows["2-block"].threshold


def test_compare_tie_goes_to_fewer_blocks(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TIE_DOC))
    trace = tmp_path / "trace.csv"
    harness.emit_trace_csv(_plateau(0.99, 1e6, 100), trace)
    assert cli.main(["compare", "--config", str(config), "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    labels = [line.split()[0] for line in lines[:-1]]
    bits = [int(line.split("secret_bits=")[1]) for line in lines[:-1]]
    assert labels == ["non-blockwise", "2-block", "3-block"]  # block-count order
    assert bits[1] == bits[2] > 0
    assert lines[-1].startswith("best=2-block improvement=")


# -- the horizon_s header of a trace CSV -------------------------------------------


def _trace_lines(horizon: str) -> list[str]:
    return [
        "# pair=a-b",
        f"# horizon_s={horizon}",
        harness.TRACE_COLUMNS,
        "0,3,14,0.987654,123.456",
        "1,,,,0.0",
    ]


@pytest.mark.parametrize("value", ["abc", "-5", "0", "0.0", "inf", "-inf", "nan", ""])
def test_bad_horizon_header_names_file_and_line(tmp_path, value):
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(_trace_lines(value)) + "\n")
    with pytest.raises(ConfigError, match=rf"trace\.csv: line 2: horizon_s"):
        harness.read_trace_csv(path)


def test_bad_horizon_among_rows_names_its_line(tmp_path):
    lines = _trace_lines("3.0")
    lines.insert(4, "# horizon_s=-1")
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="line 5: horizon_s"):
        harness.read_trace_csv(path)


def test_bad_horizon_header_exits_2(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(_trace_lines("abc")) + "\n")
    assert cli.main(["compare", "--trace", str(path)]) == cli.EXIT_CONFIG
    assert f"{path}: line 2" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["86400.0", "3", "1e-3", "2e9"])
def test_good_horizon_header_reads_back(tmp_path, value):
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(_trace_lines(value)) + "\n")
    trace, meta = harness.read_trace_csv(path)
    assert trace.horizon == float(value) and meta["horizon_s"] == value


def test_written_horizon_reads_back(tmp_path):
    path = tmp_path / "trace.csv"
    harness.emit_trace_csv(_plateau(0.99, 1e6, 10), path)
    assert harness.read_trace_csv(path)[0].horizon == 10.0


# -- list items: pairs and stations -------------------------------------------------

STATIONS = [
    {"name": "DC", "latitude": 38.9072, "longitude": -77.0369},
    {"name": "Toronto", "latitude": 43.6532, "longitude": -79.3832},
]


class TestListItems:
    @pytest.mark.parametrize(
        "pairs",
        [
            [["Toronto", "DC"], ["Toronto", "DC"]],
            [["Toronto", "DC"], ["DC", "Houston"], ["Toronto", "DC"]],
        ],
    )
    def test_repeated_pair(self, pairs):
        with pytest.raises(ConfigError, match="^pairs: pair Toronto-DC is listed twice"):
            config_from_dict({"pairs": pairs})

    def test_repeated_pair_on_the_dataclass(self):
        with pytest.raises(ConfigError, match="^pairs: "):
            ExperimentConfig(pairs=(("DC", "Houston"), ("DC", "Houston")))

    def test_reversed_pair_is_another_cell(self):
        config = config_from_dict({"pairs": [["Toronto", "DC"], ["DC", "Toronto"]]})
        assert config.pairs == (("Toronto", "DC"), ("DC", "Toronto"))

    @pytest.mark.parametrize(
        "pair", [["Toronto", "DC", "Houston"], ["Toronto"], [], "TD", {"a": "Toronto"}]
    )
    def test_pair_of_other_than_two_names(self, pair):
        with pytest.raises(ConfigError, match=r"^pairs\[1\]: a pair is a list of two"):
            config_from_dict({"pairs": [["DC", "Houston"], pair]})

    def test_station_with_unknown_key(self):
        stations = [STATIONS[0], {**STATIONS[1], "elevation_m": 100}]
        with pytest.raises(ConfigError, match=r"^unknown config key 'stations\[1\]\.elevation_m'"):
            config_from_dict({"stations": stations, "pairs": [["Toronto", "DC"]]})

    @pytest.mark.parametrize("station", [["DC", 38.9, -77.0], "DC", None])
    def test_station_must_be_an_object(self, station):
        with pytest.raises(ConfigError, match=r"^stations\[0\]: must be an object"):
            config_from_dict({"stations": [station, STATIONS[1]], "pairs": []})

    @pytest.mark.parametrize("command", ["sweep", "simulate"])
    def test_cli_exits_2_on_repeated_pair(self, command, tmp_path, capsys):
        path = tmp_path / "config.json"
        doc = {"pairs": [["Toronto", "DC"], ["Toronto", "DC"]], "horizon_s": 60.0}
        path.write_text(json.dumps(doc))
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "config error: pairs: " in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_cli_pair_flag_given_twice(self, tmp_path, capsys):
        argv = ["sweep", "--pair", "Toronto:DC", "--pair", "Toronto:DC", "--out", str(tmp_path)]
        assert cli.main(argv) == 2
        assert "listed twice" in capsys.readouterr().err


def test_compare_without_policies(tmp_path, capsys):
    """`compare` with no policies prints the non-blockwise line only, as
    `sweep` with that config writes no blockwise row."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TIE_DOC, "policies": []}))
    trace = tmp_path / "trace.csv"
    harness.emit_trace_csv(_plateau(0.99, 1e6, 100), trace)
    assert cli.main(["compare", "--config", str(config), "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("non-blockwise secret_bits=")
    assert int(lines[0].split("=")[1]) > 0


# -- numbers that are not finite ---------------------------------------------------


NOT_FINITE = [
    ({"source": {"pair_rate": math.inf}}, "source.pair_rate"),
    ({"optics": {"beam_divergence_rad": math.nan}}, "optics.beam_divergence_rad"),
    ({"radiance": {"base_flux_hz": math.nan}}, "radiance.base_flux_hz"),
    ({"optics": {"dark_rate_hz": math.inf}}, "optics.dark_rate_hz"),
    ({"optics": {"zenith_optical_depth": math.inf}}, "optics.zenith_optical_depth"),
    ({"constellation": {"interplane_phase_rad": math.nan}}, "constellation.interplane_phase_rad"),
    ({"radiance": {"interval_scales": [1, math.nan, 1, 1]}}, r"radiance.interval_scales\[1\]"),
    ({"constellation": {"rings": math.inf}}, "constellation.rings"),
    ({"source": {"pair_rate": "-inf"}}, "source.pair_rate"),
    ({"grids": {"threshold_max": math.nan}}, "grids.threshold_max"),
]


@pytest.mark.parametrize("doc, path", NOT_FINITE)
def test_number_that_is_not_finite_names_its_path(doc, path):
    """Python's json reads NaN and Infinity; each is a config error that
    names its key, never a traceback or a silently wrong number."""
    with pytest.raises(ConfigError, match=f"^{path}: must be a finite number"):
        config_from_dict(doc)


@pytest.mark.parametrize("doc, path", NOT_FINITE)
def test_cli_exits_2_on_number_that_is_not_finite(doc, path, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**doc, "horizon_s": 60.0}))  # NaN/Infinity literals
    argv = ["sweep", "--config", str(config), "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()
