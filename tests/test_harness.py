"""Tests for configuration loading, trace/result CSV I/O, and the CLI."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sample_lists import columns_of
from satqkd import channel as ch
from satqkd import cli, harness
from satqkd.channel import ChannelParams, LinkSample, RadianceSchedule
from satqkd.config import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    load_config,
)
from satqkd.strategy import FidelityTrace, NoDataError

REPO_ROOT = Path(__file__).resolve().parent.parent

# Short-horizon single-cell config used by CLI round trips.  Two hours is
# enough to include several Toronto-DC passes at 500 km.
SMALL_CONFIG = {
    "altitudes_m": [500000.0],
    "pairs": [["Toronto", "DC"]],
    "horizon_s": 7200.0,
}


@pytest.fixture(scope="module")
def small_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


@pytest.fixture(scope="module")
def small_trace_dir(small_config_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("simulate")
    rc = cli.main(["simulate", "--config", small_config_path, "--out", str(out)])
    assert rc == 0
    return out


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.constellation.n_sats == 400
        assert cfg.horizon == 86400.0
        assert cfg.min_elevation == 20.0
        assert len(cfg.pairs) == 3
        assert len(cfg.altitudes) == 4
        assert cfg.channel.source.pair_rate == 1e9

    def test_shipped_default_file_matches_builtin(self):
        shipped = load_config(str(REPO_ROOT / "configs" / "default.json"))
        assert shipped.hash() == ExperimentConfig().hash()

    def test_load_none_gives_defaults(self):
        assert load_config(None).hash() == ExperimentConfig().hash()

    def test_hash_changes_with_content(self):
        a = ExperimentConfig()
        b = config_from_dict({"min_elevation_deg": 25.0})
        assert a.hash() != b.hash()
        assert len(a.hash()) == 64

    def test_partial_override(self):
        cfg = config_from_dict(SMALL_CONFIG)
        assert cfg.horizon == 7200.0
        assert cfg.pairs == (("Toronto", "DC"),)
        # untouched fields keep defaults
        assert cfg.channel.optics.rx_efficiency == 0.5

    def test_undeclared_station_names_pair(self):
        with pytest.raises(ConfigError, match="Toronto-Oslo"):
            config_from_dict({"pairs": [["Toronto", "Oslo"]]})

    def test_self_pair_rejected(self):
        with pytest.raises(ConfigError, match="repeats"):
            config_from_dict({"pairs": [["DC", "DC"]]})

    def test_horizon_divisibility(self):
        with pytest.raises(ConfigError, match="divisible"):
            config_from_dict({"horizon_s": 100.0, "time_step_s": 3.0})

    def test_bad_json_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(bad))

    def test_explicit_grid_lists(self):
        cfg = config_from_dict(
            {"grids": {"sampling_rates": [0.01, 0.02], "thresholds": [0.8]}}
        )
        assert cfg.grids.sampling_rates == (0.01, 0.02)
        assert cfg.grids.thresholds == (0.8,)

    def test_default_threshold_grid(self):
        cfg = ExperimentConfig()
        assert cfg.grids.thresholds[0] == 0.70
        assert cfg.grids.thresholds[-1] == 0.90
        assert len(cfg.grids.thresholds) == 11
        assert len(cfg.grids.sampling_rates) == 50
        assert cfg.grids.sampling_rates[0] == pytest.approx(1e-5)
        assert cfg.grids.sampling_rates[-1] == pytest.approx(0.05)


class TestRunTrace:
    CFG = config_from_dict(SMALL_CONFIG)

    def test_one_sample_per_second(self):
        trace = harness.run_trace(self.CFG, ("Toronto", "DC"), 500e3)
        assert len(trace.samples) == 7200
        assert trace.samples[0].time == 0.0
        assert trace.samples[-1].time == 7199.0
        assert any(s.fidelity is not None for s in trace.samples)

    def test_deterministic(self):
        a = harness.run_trace(self.CFG, ("Toronto", "DC"), 500e3)
        b = harness.run_trace(self.CFG, ("Toronto", "DC"), 500e3)
        assert a == b


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        samples = [
            LinkSample(time=0.0, fidelity=0.987654321, sifted_bits=123.456, sat=(3, 14)),
            LinkSample(time=1.0, fidelity=None, sifted_bits=0.0, sat=None),
            LinkSample(time=2.0, fidelity=1.0, sifted_bits=9.0, sat=(0, 0)),
        ]
        trace = FidelityTrace(pair="a-b", samples=columns_of(samples), horizon=3.0)
        path = tmp_path / "t.csv"
        harness.emit_trace_csv(trace, path, meta={"config_sha256": "x" * 64})

        back, meta = harness.read_trace_csv(path)
        assert back.pair == "a-b"
        assert back.horizon == 3.0
        assert meta["config_sha256"] == "x" * 64
        assert back.samples[1].fidelity is None
        # fidelity is written with 6 decimals; bits round-trip exactly
        assert back.samples[0].fidelity == 0.987654
        assert back.samples[0].sifted_bits == 123.456
        assert back.samples[0].sat == (3, 14)

    def test_reemit_is_byte_identical(self, tmp_path):
        trace = FidelityTrace(
            pair="a-b",
            samples=columns_of(
                [LinkSample(time=0.0, fidelity=0.91234567, sifted_bits=1e7 / 3, sat=(1, 2))]
            ),
            horizon=1.0,
        )
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        harness.emit_trace_csv(trace, p1)
        back, _ = harness.read_trace_csv(p1)
        harness.emit_trace_csv(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_and_columns(self, tmp_path):
        trace = FidelityTrace(
            pair="a-b",
            samples=columns_of([LinkSample(time=0.0, fidelity=0.9, sifted_bits=1.0, sat=(0, 1))]),
            horizon=1.0,
        )
        path = tmp_path / "t.csv"
        harness.emit_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0] == "time_s,sat_ring,sat_slot,fidelity,sifted_bits"
        assert data[1] == "0,0,1,0.900000,1.0"

    def test_rejects_non_trace_file(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(ConfigError, match="not a trace CSV"):
            harness.read_trace_csv(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            harness.read_trace_csv(tmp_path / "absent.csv")


class TestResultsCsv:
    ROWS = [
        harness.ResultRow("a-b", 500e3, "non-blockwise", 1000, "0.8", None, 0.5),
        harness.ResultRow("a-b", 500e3, "2-block", 2000, "none|0.8", 100.0, 1.0),
    ]

    def test_format(self, tmp_path):
        path = tmp_path / "r.csv"
        harness.emit_results_csv(self.ROWS, path)
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == (
            "pair,altitude_m,strategy,secret_bits,threshold,improvement_pct,normalized_bits"
        )
        assert lines[1] == "a-b,500000,non-blockwise,1000,0.8,NA,0.500000"
        assert lines[2] == "a-b,500000,2-block,2000,none|0.8,100.000000,1.000000"

    def test_format_improvement(self):
        assert harness.format_improvement(None) == "NA"
        assert harness.format_improvement(8.6) == "8.600000"


class TestNormalization:
    def test_per_altitude_peak_is_one(self):
        rows = [
            harness.ResultRow("a-b", 500e3, "x", 100, "", None, 0.0),
            harness.ResultRow("a-b", 500e3, "y", 400, "", None, 0.0),
            harness.ResultRow("a-b", 800e3, "x", 50, "", None, 0.0),
        ]
        out = harness._normalize(rows)
        assert out[0].normalized_bits == pytest.approx(0.25)
        assert out[1].normalized_bits == pytest.approx(1.0)
        assert out[2].normalized_bits == pytest.approx(1.0)

    def test_zero_group(self):
        rows = [harness.ResultRow("a-b", 500e3, "x", 0, "", None, 0.0)]
        assert harness._normalize(rows)[0].normalized_bits == 0.0


class TestCli:
    def test_simulate_outputs(self, small_trace_dir):
        trace_path = small_trace_dir / "trace_Toronto-DC_500000.csv"
        plot_path = small_trace_dir / "plotdata_trace_Toronto-DC_500000.csv"
        assert trace_path.exists() and plot_path.exists()
        trace, meta = harness.read_trace_csv(trace_path)
        assert len(trace.samples) == 7200
        assert meta["config_sha256"] == config_from_dict(SMALL_CONFIG).hash()
        assert meta["altitude_m"] == "500000"

    def test_keyrate(self, small_config_path, small_trace_dir, capsys):
        trace_path = str(small_trace_dir / "trace_Toronto-DC_500000.csv")
        rc = cli.main(["keyrate", "--config", small_config_path, "--trace", trace_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "strategy=non-blockwise" in out
        assert "secret_bits=" in out

        rc = cli.main(
            ["keyrate", "--config", small_config_path, "--trace", trace_path,
             "--boundaries", "0.90,0.98"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "strategy=3-block" in out
        assert out.count("block [") == 3

    def test_optimize(self, small_config_path, small_trace_dir, tmp_path, capsys):
        trace_path = str(small_trace_dir / "trace_Toronto-DC_500000.csv")
        rc = cli.main(
            ["optimize", "--config", small_config_path, "--trace", trace_path,
             "--out", str(tmp_path)]
        )
        assert rc == 0
        lines = [
            ln
            for ln in (tmp_path / "optimize_Toronto-DC.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        assert lines[0] == "threshold,sampling_rate,secret_bits"
        assert len(lines) == 1 + 11  # one row per threshold grid point

    def test_compare(self, small_config_path, small_trace_dir, capsys):
        trace_path = str(small_trace_dir / "trace_Toronto-DC_500000.csv")
        rc = cli.main(["compare", "--config", small_config_path, "--trace", trace_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "non-blockwise secret_bits=" in out
        assert "2-block secret_bits=" in out
        assert "3-block secret_bits=" in out
        assert "best=" in out and "improvement=" in out

    def test_sweep(self, small_config_path, tmp_path, capsys):
        rc = cli.main(["sweep", "--config", small_config_path, "--out", str(tmp_path)])
        assert rc == 0
        lines = [
            ln
            for ln in (tmp_path / "results.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        assert lines[0] == harness.RESULT_COLUMNS
        strategies = [ln.split(",")[2] for ln in lines[1:]]
        assert strategies == ["non-blockwise", "2-block", "3-block", "best-block"]
        assert (tmp_path / "plotdata_results.csv").exists()

    def test_pair_and_altitude_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG, "horizon_s": 600.0}))
        out = tmp_path / "o"
        rc = cli.main(
            ["simulate", "--config", str(cfg), "--out", str(out),
             "--pair", "DC:Houston", "--altitude", "800000"]
        )
        assert rc == 0
        assert (out / "trace_DC-Houston_800000.csv").exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"pairs": [["Toronto", "Atlantis"]]}))
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_bad_pair_flag_exits_2(self, small_config_path, tmp_path, capsys):
        rc = cli.main(
            ["simulate", "--config", small_config_path, "--out", str(tmp_path),
             "--pair", "nonsense"]
        )
        assert rc == 2

    def test_missing_trace_exits_3(self, small_config_path, tmp_path, capsys):
        rc = cli.main(
            ["keyrate", "--config", small_config_path,
             "--trace", str(tmp_path / "absent.csv")]
        )
        assert rc == 3

    def test_unwritable_out_exits_3(self, small_config_path, capsys):
        rc = cli.main(
            ["simulate", "--config", small_config_path, "--out", "/proc/nowhere/out"]
        )
        assert rc == 3


class TestClickProbs:
    def test_per_interval_values_match_scalar_over_a_day(self, monkeypatch):
        chan = ChannelParams(radiance=RadianceSchedule(interval_scales=(1.0, 2.0, 3.0, 4.0)))
        calls = []
        scalar = ch.background_click_prob

        def counted(t, *args):
            calls.append(t)
            return scalar(t, *args)

        monkeypatch.setattr(ch, "background_click_prob", counted)
        times = np.arange(2 * 86400) * 0.5  # one day in half-second steps
        got = harness._click_probs(times, chan)
        assert calls == [0.0, 21600.0, 43200.0, 64800.0]
        want = [scalar(t, chan.radiance, chan.base_background_flux, chan.optics) for t in times]
        assert got.tolist() == want


class TestCellIsolation:
    CFG = config_from_dict({**SMALL_CONFIG, "horizon_s": 60.0})

    def test_programming_error_propagates(self, monkeypatch):
        def broken(config, pair, altitude):
            raise TypeError("bug in a cell")

        monkeypatch.setattr(harness, "run_trace", broken)
        with pytest.raises(TypeError, match="bug in a cell"):
            harness.run_experiment(self.CFG)

    def test_no_data_error_gives_na_row(self, monkeypatch):
        def no_data(trace, grids, security):
            raise NoDataError("no sifted bits in sample set")

        monkeypatch.setattr(harness, "evaluate_nonblock", no_data)
        rows = harness.run_experiment(self.CFG)
        assert [(r.pair, r.altitude_m, r.strategy, r.secret_bits) for r in rows] == [
            ("Toronto-DC", 500e3, "NA", 0)
        ]


# A valid trace CSV; its data rows sit on lines 4 to 6.
GOOD_TRACE = [
    "# pair=a-b",
    "# horizon_s=3.0",
    harness.TRACE_COLUMNS,
    "0,3,14,0.987654,123.456",
    "1,,,,0.0",
    "2,0,0,1.000000,9.0",
]
FAST_GRIDS = {"grids": {"sampling_rates": [0.01, 0.1], "thresholds": [0.8]}}


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return path


def _compare(trace_path, config_path):
    return cli.main(["compare", "--config", str(config_path), "--trace", str(trace_path)])


class TestTraceCsvValidation:
    @pytest.mark.parametrize(
        "row",
        [
            "",
            "1,2,3",
            "1,3,14,0.9,1.0,7",
            "1,3,14,nan,1.0",
            "1,3,14,1.7,1.0",
            "1,3,14,0.2,1.0",
            "1,3,14,0.9,-1.0",
            "1,3,14,0.9,nan",
            "1,3,14,0.9,inf",
            "1,,,,nan",
            "1,,,,-2",
            "1,,14,0.9,1.0",
            "1,3,,,1.0",
            "1,-3,14,0.9,1.0",
            "1,3,1.5,0.9,1.0",
            "x,3,14,0.9,1.0",
            "nan,3,14,0.9,1.0",
            "0,,,,0.0",
        ],
    )
    def test_bad_row_names_its_line(self, tmp_path, row):
        path = _write_lines(tmp_path / "t.csv", GOOD_TRACE[:4] + [row] + GOOD_TRACE[5:])
        with pytest.raises(ConfigError, match="line 5"):
            harness.read_trace_csv(path)

    def test_good_file_reads(self, tmp_path):
        trace, _ = harness.read_trace_csv(_write_lines(tmp_path / "t.csv", GOOD_TRACE))
        assert [s.sat for s in trace.samples] == [(3, 14), None, (0, 0)]

    def test_cli_exits_2(self, tmp_path, capsys):
        path = _write_lines(tmp_path / "t.csv", GOOD_TRACE[:4] + ["1,3"] + GOOD_TRACE[5:])
        config = tmp_path / "c.json"
        config.write_text(json.dumps(FAST_GRIDS))
        assert _compare(path, config) == 2
        assert "line 5" in capsys.readouterr().err


_BAD_FIELD = {
    0: ["", "nan", "inf", "x"],
    1: ["", "x", "1.5", "-1", "nan"],
    2: ["", "x", "1.5", "-1", "nan"],
    3: ["", "nan", "1.7", "0.2", "-0.5", "inf", "x"],
    4: ["", "nan", "-1", "inf", "x"],
}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzzed_trace_rows_exit_2(tmp_path_factory, data):
    """Every row corrupted to be invalid is reported by line, with exit 2."""
    index = data.draw(st.integers(3, len(GOOD_TRACE) - 1), label="row")
    fields = GOOD_TRACE[index].split(",")
    no_link = fields[1] == ""
    kind = data.draw(st.sampled_from(["value", "text", "drop", "extra"]), label="kind")
    if kind == "drop":
        del fields[data.draw(st.integers(0, 4))]
    elif kind == "extra":
        fields.insert(data.draw(st.integers(0, 5)), data.draw(st.text(max_size=4)))
    else:
        column = data.draw(st.integers(0, 4), label="column")
        if kind == "text":
            bad = data.draw(st.text(st.characters(categories=["L"]), min_size=1, max_size=8))
        else:
            choices = _BAD_FIELD[column]
            if no_link and column in (1, 2, 3):
                choices = [c for c in choices if c]
            bad = data.draw(st.sampled_from(choices))
        fields[column] = bad
    lines = list(GOOD_TRACE)
    lines[index] = ",".join(fields).replace("\n", "").replace("\r", "")
    work = tmp_path_factory.mktemp("fuzz")
    config = work / "c.json"
    config.write_text(json.dumps(FAST_GRIDS))
    path = _write_lines(work / "t.csv", lines)
    with pytest.raises(ConfigError, match=f"line {index + 1}"):
        harness.read_trace_csv(path)
    assert _compare(path, config) == 2


@settings(max_examples=100, deadline=None)
@given(cut=st.integers(0, 200), junk=st.text(max_size=30), at=st.integers(0, 6))
def test_fuzzed_trace_files_never_raise(tmp_path_factory, cut, junk, at):
    """Truncated files and inserted junk lines give exit 0 or 2, never a traceback."""
    lines = list(GOOD_TRACE)
    lines.insert(at, junk)
    text = "".join(line + "\n" for line in lines)
    work = tmp_path_factory.mktemp("fuzz")
    config = work / "c.json"
    config.write_text(json.dumps(FAST_GRIDS))
    path = work / "t.csv"
    path.write_text(text[: len(text) - cut])
    assert _compare(path, config) in (0, 2)
