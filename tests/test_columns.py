"""The columnar trace: `SampleColumns`, its strategy masks and its CSV writers.

The strategy layer must give, bit for bit, the outcomes of the list-based
reference in `list_strategy.py`; `trace.samples` must read as a sequence of
`LinkSample` with Python scalars; the writers must produce the bytes a
per-sample loop would.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from list_strategy import reference_path
from satqkd import harness, strategy
from satqkd.channel import LinkSample
from satqkd.config import config_from_dict
from satqkd.strategy import (
    BlockingPolicy,
    FidelityTrace,
    SampleColumns,
    evaluate_block,
    evaluate_nonblock,
)

CONFIG = config_from_dict(
    {"grids": {"sampling_rates": list(np.geomspace(1e-5, 0.05, 10))}}
)
POLICIES = [BlockingPolicy(b) for b in [(), (0.98,), (0.90, 0.98), (0.72,)]]
TWO_HOURS = config_from_dict(
    {"altitudes_m": [500000.0], "pairs": [["Toronto", "DC"]], "horizon_s": 7200.0}
)


def make_samples(points, step=1.0):
    """LinkSamples from (fidelity, sifted_bits) points; fidelity None = no link."""
    return [
        LinkSample(time=i * step, fidelity=f, sifted_bits=b, sat=None if f is None else (i % 3, 7))
        for i, (f, b) in enumerate(points)
    ]


def outcomes(trace):
    """Every search the strategy layer offers, on one trace."""
    return (
        evaluate_nonblock(trace, CONFIG.grids, CONFIG.security),
        [evaluate_block(trace, p, CONFIG.grids, CONFIG.security) for p in POLICIES],
        harness.threshold_sweep(trace, CONFIG),
    )


def assert_matches_reference(samples):
    columnar = outcomes(FidelityTrace("a-b", samples, float(len(samples))))
    with reference_path():
        assert isinstance(strategy.apply_threshold(samples, 0.5), list)
        reference = outcomes(SimpleNamespace(pair="a-b", samples=list(samples)))
    assert columnar == reference


@pytest.fixture(scope="module")
def real_trace():
    return harness.run_trace(TWO_HOURS, ("Toronto", "DC"), 500e3)


# -- the columnar strategy layer against the list-based reference -------------

SPECIAL_FIDELITIES = sorted(
    {
        0.25,
        1.0,
        *CONFIG.grids.thresholds,
        *(b for p in POLICIES for b in p.boundaries),
        math.nextafter(0.98, 0.0),
        math.nextafter(0.72, 1.0),
        math.nextafter(1.0, 0.0),
    }
)
FIDELITY = st.one_of(st.sampled_from(SPECIAL_FIDELITIES), st.floats(0.25, 1.0))
BITS = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3e7]), st.floats(0.0, 1e9))
ROW = st.one_of(st.tuples(FIDELITY, BITS), st.tuples(st.none(), BITS))


class TestReferenceOracle:
    @given(st.lists(ROW, min_size=1, max_size=40))
    @example([(None, 5e8)])
    @example([(None, 0.0), (None, 1e9), (None, 3.0)])
    @example([(1.0, 1e9)])
    @example([(0.25, 1e9)])
    @example([(0.98, 1e9), (None, 4e8), (0.72, 1e9), (1.0, 2e9), (0.90, 1e9)])
    @settings(max_examples=150, deadline=None)
    def test_random_traces(self, points):
        assert_matches_reference(make_samples(points))

    def test_real_trace(self, real_trace):
        assert_matches_reference(list(real_trace.samples))


# -- the sample view ----------------------------------------------------------


class TestSampleView:
    def test_index_gives_python_scalars(self, real_trace):
        samples = real_trace.samples
        linked = np.flatnonzero(~np.isnan(samples.fidelity))
        unlinked = np.flatnonzero(np.isnan(samples.fidelity))
        assert len(linked) and len(unlinked)
        for i in [linked[0], linked[-1], unlinked[0], unlinked[-1]]:
            s = samples[i]
            assert isinstance(s, LinkSample)
            assert type(s.time) is float and type(s.sifted_bits) is float
            if i in linked:
                assert type(s.fidelity) is float
                assert type(s.sat) is tuple and all(type(k) is int for k in s.sat)
            else:
                assert s.fidelity is None and s.sat is None
        assert samples[-1] == samples[len(samples) - 1]

    def test_sequence_behaviour(self, real_trace):
        samples = real_trace.samples
        as_list = list(samples)
        assert len(samples) == len(as_list) == 7200
        assert [samples[i] for i in (0, 1234, 7199)] == [as_list[i] for i in (0, 1234, 7199)]
        part = samples[100:4000:7]
        assert isinstance(part, SampleColumns)
        assert part == as_list[100:4000:7]
        assert samples + as_list[:1] == as_list + as_list[:1]
        assert as_list[:1] + samples == as_list[:1] + as_list
        with pytest.raises(IndexError):
            samples[7200]

    def test_read_only(self, real_trace):
        with pytest.raises(ValueError):
            real_trace.samples.fidelity[0] = 0.5
        with pytest.raises(AttributeError):
            real_trace.samples.fidelity = np.zeros(7200)

    def test_caller_arrays_stay_writable(self):
        time = np.arange(3.0)
        SampleColumns(time, [-1] * 3, [-1] * 3, [math.nan] * 3, [0.0] * 3)
        time[0] = -1.0

    def test_equality_with_unlinked_seconds(self, real_trace):
        assert real_trace == real_trace
        again = harness.run_trace(TWO_HOURS, ("Toronto", "DC"), 500e3)
        assert again == real_trace
        rebuilt = FidelityTrace(real_trace.pair, list(real_trace.samples), real_trace.horizon)
        assert rebuilt == real_trace
        small = make_samples([(None, 0.0), (0.9, 1.0), (None, 2.0)])
        assert FidelityTrace("x", small, 3.0) == FidelityTrace("x", small, 3.0)
        assert FidelityTrace("x", small, 3.0) != FidelityTrace("x", small[:2], 3.0)
        assert FidelityTrace("x", small, 3.0).samples == small

    def test_unlinked_bits_survive(self):
        samples = make_samples([(None, 5.0), (0.9, 1.0)])
        trace = FidelityTrace("x", samples, 2.0)
        assert trace.samples[0] == samples[0]
        assert trace.samples.bits.tolist() == [5.0, 1.0]


class TestCsvFromColumns:
    def test_no_numpy_reprs(self, real_trace, tmp_path):
        harness.emit_trace_csv(real_trace, tmp_path / "t.csv")
        harness.emit_plotdata(real_trace, tmp_path / "p.csv")
        assert "np." not in (tmp_path / "t.csv").read_text()
        assert "np." not in (tmp_path / "p.csv").read_text()

    def test_read_then_emit_is_byte_identical(self, real_trace, tmp_path):
        first, second = tmp_path / "one.csv", tmp_path / "two.csv"
        harness.emit_trace_csv(real_trace, first)
        back, _ = harness.read_trace_csv(first)
        harness.emit_trace_csv(back, second)
        assert first.read_bytes() == second.read_bytes()


# -- plot data per minute of simulation time ----------------------------------


def plotdata_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "minute,mean_fidelity,sifted_bits"
    return lines[1:]


def sixty_sample_windows(samples):
    """Plot rows as written when a "minute" was 60 consecutive samples."""
    rows = []
    for minute in range(math.ceil(len(samples) / 60)):
        window = samples[minute * 60 : (minute + 1) * 60]
        fids = [s.fidelity for s in window if s.fidelity is not None]
        bits = sum(s.sifted_bits for s in window)
        mean = f"{sum(fids) / len(fids):.6f}" if fids else ""
        rows.append(f"{minute},{mean},{bits!r}")
    return rows


def per_minute(samples):
    """Plot rows grouped by floor(time / 60), summed in time order."""
    groups = {}
    for s in samples:
        groups.setdefault(math.floor(s.time / 60), []).append(s)
    rows = []
    for minute, group in groups.items():
        fids = [s.fidelity for s in group if s.fidelity is not None]
        mean = f"{sum(fids) / len(fids):.6f}" if fids else ""
        rows.append(f"{minute},{mean},{sum(s.sifted_bits for s in group)!r}")
    return rows


class TestPlotdataMinutes:
    def test_one_second_steps_keep_sixty_sample_rows(self, real_trace, tmp_path):
        harness.emit_plotdata(real_trace, tmp_path / "p.csv")
        assert plotdata_rows(tmp_path / "p.csv") == sixty_sample_windows(list(real_trace.samples))

    @pytest.mark.parametrize("step", [0.5, 5.0, 7.0])
    def test_rows_follow_simulation_minutes(self, step, tmp_path):
        rng = np.random.default_rng(int(step * 10))
        n = math.ceil(600 / step)
        points = [
            (None if rng.random() < 0.3 else float(rng.uniform(0.25, 1.0)), float(rng.uniform(0, 1e4)))
            for _ in range(n)
        ]
        samples = make_samples(points, step)
        harness.emit_plotdata(FidelityTrace("x", samples, 600.0), tmp_path / "p.csv")
        rows = plotdata_rows(tmp_path / "p.csv")
        assert [r.split(",")[0] for r in rows] == [str(m) for m in range(10)]
        assert rows == per_minute(samples)

    def test_five_second_simulation(self, tmp_path):
        config = config_from_dict(
            {
                "altitudes_m": [500000.0],
                "pairs": [["Toronto", "DC"]],
                "horizon_s": 600.0,
                "time_step_s": 5.0,
            }
        )
        trace = harness.run_trace(config, ("Toronto", "DC"), 500e3)
        harness.emit_plotdata(trace, tmp_path / "p.csv")
        rows = plotdata_rows(tmp_path / "p.csv")
        assert len(rows) == 10
        assert rows == per_minute(list(trace.samples))

    def test_empty_trace(self, tmp_path):
        harness.emit_plotdata(FidelityTrace("x", [], 0.0), tmp_path / "p.csv")
        assert plotdata_rows(tmp_path / "p.csv") == []
