"""The bulk trace CSV reader against the row-by-row reference in `row_reader.py`.

On every file the reference accepts that is written in the reader's grammar
(ASCII decimal numbers, see `harness._parse_rows`), both readers must return
bit-identical columns (values, dtypes, NaN positions), `meta`, `pair` and
`horizon`.  On a corrupted file both must raise `ConfigError` naming the
same line.

The grammars differ on purpose in a few places, each pinned by
`test_documented_differences`:

- the bulk reader reads sat_ring and sat_slot as floats, so an integral
  float such as `3.0` or `3e0` is ring 3; the reference rejects it;
- the bulk reader strips the ASCII blanks `\\x1c`-`\\x1f` around a number,
  as it strips spaces and tabs; the reference rejects them;
- the reference accepts `_` digit separators and non-ASCII digits and
  blanks (Python's `int` and `float`); the bulk reader rejects them.

The writer side: `emit_trace_csv` writes time losslessly, so times past six
significant digits survive a round trip.
"""

import json
import locale
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import row_reader
from sample_lists import columns_of
from satqkd import cli, harness
from satqkd.channel import LinkSample
from satqkd.config import ConfigError
from satqkd.strategy import FidelityTrace
from test_harness import _BAD_FIELD, FAST_GRIDS, SMALL_CONFIG

ENDINGS = ["\n", "\r\n", "\r"]
ENCODING = locale.getpreferredencoding(False)


def read_both(path):
    """Both readers' results, or the line each one's ConfigError names."""
    out = []
    for reader in (harness.read_trace_csv, row_reader.read_trace_csv):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out.append(reader(path))
        except ConfigError as exc:
            match = re.search(r"line (\d+)", str(exc))
            out.append(int(match.group(1)) if match else str(exc))
    return out


def assert_same_trace(got, want):
    (trace, meta), (ref_trace, ref_meta) = got, want
    assert list(meta.items()) == list(ref_meta.items())
    assert trace.pair == ref_trace.pair
    assert trace.horizon == ref_trace.horizon and type(trace.horizon) is float
    for a, b in zip(trace.samples.columns(), ref_trace.samples.columns(), strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()  # values, NaN positions and NaN bits


def write(path, lines, endings, final=True):
    """Join `lines` with the given line endings (one per line, cycled).

    A blank line after a lone CR also ends with CR, so that the two never
    read as one CRLF.
    """
    text = ""
    for i, line in enumerate(lines):
        ending = endings[i % len(endings)]
        if not line and text.endswith("\r"):
            ending = "\r"
        text += line + (ending if final or i < len(lines) - 1 else "")
    path.write_bytes(text.encode(ENCODING))
    return path


def _number(draw, value, formats):
    fmt = draw(st.sampled_from(formats))
    return repr(value) if fmt == "repr" else format(value, fmt)


@st.composite
def trace_rows(draw, min_rows=0):
    """Valid data rows: linked and unlinked, `.6f` and repr floats, fidelity
    on 0.25 and 1.0, integral times as integers."""
    n = draw(st.integers(min_rows, 25))
    time = draw(st.sampled_from([0.0, 99999.5, 1e6 - 1, 12.25]))
    rows = []
    for _ in range(n):
        time_text = f"{time:.0f}" if time.is_integer() else _number(draw, time, ["repr", ".6f"])
        bits = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e9)))
        bits_text = _number(draw, bits, ["repr", ".6f", "g"])
        if draw(st.booleans()):
            rows.append(f"{time_text},,,,{bits_text}")
        else:
            ring, slot = draw(st.integers(0, 40)), draw(st.integers(0, 40))
            fid = draw(st.one_of(st.sampled_from([0.25, 1.0, 0.98]), st.floats(0.25, 1.0)))
            fid_text = _number(draw, fid, ["repr", ".6f"])
            rows.append(f"{time_text},{ring},{slot},{fid_text},{bits_text}")
        time += draw(st.sampled_from([0.5, 1.0, 0.001, 7.0, 1234.5]))
    return rows


@st.composite
def trace_lines(draw, min_rows=0):
    """(lines, data line indices): comments, header, rows with `#` lines
    scattered among them."""
    lines = []
    if draw(st.booleans()):
        lines.append("# pair=Zürich-Genève")
    if draw(st.booleans()):
        lines.append(f"# horizon_s={draw(st.sampled_from(['86400.0', '3', '1000001.0']))}")
    lines.append("# config_sha256=" + "ab" * 32)
    lines.append(harness.TRACE_COLUMNS)
    data = []
    for row in draw(trace_rows(min_rows)):
        if draw(st.integers(0, 6)) == 0:
            lines.append(draw(st.sampled_from(["# note=,,,,", "#", "# pair=c-d", "#x = 1 "])))
        data.append(len(lines))
        lines.append(row)
    if draw(st.booleans()):
        lines.append("# trailing=1")
    return lines, data


line_endings = st.lists(st.sampled_from(ENDINGS), min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(drawn=trace_lines(), endings=line_endings, final=st.booleans())
def test_valid_files_read_as_the_reference(tmp_path_factory, drawn, endings, final):
    lines, _ = drawn
    path = write(tmp_path_factory.mktemp("valid") / "t.csv", lines, endings, final)
    got, want = read_both(path)
    assert not isinstance(want, (int, str)), f"reference rejected line {want}"
    assert_same_trace(got, want)


def _corrupt(draw, lines, data):
    """Corrupt one data row; returns the new lines and the bad line's index."""
    index = draw(st.sampled_from(data))
    fields = lines[index].split(",")
    kind = draw(st.sampled_from(["field", "drop", "extra", "blank", "no-link", "split", "time"]))
    lines = list(lines)
    if kind == "field":
        column = draw(st.integers(0, 4))
        choices = _BAD_FIELD[column]
        if fields[1] == "" and column in (1, 2, 3):
            choices = [c for c in choices if c]  # "" keeps a no-link row valid
        fields[column] = draw(st.sampled_from(choices))
        lines[index] = ",".join(fields)
    elif kind == "drop":
        del fields[draw(st.integers(0, 4))]
        lines[index] = ",".join(fields)
    elif kind == "extra":
        fields.insert(draw(st.integers(1, 5)), draw(st.sampled_from(["", "7", "x", "0.5"])))
        lines[index] = ",".join(fields)
    elif kind == "blank":
        lines.insert(index, draw(st.sampled_from(["", " ", "\t"])))
    elif kind == "no-link":  # a literal -1,-1,nan is not an empty triple
        lines[index] = f"{fields[0]},-1,-1,nan,{fields[4]}"
    elif kind == "split":  # `1,,,,` then `,,,,2` must not merge into one row
        lines[index : index + 1] = [f"{fields[0]},,,,", f",,,,{fields[4]}"]
    else:
        previous = [i for i in data if i < index]
        fields[0] = lines[previous[-1]].split(",")[0] if previous else "-inf"
        lines[index] = ",".join(fields)
    return lines, index


@settings(max_examples=150, deadline=None)
@given(data=st.data(), endings=line_endings, final=st.booleans())
@example(data=None, endings=["\n"], final=True)
def test_corrupted_files_fail_at_the_same_line(tmp_path_factory, data, endings, final):
    if data is None:  # the explicit `1,,,,` / `,,,,2` pair
        lines = [harness.TRACE_COLUMNS, "0,,,,1.0", "1,,,,", ",,,,2", "2,0,0,0.9,1.0"]
        index = 2
    else:
        lines, rows = data.draw(trace_lines(min_rows=2))
        lines, index = _corrupt(data.draw, lines, rows)
    path = write(tmp_path_factory.mktemp("bad") / "t.csv", lines, endings, final)
    got, want = read_both(path)
    assert isinstance(want, int), "the reference accepted a corrupted file"
    assert got == want == index + 1


@pytest.mark.parametrize("ending", ENDINGS)
def test_header_only_files(tmp_path, ending):
    for lines in ([harness.TRACE_COLUMNS], ["# pair=a-b", harness.TRACE_COLUMNS, "# x=1"]):
        for final in (True, False):
            got, want = read_both(write(tmp_path / "t.csv", lines, [ending], final))
            assert_same_trace(got, want)
            assert len(got[0].samples) == 0 and got[0].horizon == 0.0


@pytest.mark.parametrize(
    "lines, bad",
    [
        ([harness.TRACE_COLUMNS, ""], 2),
        ([harness.TRACE_COLUMNS, "\n\n"], 2),
        ([harness.TRACE_COLUMNS, "0,1,2,0.9,1.0", "", "1,1,2,0.9,1.0"], 3),
        ([harness.TRACE_COLUMNS, "0,1,2,0.9,1.0", "1,1,2,0.9,1.0", ""], 4),
        ([harness.TRACE_COLUMNS, "0,,,,1", "1,,,,,,,,2"], 3),
        ([harness.TRACE_COLUMNS, "0,,,,1", "1,-1,-1,nan,1"], 3),
        ([harness.TRACE_COLUMNS, "0,,,,1", "1,5,-1,0.9,1"], 3),
        ([harness.TRACE_COLUMNS, "0,,,,1", "1,,,,1", "1,,,,1"], 4),
        ([harness.TRACE_COLUMNS, "0,,,,1", "1,,,,é"], 3),
        ([harness.TRACE_COLUMNS, "0,,,,1", "# x=,,,,", "1,0,0,0.9,"], 4),
    ],
)
def test_fixed_bad_files(tmp_path, lines, bad):
    got, want = read_both(write(tmp_path / "t.csv", lines, ["\n"]))
    assert got == want == bad


@pytest.mark.parametrize("junk", [b"\xa0", b"\x85", b"\xc2\xa0"])
def test_non_ascii_bytes_name_their_line(tmp_path, junk):
    """Bytes that latin-1 reads as blanks are not blanks (the reference
    fails to decode some of them at all)."""
    path = tmp_path / "t.csv"
    path.write_bytes(harness.TRACE_COLUMNS.encode() + b"\n0,,,,1\n1,,,,1" + junk + b"\n")
    with pytest.raises(ConfigError, match="line 3"):
        harness.read_trace_csv(path)


def test_documented_differences(tmp_path):
    """Where the two grammars differ, on purpose (see the module docstring)."""
    def rows(row):
        path = write(tmp_path / "t.csv", [harness.TRACE_COLUMNS, "0,,,,1", row], ["\n"])
        return read_both(path)

    for row in ["1,3.0,14,0.9,1", "1,3,1.4e1,0.9,1", "1,+3.,14,0.9,1", "1\x1c,3,14,0.9,1"]:
        got, want = rows(row)
        assert want == 3, "the reference rejects it"
        assert got[0].samples[1].sat == (3, 14) and got[0].samples[1].time == 1.0
    for row in ["1_0,3,14,0.9,1", "1,1_0,14,0.9,1", "1,٣,14,0.9,1", "1\xa0,3,14,0.9,1"]:
        got, want = rows(row)
        assert got == 3, "the bulk reader rejects it"
        assert not isinstance(want, (int, str))
    got, want = rows(f"1,{2**53},0,0.9,1")
    assert got == 3 and want[0].samples[1].sat == (2**53, 0)
    # the row-by-row search for the bad line strips the same blanks
    path = write(tmp_path / "t.csv", [harness.TRACE_COLUMNS, "0\x1c,,,,1", "1,,,,x"], ["\n"])
    assert read_both(path) == [3, 2]


@pytest.mark.parametrize(
    "times",
    [
        [99999.5, 100000.0, 100000.5, 1e6, 1e6 + 1],
        [0.0, 1.0, 999999.0, 1e6, 1e6 + 1, 2e9],
        [-0.0, 0.1, 1 / 3, 12345.678901234],
        [-0.0, 1.0],
        [1e20, 1e20 + 2**14],
    ],
)
def test_times_round_trip_exactly(tmp_path, times):
    samples = [
        LinkSample(time=t, fidelity=0.9, sifted_bits=1.5, sat=(1, 2)) if i % 2 else
        LinkSample(time=t, fidelity=None, sifted_bits=0.0, sat=None)
        for i, t in enumerate(times)
    ]
    path = tmp_path / "t.csv"
    harness.emit_trace_csv(FidelityTrace("a-b", columns_of(samples), 1.0), path)
    back, _ = harness.read_trace_csv(path)
    assert back.samples.time.tobytes() == np.array(times).tobytes()


def test_integral_times_keep_their_bytes(tmp_path):
    """Below 1e6 an integral time is written as `:g` wrote it."""
    times = [0.0, 1.0, 59.0, 86399.0, 99999.0, 100000.0, 999999.0]
    samples = [LinkSample(time=t, fidelity=None, sifted_bits=0.0, sat=None) for t in times]
    path = tmp_path / "t.csv"
    harness.emit_trace_csv(FidelityTrace("a-b", columns_of(samples), 1.0), path)
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")][1:]
    assert [row.split(",")[0] for row in rows] == [f"{t:g}" for t in times]


def test_half_second_trace_past_1e5_s_reads_back(tmp_path):
    """`simulate` then `compare` at half-second steps past 1e5 s, where `:g`
    once wrote 100000.5 as 100000, a time equal to the one before it."""
    config = tmp_path / "c.json"
    doc = {**SMALL_CONFIG, **FAST_GRIDS, "horizon_s": 100800.0, "time_step_s": 0.5}
    config.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
    path = tmp_path / "trace_Toronto-DC_500000.csv"
    back, _ = harness.read_trace_csv(path)
    assert back.samples.time.tobytes() == (np.arange(201600) * 0.5).tobytes()
    assert cli.main(["compare", "--config", str(config), "--trace", str(path)]) == 0
