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
from unittest import mock

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


def read_both(path, block=None):
    """Both readers' results, or the line each one's ConfigError names.  With
    `block`, the bulk reader parses that many bytes of lines at a time, so
    that a small file crosses block boundaries."""
    block = block or harness._BLOCK
    out = []
    for reader in (harness.read_trace_csv, row_reader.read_trace_csv):
        try:
            with warnings.catch_warnings(), mock.patch.object(harness, "_BLOCK", block):
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
    """Valid data rows in runs of one kind, linked or unlinked, of 1 to 40
    rows each, so that files of one kind only and long runs of each occur;
    `.6f` and repr floats, fidelity on 0.25 and 1.0, integral times as
    integers."""
    runs = draw(st.lists(st.tuples(st.booleans(), st.integers(1, 40)), max_size=3))
    missing = min_rows - sum(length for _, length in runs)
    if missing > 0:
        runs.append((draw(st.booleans()), missing))
    time = draw(st.sampled_from([0.0, 99999.5, 1e6 - 1, 12.25]))
    rows = []
    for no_link in (kind for kind, length in runs for _ in range(length)):
        time_text = f"{time:.0f}" if time.is_integer() else _number(draw, time, ["repr", ".6f"])
        bits = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e9)))
        bits_text = _number(draw, bits, ["repr", ".6f", "g"])
        if no_link:
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


# the default block, or blocks of one line, a few lines and a few dozen
block_sizes = st.sampled_from([None, 1, 30, 200])


@settings(max_examples=100, deadline=None)
@given(drawn=trace_lines(), endings=line_endings, final=st.booleans(), block=block_sizes)
def test_valid_files_read_as_the_reference(tmp_path_factory, drawn, endings, final, block):
    lines, _ = drawn
    path = write(tmp_path_factory.mktemp("valid") / "t.csv", lines, endings, final)
    got, want = read_both(path, block)
    assert not isinstance(want, (int, str)), f"reference rejected line {want}"
    assert_same_trace(got, want)


# `# key=value` lines that break the metadata rules
_BAD_META = {
    "horizon_s": ["-1", "0", "-0.0", "", "abc", "nan", "inf", "1e400"],
    "pair": ["a,b", "a:b", "a/b", "a\\b", "x/../y", "", "a\x07b"],
}


def _corrupt(draw, lines, data):
    """Corrupt one data row, or put a bad metadata line in the header or
    among the rows; returns the new lines and the bad line's index."""
    index = draw(st.sampled_from(data))
    fields = lines[index].split(",")
    kind = draw(
        st.sampled_from(
            ["field", "drop", "extra", "blank", "no-link", "split", "time", "blank-middle", "five",
             *_BAD_META]
        )
    )
    lines = list(lines)
    if kind in _BAD_META:
        header = lines.index(harness.TRACE_COLUMNS)
        index = draw(st.sampled_from([*range(header + 1), *data]))
        lines.insert(index, f"# {kind}={draw(st.sampled_from(_BAD_META[kind]))}")
    elif kind == "field":
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
    elif kind == "blank-middle":  # `12, ,,,0.0` is neither an empty triple nor a link
        middle = ["", "", ""]
        middle[draw(st.integers(0, 2))] = draw(st.sampled_from([" ", "\t"]))
        lines[index] = ",".join([fields[0], *middle, fields[4]])
    elif kind == "five":  # `12,,,,,0.0`: five commas
        lines[index] = f"{fields[0]},,,,,{fields[4]}"
    else:
        previous = [i for i in data if i < index]
        fields[0] = lines[previous[-1]].split(",")[0] if previous else "-inf"
        lines[index] = ",".join(fields)
    return lines, index


@settings(max_examples=150, deadline=None)
@given(data=st.data(), endings=line_endings, final=st.booleans(), block=block_sizes)
@example(data=None, endings=["\n"], final=True, block=None)
def test_corrupted_files_fail_at_the_same_line(tmp_path_factory, data, endings, final, block):
    if data is None:  # the explicit `1,,,,` / `,,,,2` pair
        lines = [harness.TRACE_COLUMNS, "0,,,,1.0", "1,,,,", ",,,,2", "2,0,0,0.9,1.0"]
        index = 2
    else:
        lines, rows = data.draw(trace_lines(min_rows=2))
        lines, index = _corrupt(data.draw, lines, rows)
    path = write(tmp_path_factory.mktemp("bad") / "t.csv", lines, endings, final)
    got, want = read_both(path, block)
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


@pytest.mark.parametrize("block", [1, 10])
def test_blocks_join_up(tmp_path, block):
    """A block's first row must come after the previous block's last row,
    and a `#` line keeps its number after blocks that held `#` lines; both
    block sizes start a block at line 4."""
    lines = [harness.TRACE_COLUMNS, "0,,,,1", "1,0,0,0.9,1", "1,,,,1", "2,0,0,0.9,1"]
    got, want = read_both(write(tmp_path / "t.csv", lines, ["\n"]), block)
    assert got == want == 4
    lines = [harness.TRACE_COLUMNS, "# x=1", "0,,,,1", "# y=2", "1,0,0,0.9,1", "# horizon_s=-1"]
    path = write(tmp_path / "n.csv", lines, ["\n"])
    with mock.patch.object(harness, "_BLOCK", block):
        with pytest.raises(ConfigError, match="line 6: horizon_s"):
            harness.read_trace_csv(path)
    assert read_both(path, block) == [6, 6]


def test_rows_alternating_in_kind_read_as_the_reference(tmp_path):
    """20,000 rows whose kind alternates every row, the most runs a block can
    hold, with `#` lines among them and blocks of the default size."""
    lines = [harness.TRACE_COLUMNS]
    for t in range(20000):
        if t % 997 == 5:
            lines.append(f"# note{t}=,,,,")
        bits = repr(t * 0.75)
        if t % 2:
            lines.append(f"{t},{t % 40},{t % 7},{0.25 + t / 40000!r},{bits}")
        else:
            lines.append(f"{t},,,,{bits}")
    path = write(tmp_path / "t.csv", lines, ["\n"], final=False)
    assert path.stat().st_size > 2 * harness._BLOCK
    got, want = read_both(path)
    assert_same_trace(got, want)
    assert len(got[0].samples) == 20000


@pytest.mark.parametrize("pair", ["a,b", "a:b", "a/b", "a\\b", "x/../../escaped", "", "a\x07b"])
@pytest.mark.parametrize("among_rows", [False, True])
def test_bad_pair_exits_2_and_writes_nothing(tmp_path, capsys, pair, among_rows):
    """A `# pair=` that breaks the station-name rule (`-` allowed) is a
    config error naming its line, and `optimize`, which names its output
    file after the pair, writes nothing."""
    lines = [harness.TRACE_COLUMNS, "0,1,2,0.95,1000.0", "1,1,2,0.96,2000.0"]
    lines.insert(3 if among_rows else 0, f"# pair={pair}")
    trace = write(tmp_path / "t.csv", lines, ["\n"])
    config = tmp_path / "c.json"
    config.write_text(json.dumps(FAST_GRIDS))
    out = tmp_path / "out"
    (out / "optimize_x").mkdir(parents=True)  # lets `x/../../escaped` resolve
    argv = ["optimize", "--config", str(config), "--trace", str(trace), "--out", str(out)]
    assert cli.main(argv) == 2
    assert f"line {4 if among_rows else 1}: pair" in capsys.readouterr().err
    assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == sorted([config, trace])


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
