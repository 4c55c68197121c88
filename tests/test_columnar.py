"""The columnar sample block: clean-file parsing, merging, vector attribution.

The row-by-row stats parser and the per-sample attribution loop are the
references here: the block paths must return exactly what they return.
"""

import csv
import io
import os
import random
import signal
import tempfile
import threading
import time
from bisect import bisect_right
from contextlib import ExitStack
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    BASE_DAY,
    block_rows,
    fs_blocks,
    mk_block,
    mk_counters,
    mk_job,
    mk_sample,
    one_block,
    parse_stats_rows,
    partitions,
    read_samples,
    result_dicts,
    serialize_stats_csv,
    stats_stream,
)
from lassi import ingest, model
from lassi.attribution import (
    AttributionConfig,
    aggregate_hourly,
    attribute,
    fs_hourly_totals,
    node_index,
)
from lassi.errors import IngestError, LassiError, StoreError
from lassi.ingest import STATS_HEADER, parse_stats_csv
from lassi.model import INT64_MAX, SampleBlock
from lassi.pipeline import _merge_samples, ingest_files
from lassi.store import Partition, Store
from lassi.timeutil import DAY, HOUR, format_utc, parse_utc

HEADER = ",".join(STATS_HEADER)
# the first byte of a stats body, after the header line
BODY = len(HEADER) + 1
T0 = "2017-10-09T00:00:00Z"
T1 = "2017-10-09T00:03:00Z"


def row(ts=T0, fs="fs2", node="nid1", counters=("1",) * 21):
    return ",".join((ts, fs, node) + tuple(counters))


def text_of(*rows, end="\n"):
    return end.join((HEADER,) + rows) + end


def row_loop(text, mode, window_len=180):
    """What the row loop alone returns for the whole text."""
    return parse_stats_rows(text, mode, window_len)


def spilled(source, mode="strict", window_len=180):
    """parse_stats_csv through spill files of its caller's, each partition
    read back as its block."""
    with ExitStack() as files:
        parsed, report = parse_stats_csv(
            source, mode, window_len, lambda: files.enter_context(tempfile.TemporaryFile())
        )
        return {key: parsed.partition(*key).block() for key in sorted(parsed.partitions)}, report


def outcome(fn, *args):
    try:
        return fn(*args)
    except IngestError as exc:
        return ("IngestError", exc.line, exc.reason)


# range bytes: as shipped, a byte a read, and a few lines a range
SPLITS = [ingest._RANGE_BYTES, 1, 300]


def assert_agrees(text, window_len=180):
    """parse_stats_csv, without a spill or through one, equals the
    whole-text row loop in both modes, at every range size."""
    for range_bytes in SPLITS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_RANGE_BYTES", range_bytes)
            for mode in ("strict", "lenient"):
                want = outcome(row_loop, text, mode, window_len)
                for parse in (parse_stats_csv, spilled):
                    got = outcome(parse, stats_stream(text), mode, window_len)
                    assert got == want, (range_bytes, mode, parse.__name__, text)


# --- timestamps are exact -------------------------------------------------


def test_parse_utc_rejects_single_digit_fields():
    with pytest.raises(ValueError):
        parse_utc("2017-10-9T1:2:3Z")
    assert parse_utc("2017-10-09T01:02:03Z") == 1507510923


def test_single_digit_timestamp_is_a_line_numbered_reject():
    text = text_of(row(), row(ts="2017-10-9T0:3:0Z"))
    with pytest.raises(IngestError) as err:
        parse_stats_csv(stats_stream(text))
    assert err.value.line == 3
    assert "bad timestamp" in err.value.reason

    parsed, report = parse_stats_csv(stats_stream(text), mode="lenient")
    assert len(one_block(parsed)) == 1
    assert report.rejected_reasons == ((3, "bad timestamp '2017-10-9T0:3:0Z'"),)


# --- int64 guard ----------------------------------------------------------


@pytest.mark.parametrize("big", [str(2**63), str(10**30)])
def test_counter_above_int64_is_a_line_numbered_reject(big):
    text = text_of(row(), row(ts=T1, counters=(big,) + ("0",) * 20))
    with pytest.raises(IngestError) as err:
        parse_stats_csv(stats_stream(text))
    assert (err.value.line, err.value.reason) == (3, "counter exceeds int64 range")

    parsed, report = parse_stats_csv(stats_stream(text), mode="lenient")
    assert len(one_block(parsed)) == 1
    assert report.rejected_reasons == ((3, "counter exceeds int64 range"),)


def test_int64_max_counter_is_exact():
    text = text_of(row(counters=(str(INT64_MAX),) + ("0",) * 20))
    parsed, report = parse_stats_csv(stats_stream(text))
    assert one_block(parsed).counters.tolist() == [list(mk_counters(read_kb=INT64_MAX))]
    assert report.rows_rejected == 0


def test_rollups_refuse_sums_that_could_overflow():
    big = 2**62
    rows = [
        mk_sample("fs2", "nid1", BASE_DAY, read_kb=big),
        mk_sample("fs2", "nid2", BASE_DAY, read_kb=big),
    ]
    samples, first = mk_block(rows), mk_block(rows[:1])
    job = mk_job("app1", ["nid1", "nid2"], BASE_DAY, BASE_DAY + HOUR)
    with pytest.raises(LassiError, match="int64"):
        attribute(samples, [job])
    with pytest.raises(LassiError, match="int64"):
        fs_hourly_totals(samples, attribute(first, [job]))
    # one such sample alone cannot overflow
    attributed, _ = result_dicts(attribute(first, [job]))
    assert attributed[("app1", "fs2", BASE_DAY)][0] == big


# --- clean path agrees with the row loop -----------------------------------

TOKENS = [" 5", "+5", "5_0", "٣", "1e3", "5.0", str(2**63), "-3", "007", ""]


@pytest.mark.parametrize("token", TOKENS)
def test_counter_tokens_agree(token):
    text = text_of(row(), row(ts=T1, counters=(token,) + ("2",) * 20))
    assert_agrees(text)


def _shapes():
    good = [row(), row(ts=T1), row(node="nid2")]
    return {
        "canonical": text_of(*good),
        "unsorted": text_of(*reversed(good)),
        "no final newline": text_of(*good)[:-1],
        "quoted field": text_of(good[0], row(ts=T1, node='"nid1"')),
        "quoted comma": text_of(good[0], row(ts=T1, node='"n,1"')),
        "crlf": text_of(*good, end="\r\n"),
        "cr in line": text_of(good[0], row(ts=T1) + "\r" + good[2]),
        "not utf-8": text_of(good[0], row(ts=T1, node="n\udcff")),
        "hash in id": text_of(good[0], row(ts=T1, node="nid#1")),
        "blank line": text_of(good[0], "", good[1]),
        "blank last line": text_of(*good) + "\n",
        "space line": text_of(good[0], " ", good[1]),
        "duplicate key": text_of(good[0], good[1], row(counters=("7",) * 21)),
        "identical duplicate": text_of(good[0], good[1], good[0]),
        "off grid": text_of(good[0], row(ts="2017-10-09T00:01:00Z")),
        "negative": text_of(good[0], row(ts=T1, counters=("-1",) + ("0",) * 20)),
        "short row": text_of(good[0], "2017-10-09T00:03:00Z,fs2,nid1,1,2"),
        "long row": text_of(good[0], row(ts=T1) + ",9"),
        "empty id": text_of(good[0], row(ts=T1, fs="")),
        "space in id": text_of(good[0], row(ts=T1, fs=" fs2")),
        "nul in id": text_of(good[0], row(ts=T1, node="n\x00")),
        "single-digit time": text_of(good[0], row(ts="2017-10-9T0:3:0Z")),
        "header only": HEADER + "\n",
        "header without newline": HEADER,
        "empty": "",
        "bad header": "window_start,fs\n" + good[0] + "\n",
    }


@pytest.mark.parametrize("shape", sorted(_shapes()))
def test_file_shapes_agree(shape):
    assert_agrees(_shapes()[shape])


def test_a_cell_past_the_csv_field_limit_is_a_cell_like_any_other():
    """A stats line is not CSV, so the csv module's cell limit does not
    hold for it; a quoted line beside the long one is a reject of its own."""
    long_id = "n" * (csv.field_size_limit() + 1)
    plain = text_of(row(node=long_id), row())
    quoted = text_of(row(node=long_id), row(node='"nid1"'))
    for text in (plain, quoted):
        assert_agrees(text)
    parsed, report = parse_stats_csv(stats_stream(plain))
    assert one_block(parsed).node_labels == ("nid1", long_id)
    assert report.rows_rejected == 0
    parsed, report = parse_stats_csv(stats_stream(quoted), "lenient")
    assert one_block(parsed).node_labels == (long_id,)
    assert report.rejected_reasons == ((3, "line holds '\"'"),)


def looped_lines(monkeypatch) -> list:
    """Spy on the row loop for one test; the list gets each line number it is given."""
    seen = []
    real = ingest._StatsRows.row_loop

    def spy(self, rows):
        rows = list(rows)
        seen.extend(line for line, _ in rows)
        real(self, rows)

    monkeypatch.setattr(ingest._StatsRows, "row_loop", spy)
    return seen


# shapes read column-wise whole or refused at the header (a CRLF file's
# header ends in "cdr\r"), and those with one bad row, which alone goes
# through the row loop
CLEAN_SHAPES = {
    "canonical",
    "unsorted",
    "no final newline",
    "hash in id",
    "duplicate key",
    "identical duplicate",
    "header only",
    "header without newline",
    "empty",
    "bad header",
    "crlf",
}
ONE_BAD_ROW = {
    "off grid",
    "negative",
    "empty id",
    "single-digit time",
    "quoted field",
    "quoted comma",
    "cr in line",
    "nul in id",
    "not utf-8",
}


def test_clean_path_takes_canonical_files_only(monkeypatch):
    seen = looped_lines(monkeypatch)
    for name, text in _shapes().items():
        seen.clear()
        outcome(parse_stats_csv, stats_stream(text), "lenient")
        if name in CLEAN_SHAPES:
            assert seen == [], name
        elif name in ONE_BAD_ROW:
            assert seen == [3], name
        else:
            assert seen, name
    seen.clear()
    with pytest.raises(ValueError, match="window_len 7 must divide 3600"):
        parse_stats_csv(stats_stream(_shapes()["canonical"]), "lenient", 7)
    assert seen == []


ts_tokens = st.sampled_from(
    [T0, T1, "2017-10-09T00:06:00Z", "2017-10-09T00:01:00Z", "2017-10-9T0:3:0Z", "nope"]
)
id_tokens = st.sampled_from(
    ["fs1", "fs2", "nid1", "n,1", 'n"1', "a#b", "", " x", "é", "a\x0cb", "\x85", "n\u2028"]
    + ["n\udcff"]
)
counter_tokens = st.one_of(
    st.integers(0, 10**6).map(str),
    st.integers(0, 10**6).map(str),
    st.sampled_from(TOKENS + [str(INT64_MAX), "\x0c5", "5\u2028"]),
)
rows_st = st.lists(
    st.tuples(ts_tokens, id_tokens, id_tokens, st.lists(counter_tokens, min_size=21, max_size=21)),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(rows=rows_st, quoted=st.booleans(), crlf=st.booleans(), dup=st.booleans())
def test_clean_path_agrees_with_row_loop(rows, quoted, crlf, dup):
    lines = [[ts, fs, node, *vals] for ts, fs, node, vals in rows]
    if dup and lines:
        lines.append(list(lines[0]))
    if quoted:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n" if crlf else "\n").writerows(
            [list(STATS_HEADER)] + lines
        )
        text = buf.getvalue()
    else:
        text = text_of(*(",".join(line) for line in lines), end="\r\n" if crlf else "\n")
    assert_agrees(text)
    if crlf:
        # refused at the header, whose last cell holds the CR
        with pytest.raises(IngestError, match=r"^line 1: bad header .*'cdr\\r'\]"):
            parse_stats_csv(stats_stream(text), "lenient")
        return
    _, report = parse_stats_csv(stats_stream(text), "lenient")
    reasons = dict(report.rejected_reasons)
    for line_no, line in enumerate(text.split("\n"), 1):
        bad = [c for c in line if c in '"\udcff']
        if bad:
            assert reasons[line_no] == ("not UTF-8" if bad[0] == "\udcff" else "line holds '\"'")


def dirty_lines(seed: int, every: int | None, n: int = 3000) -> list[str]:
    """About n stats lines over 20 nodes of one filesystem, with earlier
    rows repeated 1,000 lines on, half of them with a changed counter; and
    given every, a bad row after every every-th line, cycling through the
    benchmark's re-delivery defects (negative counter, off-grid timestamp,
    short row, "x.5" counter), and a blank line after every 4 * every-th."""
    rng = random.Random(seed)
    lines = []
    for i in range(n):
        stamp = format_utc(BASE_DAY + (i // 20) * 180)
        counters = [str(rng.randrange(10**6)) for _ in range(21)]
        lines.append(",".join([stamp, "fs1", f"nid{i % 20:03d}", *counters]))
    out = []
    for i, line in enumerate(lines):
        out.append(line)
        if i >= 1000 and i % 89 == 0:
            cells = lines[i - 1000].split(",")
            if i % 2:
                cells[3 + i % 21] = str(int(cells[3 + i % 21]) + 1)
            out.append(",".join(cells))
        if every and i % every == 0:
            cells = line.split(",")
            kind = i // every % 4
            if kind == 0:
                cells[5] = "-" + cells[5]
            elif kind == 1:
                cells[0] = format_utc(parse_utc(cells[0]) + 60)
            elif kind == 2:
                cells = cells[: 3 + i % 21]
            else:
                cells[7] += ".5"
            out.append(",".join(cells))
        if every and i % (4 * every) == 1:
            out.append("")
    return out


@pytest.mark.parametrize("range_bytes", [ingest._RANGE_BYTES, 4096])
@pytest.mark.parametrize("every", [None, 97, 331])
def test_dirty_file_agrees_with_row_loop(monkeypatch, range_bytes, every):
    monkeypatch.setattr(ingest, "_RANGE_BYTES", range_bytes)
    text = text_of(*dirty_lines(11, every))
    for mode in ("strict", "lenient"):
        got = outcome(parse_stats_csv, stats_stream(text), mode)
        want = outcome(row_loop, text, mode)
        assert got == want, mode
    parsed, report = got
    assert report.rows_read > len(one_block(parsed)) > 2900
    kinds = {"negative", "window_start", "expected", "non-integer"} if every else set()
    assert {reason.split(" ")[0] for _, reason in report.rejected_reasons} == kinds | {"duplicate"}


def test_row_loop_sees_only_bad_and_blank_lines(monkeypatch):
    monkeypatch.setattr(ingest, "_RANGE_BYTES", 4096)  # about 27 lines
    text = text_of(*dirty_lines(11, every=331))
    seen = looped_lines(monkeypatch)
    _, report = parse_stats_csv(stats_stream(text), "lenient")
    bad_rows = [line for line, why in report.rejected_reasons if not why.startswith("duplicate")]
    blank_lines = [i for i, line in enumerate(text.split("\n")[:-1], 1) if not line]
    assert (len(bad_rows), len(blank_lines)) == (10, 3)
    assert sorted(seen) == sorted(bad_rows + blank_lines)


@pytest.mark.parametrize("cells", [23, 25])
def test_a_line_of_22_or_24_commas_goes_to_the_row_loop(monkeypatch, cells):
    """np.loadtxt refuses a range holding a line of the wrong cell count, so
    that line alone goes through the row loop and is rejected there."""
    cut = row(ts=T1).split(",")
    wrong = ",".join(cut[:cells] + ["1"] * (cells - len(cut)))
    assert wrong.count(",") == cells - 1
    text = text_of(row(), wrong, row(node="nid2"))
    assert_agrees(text)
    seen = looped_lines(monkeypatch)
    parsed, report = parse_stats_csv(stats_stream(text), "lenient")
    assert seen == [3]
    assert report.rejected_reasons == ((3, f"expected 24 columns, got {cells}"),)
    assert len(one_block(parsed)) == 2


@pytest.mark.parametrize("where", ["last range", "middle range"])
@pytest.mark.parametrize("special", ['"', "\r"])
def test_a_late_quote_or_cr_is_a_reject_on_its_own_line(monkeypatch, where, special):
    """A line holding a quote or CR is a bad row like any other: it alone
    goes through the row loop, and the lines after it are read column-wise
    as before; the answer is the whole-file row loop's."""
    monkeypatch.setattr(ingest, "_RANGE_BYTES", 4096)  # about 27 lines
    lines = dirty_lines(7, every=None)
    at = len(lines) if where == "last range" else len(lines) // 2
    late = row(ts=T1, node='"nid,9"') if special == '"' else row(ts=T1, node="nid9") + "\r"
    text = text_of(*lines[:at], late, *lines[at:])
    for mode in ("strict", "lenient"):
        want = outcome(row_loop, text, mode)
        assert outcome(parse_stats_csv, stats_stream(text), mode) == want, mode
        assert outcome(spilled, stats_stream(text), mode) == want, mode
    late_line = at + 2
    seen = looped_lines(monkeypatch)
    _, report = parse_stats_csv(stats_stream(text), "lenient")
    assert seen == [late_line]
    bad = [r for r in report.rejected_reasons if not r[1].startswith("duplicate ")]
    assert bad == [(late_line, f"line holds {special!r}")]


def test_far_apart_duplicates_resolve_as_the_row_loop_does(monkeypatch):
    """Lenient duplicates of one key many ranges apart give the whole-file
    row loop's blocks and report, without a spill or through one."""
    monkeypatch.setattr(ingest, "_RANGE_BYTES", 4096)
    lines = dirty_lines(3, every=None)
    cells = lines[10].split(",")
    again = [",".join(cells[:5] + [str(k)] + cells[6:]) for k in (7, 8, 9)]
    text = text_of(*lines[:1000], again[0], *lines[1000:2000], again[1], *lines[2000:], again[2])
    want = row_loop(text, "lenient")
    assert parse_stats_csv(stats_stream(text), "lenient") == want
    assert spilled(stats_stream(text), "lenient") == want
    reasons = dict(want[1].rejected_reasons)
    first, second, third = 1002, 2003, len(lines) + 4
    assert reasons[12] == f"duplicate (fs, node, window) superseded by line {first}"
    assert reasons[first] == f"duplicate (fs, node, window) superseded by line {second}"
    assert reasons[second] == f"duplicate (fs, node, window) superseded by line {third}"
    with pytest.raises(IngestError) as err:
        spilled(stats_stream(text))
    assert outcome(row_loop, text, "strict") == ("IngestError", err.value.line, err.value.reason)


def test_int64_max_counter_in_a_failing_range_is_exact(monkeypatch):
    """A 19-digit counter is past the screen's 18 digits, so its row goes
    through the row loop with the short row beside it, and keeps its value."""
    big = row(ts=T1, counters=(str(INT64_MAX),) + ("0",) * 20)
    text = text_of(row(), "2017-10-09T00:06:00Z,fs2,nid1,1,2", big, row(node="nid2"))
    assert_agrees(text)
    seen = looped_lines(monkeypatch)
    parsed, report = parse_stats_csv(stats_stream(text), "lenient")
    assert sorted(seen) == [3, 4]
    assert report.rejected_reasons == ((3, "expected 24 columns, got 5"),)
    assert one_block(parsed).counters[:, 0].tolist() == [1, 1, INT64_MAX]
    with pytest.raises(IngestError) as err:
        parse_stats_csv(stats_stream(text))
    assert err.value.line == 3


class CountedReads(io.BytesIO):
    """A binary stream of stats text that counts the reads made of it and
    the bytes they return."""

    reads = 0
    bytes_read = 0

    def __init__(self, text):
        super().__init__(text.encode("utf-8", "surrogateescape"))

    def read(self, size=-1):
        return self._counted(super().read(size))

    def readline(self, size=-1):
        return self._counted(super().readline(size))

    def _counted(self, data):
        self.reads += 1
        self.bytes_read += len(data)
        return data


def test_a_strict_parse_reads_no_range_after_a_bad_row(monkeypatch):
    """The short row is in the second of about 140 ranges: a strict parse
    raises after two reads of ranges (and the probe read(0) and the header's
    readline), a lenient one reads to the end."""
    monkeypatch.setattr(ingest, "_RANGE_BYTES", 4096)  # about 22 lines
    lines = dirty_lines(7, every=None)
    lines.insert(30, "2017-10-09T00:03:00Z,fs1,nid1,1,2")
    text = text_of(*lines)
    stream = CountedReads(text)
    with pytest.raises(IngestError) as err:
        parse_stats_csv(stream)
    assert (err.value.line, err.value.reason) == (32, "expected 24 columns, got 5")
    assert stream.reads == 4
    stream = CountedReads(text)
    parse_stats_csv(stream, "lenient")
    assert stream.reads > len(text) // 4096


@pytest.mark.parametrize("mode", ["strict", "lenient"])
def test_a_file_with_no_lf_near_its_start_is_refused_after_one_header_read(tmp_path, mode):
    """A file of 3 MiB with CR line endings is one line: the header read
    stops at _HEADER_BYTES, and the error, the same by path, quotes none of
    the file."""
    text = text_of(*dirty_lines(5, every=None, n=20000), end="\r")
    assert "\n" not in text and len(text) > 3 << 20
    stream = CountedReads(text)
    with pytest.raises(IngestError) as err:
        parse_stats_csv(stream, mode)
    assert err.value.line == 1
    assert str(err.value) == f"line 1: bad header: no LF in its first {ingest._HEADER_BYTES} bytes"
    assert len(str(err.value)) < 8 << 10
    assert stream.bytes_read <= ingest._HEADER_BYTES
    path = tmp_path / "stats.csv"
    path.write_bytes(stream.getvalue())
    with pytest.raises(IngestError) as by_path:
        parse_stats_csv(path, mode)
    assert str(by_path.value) == str(err.value)


# --- a file parsed in spans by forked workers -----------------------------


def split_in(mp, path, spans):
    """Make a parse of path split it into this many spans, or fewer where a
    long line takes in a split point (see ingest._stats_spans)."""
    mp.setattr(ingest, "_usable_cpus", lambda: spans)
    mp.setattr(ingest, "_SPAN_BYTES", max(1, os.path.getsize(path) // spans))


def no_children():
    """Whether this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class NoWorker:
    def __init__(self, *args):
        raise AssertionError("a worker was forked")


# a window offset from BASE_DAY, ids, a counter value and a defect: the
# re-delivery defects, an empty id, a blank line, a quoted, a CR-ended or a
# not UTF-8 line, a non-ASCII node id, or a long node id, which takes in any
# split point that falls in its line
span_rows = st.lists(
    st.tuples(
        st.sampled_from([0, 180, 360, DAY, DAY + 180]),
        st.sampled_from(["fs1", "fs2", "fs3"]),
        st.sampled_from([f"nid{i}" for i in range(5)]),
        st.integers(0, 9),
        st.sampled_from(
            [None] * 6
            + ["negative", "off grid", "short", "x.5", "bad time", "empty", "blank", "long"]
            + ["quoted", "cr", "not utf-8", "é"]
        ),
    ),
    min_size=1,
    max_size=30,
)


def span_line(offset, fs, node, value, defect=None):
    cells = [format_utc(BASE_DAY + offset), fs, node] + [str(value)] * 21
    if defect == "negative":
        cells[4] = "-1"
    elif defect == "off grid":
        cells[0] = format_utc(BASE_DAY + offset + 60)
    elif defect == "short":
        cells = cells[:5]
    elif defect == "x.5":
        cells[7] += ".5"
    elif defect == "bad time":
        cells[0] = "2017-10-9T0:3:0Z"
    elif defect == "empty":
        cells[1] = ""
    elif defect == "blank":
        return ""
    elif defect == "long":
        cells[2] = "n" * 150
    elif defect == "quoted":
        cells[2] = f'"{node}"'
    elif defect == "cr":
        cells[-1] += "\r"
    elif defect == "not utf-8":
        cells[2] += "\udcff"
    elif defect == "é":
        cells[2] += "é"
    return ",".join(cells)


@settings(max_examples=60, deadline=None)
@given(
    rows=span_rows,
    spans=st.sampled_from([2, 3]),
    again=st.lists(st.integers(0, 29), max_size=3),
    late=st.booleans(),
    final_lf=st.booleans(),
)
def test_a_file_in_spans_agrees_with_the_row_loop(rows, spans, again, late, final_lf):
    """Keys repeated across spans (again), ids first seen in a later span
    (late), bad rows in any span, split points at any line: the forked
    parse gives the whole-file row loop's blocks, report and strict error."""
    body = [span_line(*r) for r in rows]
    body += [span_line(*rows[i % len(rows)][:3], 7) for i in again]
    if late:
        body.append(span_line(DAY, "fs9", "nid9", 1))
    text = text_of(*body)
    if not final_lf:
        text = text[:-1]
    data = text.encode("utf-8", "surrogateescape")
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "stats.csv"
        path.write_bytes(data)
        split_in(mp, path, spans)
        layout = ingest._stats_spans(path, BODY)
        assume(len(layout) > 1)
        assert (layout[0][0], layout[-1][1]) == (BODY, len(data))
        assert all(a[1] == b[0] and data[b[0] - 1] == 10 for a, b in zip(layout, layout[1:]))
        firsts = [data.count(b"\n", 0, a) + 1 for a, _, _ in layout]
        assert [line for _, _, line in layout] == firsts
        for mode in ("strict", "lenient"):
            want = outcome(row_loop, text, mode)
            assert outcome(parse_stats_csv, path, mode) == want, mode
            assert outcome(spilled, path, mode) == want, mode
    assert no_children()


def test_a_span_may_be_the_last_line_alone(tmp_path, monkeypatch):
    """The middle of the file falls in the long second-to-last line, so the
    second span is the last line: the first row's key with other counters."""
    body = [row(), row(ts=T1, node="n" * 800), row(counters=("7",) * 21)]
    text = text_of(*body)
    path = tmp_path / "stats.csv"
    path.write_bytes(text.encode())
    split_in(monkeypatch, path, 2)
    last = len(text) - len(body[-1]) - 1
    assert ingest._stats_spans(path, BODY) == [(BODY, last, 2), (last, len(text), 4)]
    for mode in ("strict", "lenient"):
        assert outcome(parse_stats_csv, path, mode) == outcome(row_loop, text, mode), mode
    with pytest.raises(IngestError, match="^line 4: duplicate sample for"):
        parse_stats_csv(path)


@pytest.mark.parametrize("first", ["not utf-8", "quoted"])
def test_a_bad_utf8_or_quoted_line_is_a_reject_on_its_own_line_and_the_file_still_splits(
    tmp_path, monkeypatch, first
):
    """A file of two _SPAN_BYTES or more, with a line of bytes that are not
    UTF-8 in one span and a quoted line in the other, among lines with a
    non-ASCII id, is parsed in two spans: exactly those two lines are
    rejected, with their line numbers, as the whole read and the row loop
    reject them."""
    lines = [
        ",".join([format_utc(BASE_DAY + i // 20 * 180), "fs1", f"nid{i % 20:02d}é"] + [str(i)] * 21)
        for i in range(2 * ingest._SPAN_BYTES // 100)
    ]
    odd = {"not utf-8": (b"\xff", "not UTF-8"), "quoted": (b'"', "line holds '\"'")}
    (second,) = set(odd) - {first}
    early, late = len(lines) // 5, len(lines) * 4 // 5
    rejects = ((early, odd[first][1]), (late, odd[second][1]))
    data = bytearray(text_of(*lines).encode())
    for line_no, kind in ((late, second), (early, first)):
        # the end of file line line_no, which holds lines[line_no - 2]
        cut = data.index(b"\n", data.index(f"é,{line_no - 2},".encode()))
        data[cut:cut] = odd[kind][0]
    path = tmp_path / "stats.csv"
    path.write_bytes(data)
    monkeypatch.setattr(ingest, "_usable_cpus", lambda: 2)
    spans = ingest._stats_spans(path, BODY)
    assert len(data) >= 2 * ingest._SPAN_BYTES and len(spans) == 2
    assert spans[0][2] <= early < spans[1][2] <= late

    _, report = parse_stats_csv(path, "lenient")
    assert report.rejected_reasons == rejects
    assert report.rows_accepted == len(lines) - 2
    with pytest.raises(IngestError) as err:
        parse_stats_csv(path)
    assert (err.value.line, err.value.reason) == rejects[0]

    text = data.decode("utf-8", "surrogateescape")
    for mode in ("strict", "lenient"):
        split = outcome(parse_stats_csv, path, mode)
        assert split == outcome(row_loop, text, mode), mode
        assert outcome(spilled, path, mode) == split, mode
        with pytest.MonkeyPatch.context() as mp, open(path, "rb") as stream:
            mp.setattr(ingest, "_Worker", NoWorker)
            assert outcome(parse_stats_csv, stream, mode) == split, mode
    assert no_children()


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from([0, 180, 360, 540, DAY]),
            st.sampled_from(["fs1", "fs2"]),
            st.sampled_from(["nid7", "nid3", "nid12", "nid0", "nid5"]),
            st.integers(0, 9),
        ),
        min_size=1,
        max_size=60,
    ),
    spans=st.sampled_from([1, 2, 3]),
    reverse=st.booleans(),
    read_rows=st.sampled_from([1, 7, model._READ_ROWS]),
    data=st.data(),
)
def test_a_spilled_partition_reads_its_counters_from_the_spill(
    rows, spans, reverse, read_rows, data
):
    """SpilledStats.partition holds a partition's keys and reads its
    counters from the spill, a few rows a read: in files parsed in spans,
    whose node codes are remapped onto the first span's, with keys repeated
    (lenient mode keeps each one's last line), in drawn or reversed line
    order. The partitions read whole (block()) are the rows' string-keyed
    reference. Each partition is also written to a store and reopened
    (Store.open_samples); on both forms, the one file reader's counter_rows
    of any ascending rows, counter_chunks and block(lo, hi) of any range are
    the held block's."""
    body = [span_line(offset, fs, node, value) for offset, fs, node, value in rows]
    if reverse:
        body.reverse()
    want = {}
    for line in body:
        cells = line.split(",")
        want[cells[1], cells[2], parse_utc(cells[0])] = tuple(map(int, cells[3:]))
    text = text_of(*body)
    with ExitStack() as files, pytest.MonkeyPatch.context() as mp:
        tmp = Path(files.enter_context(tempfile.TemporaryDirectory()))
        path = tmp / "stats.csv"
        path.write_bytes(text.encode())
        if spans > 1:
            split_in(mp, path, spans)
        mp.setattr(model, "_READ_ROWS", read_rows)
        spilled, report = parse_stats_csv(
            path, "lenient", 180, lambda: files.enter_context(tempfile.TemporaryFile())
        )
        assert report.rows_accepted == len(want)
        blocks = {key: spilled.partition(*key).block() for key in sorted(spilled.partitions)}
        got = [row for block in blocks.values() for row in block_rows(block)]
        assert got == sorted(
            ((*key, counters) for key, counters in want.items()), key=lambda r: (r[0], r[2], r[1])
        )
        store = Store(tmp / "store")
        for key, block in blocks.items():
            view = spilled.partition(*key)
            store.write_partition(view, Partition("samples", *key))
            mask = data.draw(st.lists(st.booleans(), min_size=len(view), max_size=len(view)))
            picked = np.flatnonzero(mask)
            lo = data.draw(st.integers(0, len(view)))
            hi = data.draw(st.integers(lo, len(view)))
            with store.open_samples(*key) as stored:
                for rows in (view, stored):
                    assert (rows.fs_id, rows.node_labels) == (block.fs_id, block.node_labels)
                    assert (rows.node.tolist(), rows.window.tolist()) == (
                        block.node.tolist(), block.window.tolist()
                    )
                    assert rows.counter_rows(picked).tolist() == block.counters[picked].tolist()
                    chunks = list(rows.counter_chunks())
                    assert all(len(chunk) <= read_rows for chunk in chunks)
                    assert np.concatenate(chunks).tolist() == block.counters.tolist()
                    assert rows.block(lo, hi) == block.take(slice(lo, hi))
    assert no_children()


def test_a_file_cut_short_under_the_reader_raises_store_error_naming_it(tmp_path):
    """A short read of counters is one error, a StoreError naming the file,
    for a spill cut after the parse and for a stored partition cut after it
    was opened and checked; the rows before the cut still read. A spill cut
    inside a partition's keys is refused the same way: keys and counters are
    read from the spill's descriptor, so a cut made on it is seen."""
    path = tmp_path / "stats.csv"
    lines = [span_line(180 * w, "fs2", node, w) for w in range(20) for node in ("nid1", "nid2")]
    path.write_bytes(text_of(*lines).encode())
    store = Store(tmp_path / "store")
    with ExitStack() as files:
        spills = []

        def spill():
            spills.append(files.enter_context(tempfile.TemporaryFile()))
            return spills[-1]

        spilled, _ = parse_stats_csv(path, "strict", 180, spill)
        (key,) = spilled.partitions
        whole = spilled.partition(*key).block()
        store.write_partition(spilled.partition(*key), Partition("samples", *key))
        (spilled_file,) = spills
        os.ftruncate(spilled_file.fileno(), os.fstat(spilled_file.fileno()).st_size - 1)
        rows = spilled.partition(*key)
        with pytest.raises(StoreError) as err:
            rows.block()
        assert str(err.value) == f"sample spill of {path}: counters end before row 40"
        assert rows.block(0, 39) == whole.take(slice(0, 39))
        os.ftruncate(spilled_file.fileno(), 0)
        with pytest.raises(StoreError) as err:
            spilled.partition(*key)
        assert str(err.value) == f"sample spill of {path}: keys end inside the segment at 0"
    stored_path = store.path(Partition("samples", *key))
    with store.open_samples(*key) as stored:
        os.truncate(stored_path, stored.runs[0][1] + 10 * 21 * 8)
        with pytest.raises(StoreError) as err:
            stored.block(5, 40)
        assert str(err.value) == f"{stored_path}: counters end before row 40"
        assert stored.block(0, 10) == whole.take(slice(0, 10))


def test_a_stream_or_a_pipe_is_read_whole(tmp_path, monkeypatch):
    text = text_of(*dirty_lines(5, every=37, n=300))
    path = tmp_path / "stats.csv"
    path.write_bytes(text.encode())
    split_in(monkeypatch, path, 3)
    monkeypatch.setattr(ingest, "_Worker", NoWorker)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(text.encode(),))
    writer.start()
    try:
        from_fifo = outcome(parse_stats_csv, fifo, "lenient")
    finally:
        writer.join()
    want = outcome(row_loop, text, "lenient")
    assert from_fifo == want
    with open(path, "rb") as stream:
        assert outcome(parse_stats_csv, stream, "lenient") == want
    assert outcome(parse_stats_csv, stats_stream(text), "lenient") == want


def test_a_process_running_a_second_thread_reads_whole(tmp_path, monkeypatch):
    """A fork would copy only the calling thread, and any lock the other
    one held."""
    text = text_of(*dirty_lines(5, every=37, n=300))
    path = tmp_path / "stats.csv"
    path.write_bytes(text.encode())
    split_in(monkeypatch, path, 2)
    assert len(ingest._stats_spans(path, BODY)) == 2
    monkeypatch.setattr(ingest, "_Worker", NoWorker)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(60,))
    other.start()
    try:
        assert outcome(parse_stats_csv, path, "lenient") == outcome(row_loop, text, "lenient")
    finally:
        stop.set()
        other.join(10)
    assert not other.is_alive()


def test_a_crlf_file_given_by_path_is_refused_before_any_fork(tmp_path, monkeypatch):
    """A file of 1 MiB or more that would be parsed in two spans is refused
    at its header, whose last cell reads cdr\\r, before any worker starts."""
    path = tmp_path / "stats.csv"
    path.write_bytes(text_of(*dirty_lines(5, every=None, n=7000), end="\r\n").encode())
    monkeypatch.setattr(ingest, "_usable_cpus", lambda: 2)
    assert path.stat().st_size >= 1 << 20
    assert len(ingest._stats_spans(path, BODY + 1)) == 2
    monkeypatch.setattr(ingest, "_Worker", NoWorker)
    for mode in ("strict", "lenient"):
        with pytest.raises(IngestError, match=r"^line 1: bad header .*'cdr\\r'\]"):
            parse_stats_csv(path, mode)
    assert no_children()


@pytest.mark.parametrize("read", ["whole", "in spans"])
def test_a_line_many_reads_long_is_one_bad_row_read_in_linear_time(tmp_path, monkeypatch, read):
    """Lines of 3 and 2 MiB, some 80,000 reads of 64 bytes in all: the
    first a good row with a long node id, the second a bad row of one cell
    on its own line, read whole or in the second of two spans; the rows
    after them keep their lines. Each read alone is searched for an LF, so
    the parse takes time in proportion to the bytes, not to their square."""
    monkeypatch.setattr(ingest, "_RANGE_BYTES", 64)
    long_id = "n" * (3 << 20)
    bad = "x" * (2 << 20)
    text = text_of(row(node=long_id), row(), bad, row(ts=T1), "2017-10-09T00:06:00Z,fs2,nid1,1,2")
    path = tmp_path / "stats.csv"
    path.write_bytes(text.encode())
    if read == "in spans":
        split_in(monkeypatch, path, 2)
        assert [line for _, _, line in ingest._stats_spans(path, BODY)] == [2, 3]
    else:
        monkeypatch.setattr(ingest, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(ingest, "_Worker", NoWorker)
    started = time.monotonic()
    for mode in ("strict", "lenient"):
        assert outcome(parse_stats_csv, path, mode) == outcome(row_loop, text, mode), mode
    assert time.monotonic() - started < 10
    parsed, report = parse_stats_csv(path, "lenient")
    assert report.rejected_reasons == (
        (4, "expected 24 columns, got 1"),
        (6, "expected 24 columns, got 5"),
    )
    assert one_block(parsed).node_labels == ("nid1", long_id)
    assert no_children()


def store_files(store):
    """Every file below the store root, with its bytes and modification time."""
    return {
        str(path.relative_to(store.root)): (path.read_bytes(), path.stat().st_mtime_ns)
        for path in sorted(store.root.rglob("*"))
        if path.is_file()
    }


def two_fs_lines(seed, every=None):
    """dirty_lines over two filesystems, fs2 where fs1 is on every third line."""
    return [
        line.replace(",fs1,", ",fs2,", 1) if i % 3 == 0 else line
        for i, line in enumerate(dirty_lines(seed, every))
    ]


def fail_workers(monkeypatch, fail):
    """Make every forked worker call fail before it parses its span."""
    real, parent = ingest._parse_span, os.getpid()

    def parse_span(*args):
        if os.getpid() != parent:  # not the first span, which the parent parses
            fail()
        return real(*args)

    monkeypatch.setattr(ingest, "_parse_span", parse_span)


def disk_full():
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("mode", ["strict", "lenient"])
@pytest.mark.parametrize(
    "fail, error",
    [
        (lambda: os._exit(1), "stats parse worker exited with status 1"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "exited with status -9"),
        (disk_full, "No space left on device"),
    ],
)
def test_a_failed_worker_fails_the_ingest_and_writes_nothing(
    tmp_path, monkeypatch, mode, fail, error
):
    store = Store(tmp_path / "store")
    first = tmp_path / "first.csv"
    first.write_text(text_of(*two_fs_lines(3)[:200]), encoding="utf-8")
    ingest_files(store, [first])
    before = store_files(store)
    path = tmp_path / "stats.csv"
    path.write_text(text_of(*two_fs_lines(4)), encoding="utf-8")
    split_in(monkeypatch, path, 3)
    fail_workers(monkeypatch, fail)
    with pytest.raises(OSError, match=error):
        ingest_files(store, [path], mode=mode)
    assert store_files(store) == before
    assert no_children()


def test_a_worker_failure_after_a_strict_error_does_not_count(tmp_path, monkeypatch):
    """The parse ends at the first span's bad row, as a whole read would:
    the strict error is raised, and only a lenient parse, which reads on,
    meets the failed workers."""
    lines = two_fs_lines(4)
    lines.insert(20, "2017-10-09T00:03:00Z,fs2,nid1,1,2")
    text = text_of(*lines)
    path = tmp_path / "stats.csv"
    path.write_text(text, encoding="utf-8")
    split_in(monkeypatch, path, 3)
    fail_workers(monkeypatch, lambda: os._exit(1))
    with pytest.raises(IngestError) as err:
        parse_stats_csv(path)
    assert (err.value.line, err.value.reason) == (22, "expected 24 columns, got 5")
    with pytest.raises(ChildProcessError):
        parse_stats_csv(path, "lenient")
    assert no_children()


def test_a_fork_that_fails_fails_the_parse_and_leaks_nothing(tmp_path, monkeypatch):
    """The second of two forks fails: the first worker is killed and
    reaped, and every pipe is closed."""
    path = tmp_path / "stats.csv"
    path.write_text(text_of(*two_fs_lines(4)), encoding="utf-8")
    split_in(monkeypatch, path, 3)
    real_fork, forks = os.fork, []

    def fork():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(ingest.os, "fork", fork)
    descriptors = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError):
        parse_stats_csv(path, "lenient")
    assert len(forks) == 2
    assert sorted(os.listdir("/proc/self/fd")) == descriptors
    assert no_children()


def test_a_parent_that_raises_kills_its_workers(tmp_path, monkeypatch):
    path = tmp_path / "stats.csv"
    path.write_text(text_of(*two_fs_lines(4)), encoding="utf-8")
    split_in(monkeypatch, path, 3)
    real, parent = ingest._parse_span, os.getpid()

    def parse_span(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
        return real(*args)

    monkeypatch.setattr(ingest, "_parse_span", parse_span)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        parse_stats_csv(path, "lenient")
    assert time.monotonic() - started < 30
    assert no_children()


@pytest.mark.parametrize("every", [None, 97])
def test_ingest_in_spans_writes_the_stores_a_whole_read_does(tmp_path, monkeypatch, every):
    path = tmp_path / "stats.csv"
    path.write_text(text_of(*two_fs_lines(6, every)), encoding="utf-8")
    stores = {}
    for spans in (1, 3):
        with pytest.MonkeyPatch.context() as mp:
            split_in(mp, path, spans)
            assert len(ingest._stats_spans(path, BODY)) == spans
            store = Store(tmp_path / f"store{spans}")
            summary = ingest_files(store, [path], mode="lenient")
        stores[spans] = (summary, {name: data for name, (data, _) in store_files(store).items()})
    assert stores[1] == stores[3]
    assert stores[1][0].partitions == 2


# --- canonical serialization ---------------------------------------------


def reference_serialize(samples):
    """The canonical stats text of (fs, node, window, counters) rows, one
    row at a time: its cells joined by commas and ended by LF."""
    rows = [STATS_HEADER] + [
        (format_utc(w), fs, node) + tuple(vec)
        for fs, node, w, vec in sorted(samples, key=lambda s: (s[2], s[0], s[1]))
    ]
    return "".join(",".join(map(str, r)) + "\n" for r in rows)


# ids a stats line may hold that the clean path does not take: a space, a
# hash, non-ASCII UTF-8 of two and of four bytes
awkward_ids = st.text(
    alphabet=st.sampled_from(["a", "b", " ", "#", "é", "\U0001f600"]),
    min_size=1,
    max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            awkward_ids,
            awkward_ids,
            st.integers(0, 30).map(lambda i: BASE_DAY + i * 180),
            st.lists(st.integers(0, INT64_MAX), min_size=21, max_size=21),
        ),
        max_size=12,
        unique_by=lambda t: (t[0], t[1], t[2]),
    )
)
def test_serialize_matches_a_row_by_row_writer(rows):
    blocks = fs_blocks(rows)
    text = serialize_stats_csv(*blocks)
    assert text == reference_serialize(rows)
    back, report = parse_stats_csv(stats_stream(text))
    assert report.rows_rejected == 0
    assert back == partitions(*blocks)
    assert serialize_stats_csv(*back.values()) == text


# --- block construction ---------------------------------------------------


def test_from_columns_puts_rows_in_canonical_order():
    samples = [
        mk_sample("fs1", "nid2", BASE_DAY, read_kb=1),
        mk_sample("fs1", "nid9", BASE_DAY + 180, open=2),
        mk_sample("fs1", "nid1", BASE_DAY),
    ]
    block = mk_block(samples)
    assert len(block) == 3
    assert [block.key(i) for i in range(3)] == [
        ("fs1", "nid1", BASE_DAY),
        ("fs1", "nid2", BASE_DAY),
        ("fs1", "nid9", BASE_DAY + 180),
    ]
    assert block.counters.tolist() == [[0] * 21, list(samples[0][3]), list(samples[1][3])]
    assert mk_block(reversed(samples)) == block
    assert block != mk_block(samples, window_len=360)
    # the same rows of another filesystem are another block
    assert block != mk_block([("fs2", *s[1:]) for s in samples])


def test_block_rejects_duplicates_and_a_second_filesystem():
    with pytest.raises(ValueError, match="duplicate sample for \\('fs2', 'nid1', 0\\)"):
        mk_block([mk_sample("fs2", "nid1", 0), mk_sample("fs2", "nid1", 0)])
    with pytest.raises(ValueError, match="one filesystem"):
        mk_block([mk_sample("fs2", "nid1", 0), mk_sample("fs1", "nid1", 0)])


# --- the code form equals a string-keyed reference --------------------------

# ids whose first-seen order differs from their sorted order ("n9" before
# "n10"), a long id, and non-ASCII ids
code_ids = st.sampled_from(["n9", "n10", "n1", "n" * 300, "é", "Ω2", "z"]) | awkward_ids
sample_rows = st.lists(
    st.tuples(
        code_ids,
        code_ids,
        st.integers(0, 6).map(lambda i: BASE_DAY + i * 180),
        st.tuples(*[st.integers(0, 3)] * 21),
    ),
    max_size=14,
    unique_by=lambda t: (t[0], t[1], t[2]),
)


def canonical_rows(rows):
    """(fs, node, window, counters) rows sorted by (window, fs, node) as strings."""
    return sorted(rows, key=lambda r: (r[2], r[0], r[1]))


def assert_code_form(block):
    """The node label table sorted, distinct and all used; every code indexes it."""
    labels, codes = block.node_labels, block.node
    assert type(block.fs_id) is str
    assert type(labels) is tuple and list(labels) == sorted(set(labels))
    assert codes.dtype == np.int32
    assert sorted(set(codes.tolist())) == list(range(len(labels)))


def assert_one_fs_code_form(old, new, mask, fs_id) -> SampleBlock:
    """The blocks of one filesystem's old and new rows, their take and their
    lenient and strict merges agree with string-keyed references; returns
    the lenient merge."""
    a, b = mk_block(old, fs_id=fs_id), mk_block(new, fs_id=fs_id)
    for block, rows in ((a, old), (b, new)):
        assert_code_form(block)
        assert block.fs_id == fs_id
        assert block_rows(block) == canonical_rows(rows)
        assert [block.key(i) for i in range(len(block))] == [r[:3] for r in canonical_rows(rows)]

    # take keeps the selected rows and only the labels they use
    picked = a.take(np.array(mask[: len(a)], bool))
    assert_code_form(picked)
    assert block_rows(picked) == [r for r, m in zip(canonical_rows(old), mask) if m]

    # _merge_samples: new rows win; strict refuses the lowest changed key
    union = {r[:3]: r for r in old}
    changed = sorted(
        (r for r in new if r[:3] in union and union[r[:3]] != r), key=lambda r: (r[2], r[0], r[1])
    )
    union.update({r[:3]: r for r in new})
    got, count = _merge_samples(a, b, "lenient", "here")
    merged = got.block()
    assert_code_form(merged)
    assert block_rows(merged) == canonical_rows(list(union.values()))
    assert count == len(changed)
    if old and not changed and len(union) == len(old):
        assert got is a
    if changed:
        with pytest.raises(IngestError) as exc:
            _merge_samples(a, b, "strict", "here")
        assert exc.value.reason == f"sample {changed[0][:3]} conflicts here"
    else:
        strict, count = _merge_samples(a, b, "strict", "here")
        assert (strict.block(), count) == (merged, 0)
    return merged


@settings(max_examples=150, deadline=None)
@given(old=sample_rows, new=sample_rows, mask=st.lists(st.booleans(), min_size=14, max_size=14))
def test_code_form_matches_string_keyed_reference(old, new, mask):
    # a block holds one filesystem: check each filesystem's rows as blocks
    merged = [
        assert_one_fs_code_form(
            [r for r in old if r[0] == fs_id], [r for r in new if r[0] == fs_id], mask, fs_id
        )
        for fs_id in sorted({r[0] for r in old + new})
    ]
    assert_one_fs_code_form([], [], mask, "fs2")

    # the canonical text of every filesystem's merge, rows window-major and
    # filesystems interleaved, parses back to their partitions (all windows
    # lie in one day); so does the same rows' text in drawn order, whose fs
    # and node ids come first-seen unsorted
    want = partitions(*merged)
    text = serialize_stats_csv(*merged)
    back, report = parse_stats_csv(stats_stream(text))
    assert report.rows_rejected == 0
    for block in back.values():
        assert_code_form(block)
    assert back == want
    union = {r[:3]: r for r in old + new}
    drawn = text_of(
        *(",".join(map(str, (format_utc(w), f, n) + vec)) for f, n, w, vec in union.values())
    )
    assert parse_stats_csv(stats_stream(drawn))[0] == want


def test_ingest_merges_overlapping_files_in_one_call(tmp_path):
    one, two = tmp_path / "a.csv", tmp_path / "b.csv"
    one.write_text(text_of(row(), row(ts=T1)), encoding="utf-8")
    two.write_text(text_of(row(ts=T1), row(node="nid2")), encoding="utf-8")
    store = Store(tmp_path / "store")
    summary = ingest_files(store, [one, two])
    assert (summary.samples, summary.rejected) == (3, 0)
    got = read_samples(store, "fs2", BASE_DAY)
    assert [(w, node) for _, node, w, _ in block_rows(got)] == [
        (BASE_DAY, "nid1"),
        (BASE_DAY, "nid2"),
        (BASE_DAY + 180, "nid1"),
    ]

    changed = tmp_path / "c.csv"
    changed.write_text(text_of(row(counters=("9",) * 21), row(ts=T1)), encoding="utf-8")
    summary = ingest_files(store, [changed], mode="lenient")
    assert summary.rejected == 1  # one stored row replaced, one identical
    got = read_samples(store, "fs2", BASE_DAY)
    assert got.counters[0].tolist() == [9] * 21


# --- vector attribution agrees with the per-sample loop --------------------


def accumulate(acc, key, vec):
    slot = acc.setdefault(key, [0] * len(vec))
    for i, v in enumerate(vec):
        slot[i] += v


def reference_attribute(samples, jobs, config):
    """The per-sample attribution loop the vector path replaced, over
    (fs, node, window, counters) rows of config.window_len windows."""
    index = node_index(jobs)
    attributed, unattributed = {}, {}
    wlen = config.window_len
    for fs_id, node_id, w, vec in samples:
        entry = index.get(node_id)
        if entry is None:
            accumulate(unattributed, (fs_id, w), vec)
            continue
        starts, node_jobs = entry
        if config.boundary_policy == "midpoint":
            mid2 = 2 * w + wlen
            i = bisect_right(starts, mid2 // 2) - 1
            if i >= 0 and mid2 < 2 * node_jobs[i].end:
                accumulate(attributed, (node_jobs[i].app_id, fs_id, w), vec)
            else:
                accumulate(unattributed, (fs_id, w), vec)
            continue
        shares = [
            (j, min(j.end, w + wlen) - max(j.start, w))
            for j in node_jobs
            if j.start < w + wlen and j.end > w
        ]
        if not shares:
            accumulate(unattributed, (fs_id, w), vec)
            continue
        cum, prev = 0, (0,) * len(vec)
        for job, overlap in shares:
            cum += overlap
            scaled = vec if cum >= wlen else tuple(round(v * (cum / wlen)) for v in vec)
            accumulate(attributed, (job.app_id, fs_id, w), [a - b for a, b in zip(scaled, prev)])
            prev = scaled
        if prev != vec:
            accumulate(unattributed, (fs_id, w), [a - b for a, b in zip(vec, prev)])
    return (
        {k: tuple(v) for k, v in attributed.items()},
        {k: tuple(v) for k, v in unattributed.items()},
    )


def reference_fs_totals(samples, unattributed):
    totals, unattr = {}, {}
    for fs_id, _, w, vec in samples:
        accumulate(totals, (fs_id, w - w % HOUR), vec)
    for (fs_id, w), vec in unattributed.items():
        accumulate(unattr, (fs_id, w - w % HOUR), vec)
    return [
        (hour, fs_id, tuple(vec), tuple(unattr.get((fs_id, hour), (0,) * 21)))
        for (fs_id, hour), vec in sorted(totals.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    ]


def reference_aggregate_hourly(attributed):
    """The dict-based hourly rollup the numpy grouping replaced."""
    acc = {}
    for (app_id, fs_id, w), vec in attributed.items():
        accumulate(acc, (app_id, fs_id, w - w % HOUR), vec)
    return [
        (hour, fs_id, app_id, tuple(vec))
        for (app_id, fs_id, hour), vec in sorted(acc.items(), key=lambda kv: kv[0][::-1])
    ]


NODES = ["n1", "n2", "n3"]
job_cuts = st.lists(st.integers(0, 30 * 180), min_size=2, max_size=8, unique=True).map(sorted)


@settings(max_examples=200, deadline=None)
@given(
    cuts=st.tuples(job_cuts, job_cuts, job_cuts),
    cells=st.lists(
        st.tuples(
            st.sampled_from(["fs1", "fs2"]),
            st.sampled_from(NODES + ["idle"]),
            st.integers(0, 28),
            st.lists(st.integers(0, 10**9), min_size=21, max_size=21),
        ),
        max_size=40,
        unique_by=lambda t: (t[0], t[1], t[2]),
    ),
    policy=st.sampled_from(["midpoint", "proportional"]),
)
def test_vector_attribution_matches_sample_loop(cuts, cells, policy):
    jobs = []
    for node, bounds in zip(NODES, cuts):
        for k, (s, e) in enumerate(zip(bounds[::2], bounds[1::2])):
            jobs.append(mk_job(f"{node}-app{k}", [node], BASE_DAY + s, BASE_DAY + e))
    jobs.reverse()  # job list order differs from app_id order
    samples = [(fs, node, BASE_DAY + i * 180, tuple(vec)) for fs, node, i, vec in cells]
    config = AttributionConfig(boundary_policy=policy)
    # one block, attribution and pair of rollups per filesystem, against one
    # reference over every sample
    got_attributed, got_unattributed, got_totals, got_hours = {}, {}, [], []
    for fs_id in ("fs1", "fs2"):
        block = mk_block([s for s in samples if s[0] == fs_id], fs_id=fs_id)
        result = attribute(block, jobs, config)
        assert result.fs_id == fs_id
        attributed, unattributed = result_dicts(result)
        got_attributed.update(attributed)
        got_unattributed.update(unattributed)
        totals = [
            (r.hour, r.fs_id, r.counters, r.unattributed) for r in fs_hourly_totals(block, result)
        ]
        hours = [(r.hour, r.fs_id, r.app_id, r.counters) for r in aggregate_hourly(result)]
        assert totals == sorted(totals) and hours == sorted(hours)
        got_totals += totals
        got_hours += hours
    want_attributed, want_unattributed = reference_attribute(samples, jobs, config)
    assert (got_attributed, got_unattributed) == (want_attributed, want_unattributed)
    assert sorted(got_totals) == reference_fs_totals(samples, want_unattributed)
    assert sorted(got_hours) == reference_aggregate_hourly(want_attributed)
