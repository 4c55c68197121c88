import csv
import gc
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    fs_blocks,
    mk_job,
    mk_sample,
    one_block,
    partitions,
    serialize_stats_csv,
    stats_stream,
)
from lassi.errors import IngestError, StoreError
from lassi.model import AppHourRecord
from lassi.ingest import (
    JOBS_HEADER,
    STATS_HEADER,
    parse_jobs_csv,
    parse_stats_csv,
    serialize_jobs_csv,
)
from lassi.store import Partition, Store
from lassi.timeutil import DAY

GOOD_ROW = "2017-10-09T00:00:00Z,fs2,nid00001," + ",".join(["1"] * 21)


def stats_text(*rows):
    return ",".join(STATS_HEADER) + "\n" + "".join(r + "\n" for r in rows)


def jobs_text(*rows):
    return ",".join(JOBS_HEADER) + "\n" + "".join(r + "\n" for r in rows)


def test_parse_stats_happy_path():
    parsed, report = parse_stats_csv(stats_stream(stats_text(GOOD_ROW)))
    samples = one_block(parsed)
    assert list(parsed) == [("fs2", 1507507200)]
    assert report.rows_read == 1
    assert report.rows_accepted == 1
    assert report.rows_rejected == 0
    assert len(samples) == 1
    assert samples.key(0) == ("fs2", "nid00001", 1507507200)
    assert samples.counters.tolist() == [[1] * 21]


def test_parse_stats_accepts_bytes_stream():
    parsed, _ = parse_stats_csv(io.BytesIO(stats_text(GOOD_ROW).encode()))
    assert len(one_block(parsed)) == 1


JOB_ROW = "app1,1.sdb,u,2017-10-09T01:00:00Z,2017-10-09T02:00:00Z,n1,c"


@pytest.mark.parametrize("bad", [False, True])
def test_a_binary_stream_the_caller_gives_stays_open(tmp_path, bad):
    """A stats parse reads it as it is, and a jobs parse detaches the text
    wrapper it puts around it; neither closes it, whether the parse returns
    or raises."""
    inputs = ((parse_stats_csv, stats_text(GOOD_ROW)), (parse_jobs_csv, jobs_text(JOB_ROW)))
    for parse, text in inputs:
        path = tmp_path / "input.csv"
        path.write_text(text + "bad row\n" * bad, encoding="utf-8")
        with open(path, "rb") as stream:
            if bad:
                with pytest.raises(IngestError):
                    parse(stream)
            else:
                assert parse(stream)[1].rows_accepted == 1
            gc.collect()
            assert not stream.closed, parse.__name__


def test_a_stats_source_that_is_a_text_stream_is_refused():
    """A stats file is bytes: a path or a binary stream."""
    with pytest.raises(TypeError, match="^cannot read stats from StringIO: not a path or binary"):
        parse_stats_csv(io.StringIO(stats_text(GOOD_ROW)))


def test_header_must_match_exactly():
    with pytest.raises(IngestError) as err:
        parse_stats_csv(stats_stream("window_start,fs\n"))
    assert err.value.line == 1
    with pytest.raises(IngestError):
        parse_stats_csv(stats_stream(""))
    # swapped columns are not the contract header
    cols = list(STATS_HEADER)
    cols[3], cols[4] = cols[4], cols[3]
    with pytest.raises(IngestError):
        parse_stats_csv(stats_stream(",".join(cols) + "\n"))


@pytest.mark.parametrize(
    "row,needle",
    [
        ("2017-10-09T00:00:00Z,fs2,nid1,1,2", "column"),
        ("not-a-time,fs2,nid1," + ",".join(["0"] * 21), "bad timestamp"),
        ("2017-10-09T00:00:00Z,fs2,nid1," + ",".join(["x"] + ["0"] * 20), "non-integer"),
        ("2017-10-09T00:00:00Z,fs2,nid1," + ",".join(["-3"] + ["0"] * 20), "negative"),
        ("2017-10-09T00:01:00Z,fs2,nid1," + ",".join(["0"] * 21), "aligned"),
        ("2017-10-09T00:00:00Z,,nid1," + ",".join(["0"] * 21), "non-empty"),
    ],
)
def test_parse_stats_rejects_bad_rows(row, needle):
    with pytest.raises(IngestError) as err:
        parse_stats_csv(stats_stream(stats_text(row)))
    assert err.value.line == 2
    assert needle in str(err.value)

    parsed, report = parse_stats_csv(stats_stream(stats_text(row)), mode="lenient")
    assert parsed == {}
    assert report.rows_rejected == 1
    assert report.first_error_line == 2
    assert report.rejected_reasons[0][0] == 2


ZERO_CELLS = ",".join(["0"] * 21)


# np.loadtxt reads " 5", "+5" and "\x0b5" as 5 and "5Ǿ5" as 5125; int() reads "5_0" and "٣"
@pytest.mark.parametrize("cell", [" 5", "+5", "5_0", "٣", "\x0b5", "5Ǿ5"])
def test_counter_cells_outside_the_integer_grammar_are_rejects(cell):
    row = "2017-10-09T00:03:00Z,fs2,nid00001," + ",".join([cell] + ["1"] * 20)
    text = stats_text(GOOD_ROW, row)
    with pytest.raises(IngestError) as err:
        parse_stats_csv(stats_stream(text))
    assert (err.value.line, err.value.reason) == (3, "non-integer counter value")

    parsed, report = parse_stats_csv(stats_stream(text), mode="lenient")
    assert len(one_block(parsed)) == report.rows_accepted == 1
    assert report.rejected_reasons == ((3, "non-integer counter value"),)


def test_leading_zeros_still_read_at_ingest():
    row = "2017-10-09T00:03:00Z,fs2,nid00001," + ",".join(["007"] + ["1"] * 20)
    for mode in ("strict", "lenient"):
        parsed, report = parse_stats_csv(stats_stream(stats_text(GOOD_ROW, row)), mode)
        assert report.rows_rejected == 0
        assert one_block(parsed).counters[1].tolist() == [7] + [1] * 20


@pytest.mark.parametrize(
    "row,reason",
    [
        (
            "2017-10-09T00:01:00Z,fs2,nid1," + ZERO_CELLS,
            "window_start 1507507260 not aligned to 180s grid",
        ),
        ("2017-10-09T00:00:00Z,,nid1," + ZERO_CELLS, "fs_id and node_id must be non-empty"),
        ("2017-10-09T00:00:00Z,fs2,," + ZERO_CELLS, "fs_id and node_id must be non-empty"),
        (
            "2017-10-09T00:00:00Z,fs2,nid1,0,0,-3," + ",".join(["0"] * 18),
            f"negative counter in counters {(0, 0, -3) + (0,) * 18}",
        ),
    ],
    ids=["off grid", "empty fs", "empty node", "negative counter"],
)
def test_sample_rules_hold_at_the_parse_boundary(row, reason):
    text = stats_text(GOOD_ROW, row)
    with pytest.raises(IngestError) as err:
        parse_stats_csv(stats_stream(text))
    assert (err.value.line, err.value.reason) == (3, reason)

    parsed, report = parse_stats_csv(stats_stream(text), mode="lenient")
    assert len(one_block(parsed)) == report.rows_accepted == 1
    assert report.rejected_reasons == ((3, reason),)


@pytest.mark.parametrize("window_len", [7, 0])
def test_window_len_off_the_hour_rejects_every_row(tmp_path, window_len):
    """No window grid exists to check a row against, so the whole file is
    refused up front, in either mode, spilled or not: the missing file is
    never opened."""
    missing = tmp_path / "missing.csv"
    for mode in ("strict", "lenient"):
        for spill in (None, io.BytesIO):
            with pytest.raises(ValueError, match=f"^window_len {window_len} must divide 3600$"):
                parse_stats_csv(missing, mode, window_len, spill)


def test_duplicate_sample_strict_raises_at_later_line():
    text = stats_text(GOOD_ROW, GOOD_ROW.replace(",1,", ",2,", 1))
    with pytest.raises(IngestError) as err:
        parse_stats_csv(stats_stream(text))
    assert err.value.line == 3
    assert "duplicate" in str(err.value)


def test_duplicate_sample_lenient_last_wins():
    second = "2017-10-09T00:00:00Z,fs2,nid00001," + ",".join(["7"] * 21)
    parsed, report = parse_stats_csv(
        stats_stream(stats_text(GOOD_ROW, second)), mode="lenient"
    )
    assert one_block(parsed).counters.tolist() == [[7] * 21]
    assert report.rows_accepted == 1
    assert report.rows_rejected == 1
    line, reason = report.rejected_reasons[0]
    assert line == 2
    assert "superseded by line 3" in reason


def test_parse_jobs_happy_path():
    row = "app1,42.sdb,usr7,2017-10-09T01:00:00Z,2017-10-09T03:00:00Z,nid2;nid1,aprun -n 72 ./a.out"
    jobs, report = parse_jobs_csv(io.StringIO(jobs_text(row)))
    (j,) = jobs
    assert j.nodes == frozenset({"nid1", "nid2"})
    assert j.runtime_s == 7200
    assert j.command == "aprun -n 72 ./a.out"
    assert report.rows_accepted == 1


@pytest.mark.parametrize(
    "row,needle",
    [
        ("app1,1.sdb,u,2017-10-09T01:00:00Z,2017-10-09T01:00:00Z,n1,c", "after start"),
        ("app1,1.sdb,u,2017-10-09T01:00:00Z,2017-10-09T02:00:00Z,,c", "node"),
        ("app1,1.sdb,u,2017-10-09T01:00:00Z,2017-10-09T02:00:00Z,n1,", "command"),
        ("app1,1.sdb,u,bad,2017-10-09T02:00:00Z,n1,c", "time data"),
    ],
)
def test_parse_jobs_rejects_bad_rows(row, needle):
    with pytest.raises(IngestError) as err:
        parse_jobs_csv(io.StringIO(jobs_text(row)))
    assert needle in str(err.value)


def test_duplicate_app_id_rejected():
    row1 = "app1,1.sdb,u,2017-10-09T01:00:00Z,2017-10-09T02:00:00Z,n1,c"
    row2 = "app1,2.sdb,u,2017-10-09T05:00:00Z,2017-10-09T06:00:00Z,n2,c"
    with pytest.raises(IngestError) as err:
        parse_jobs_csv(io.StringIO(jobs_text(row1, row2)))
    assert "duplicate app_id" in str(err.value)

    jobs, report = parse_jobs_csv(io.StringIO(jobs_text(row1, row2)), mode="lenient")
    (j,) = jobs
    assert j.job_id == "1.sdb"  # first record stands, later duplicate is rejected
    assert report.rows_rejected == 1
    assert "duplicate app_id" in report.rejected_reasons[0][1]


def test_a_jobs_cell_past_the_csv_field_limit_is_a_line_numbered_reject():
    limit = csv.field_size_limit()
    good = "app1,1.sdb,u,2017-10-09T01:00:00Z,2017-10-09T02:00:00Z,n1,c"
    long = "app2,2.sdb,u,2017-10-09T01:00:00Z,2017-10-09T02:00:00Z,n2," + "c" * (limit + 1)
    reason = f"field larger than field limit ({limit})"
    jobs, report = parse_jobs_csv(io.StringIO(jobs_text(long, good)), mode="lenient")
    assert [j.app_id for j in jobs] == ["app1"]
    assert report.rejected_reasons == ((2, reason),)
    with pytest.raises(IngestError) as err:
        parse_jobs_csv(io.StringIO(jobs_text(long, good)))
    assert (err.value.line, err.value.reason) == (2, reason)


# a quoted cell holding a newline spans lines 2 and 3: a jobs row, so the bad
# row is line 5; in a stats file, which is not CSV, lines 2 and 3 are bad too
QUOTED_NEWLINE_NODE = '2017-10-09T00:00:00Z,fs2,"n\nid",' + ",".join(["1"] * 21)
NEGATIVE_ROW = "2017-10-09T00:06:00Z,fs2,nid00001,-1," + ",".join(["1"] * 20)
QUOTED_NEWLINE_JOB = 'app1,1.sdb,u,2017-10-09T01:00:00Z,2017-10-09T02:00:00Z,n1,"a\nb"'
GOOD_JOB = "app2,2.sdb,u,2017-10-09T01:00:00Z,2017-10-09T02:00:00Z,n2,c"
BAD_TIME_JOB = "app3,3.sdb,u,2017-10-09T01:00:00Z,never,n3,c"


@pytest.mark.parametrize(
    "parse, text, rejects, accepted",
    [
        (parse_stats_csv, stats_text(QUOTED_NEWLINE_NODE, GOOD_ROW, NEGATIVE_ROW), [2, 3, 5], 1),
        (parse_jobs_csv, jobs_text(QUOTED_NEWLINE_JOB, GOOD_JOB, BAD_TIME_JOB), [5], 2),
    ],
    ids=["stats", "jobs"],
)
def test_rejects_name_the_file_line_after_a_quoted_newline(parse, text, rejects, accepted):
    assert text.splitlines()[4].startswith(("2017-10-09T00:06:00Z,", "app3,"))
    with pytest.raises(IngestError) as err:
        parse(stats_stream(text))
    assert err.value.line == rejects[0]
    parsed, report = parse(stats_stream(text), mode="lenient")
    if parse is parse_stats_csv:
        parsed = one_block(parsed)
    assert len(parsed) == accepted
    assert [line for line, _ in report.rejected_reasons] == rejects
    assert report.first_error_line == rejects[0]


def test_a_store_error_names_the_file_line_after_a_quoted_newline(tmp_path):
    store = Store(tmp_path / "store")
    partition = Partition("jobs", None, 0)
    jobs = [mk_job("app1", ["n1"], 3600, 7200, command="a\nb"), mk_job("app2", ["n2"], 3600, 7200)]
    store.write_partition(jobs, partition)
    path = store.path(partition)
    text = path.read_text(encoding="utf-8")
    assert text.count("\n") == 4  # header, app1 over two lines, app2
    path.write_text(text.replace("app2,", "app1,"), encoding="utf-8")
    with pytest.raises(StoreError, match="line 4: duplicate app_id"):
        store.read_range("jobs", None, 0, DAY)


# a quoted command holding a lone CR stays on LF line 2, so the bad job is LF line 3
LONE_CR_JOB = 'app1,1.sdb,u,2017-10-09T01:00:00Z,2017-10-09T02:00:00Z,n1,"a\rb"'
LONE_CR_NODE = '2017-10-09T00:00:00Z,fs2,"n\rid",' + ",".join(["1"] * 21)


@pytest.mark.parametrize("source", ["path", "text", "bytes"])
def test_jobs_rejects_count_lines_at_lf_after_a_lone_cr(tmp_path, source):
    text = jobs_text(LONE_CR_JOB, BAD_TIME_JOB)
    assert text.count("\n") == 3
    path = tmp_path / "jobs.csv"
    path.write_bytes(text.encode("utf-8"))
    sources = {
        "path": lambda: path,
        "text": lambda: io.StringIO(text, newline=""),
        "bytes": lambda: io.BytesIO(text.encode("utf-8")),
    }
    with pytest.raises(IngestError) as err:
        parse_jobs_csv(sources[source]())
    assert err.value.line == 3
    jobs, report = parse_jobs_csv(sources[source](), mode="lenient")
    assert [j.command for j in jobs] == ["a\rb"]
    assert report.rejected_reasons[0][0] == 3


@pytest.mark.parametrize("source", ["path", "bytes"])
def test_stats_row_loop_counts_lines_at_lf_after_a_lone_cr(tmp_path, source):
    """A line holding a CR is one bad line, counted at LF, whether the CR is
    quoted or ends a row that shares the LF line with the next."""
    two_rows = GOOD_ROW + "\r" + NEGATIVE_ROW.replace("00:06", "00:09")
    text = stats_text(LONE_CR_NODE, GOOD_ROW, two_rows, NEGATIVE_ROW)
    path = tmp_path / "stats.csv"
    path.write_bytes(text.encode("utf-8"))
    sources = {"path": lambda: path, "bytes": lambda: io.BytesIO(text.encode("utf-8"))}
    parsed, report = parse_stats_csv(sources[source](), mode="lenient")
    assert one_block(parsed).node_labels == ("nid00001",)
    assert report.rejected_reasons == (
        (2, "line holds '\"'"),
        (4, "line holds '\\r'"),
        (5, f"negative counter in counters {(-1,) + (1,) * 20}"),
    )
    with pytest.raises(IngestError, match="^line 2: line holds '\"'$"):
        parse_stats_csv(sources[source]())


@pytest.mark.parametrize("source", ["path", "bytes"])
def test_a_stats_line_not_utf8_is_a_line_numbered_reject(tmp_path, source):
    """A byte that is not UTF-8 makes its line a bad row; it does not abort
    a lenient parse, and a strict one names its line."""
    data = stats_text(GOOD_ROW, "\udcff", NEGATIVE_ROW).encode("utf-8", "surrogateescape")
    data = data.replace(b"\xff\n", GOOD_ROW.replace("00:00:00", "00:03:00").encode() + b"\xff\n")
    path = tmp_path / "stats.csv"
    path.write_bytes(data)
    sources = {"path": lambda: path, "bytes": lambda: io.BytesIO(data)}
    parsed, report = parse_stats_csv(sources[source](), mode="lenient")
    assert len(one_block(parsed)) == report.rows_accepted == 1
    assert [reason.split(" ")[0] for _, reason in report.rejected_reasons] == ["not", "negative"]
    assert report.rejected_reasons[0] == (3, "not UTF-8")
    with pytest.raises(IngestError, match="^line 3: not UTF-8$"):
        parse_stats_csv(sources[source]())


def test_a_crlf_stats_file_is_refused_at_its_header():
    text = stats_text(GOOD_ROW).replace("\n", "\r\n")
    for mode in ("strict", "lenient"):
        with pytest.raises(IngestError, match=r"^line 1: bad header .*'cdr\\r'\]"):
            parse_stats_csv(stats_stream(text), mode)


def test_a_quoted_stats_id_is_a_reject():
    """A stats line is not CSV: a quoted id is a bad row, not an id."""
    text = stats_text(GOOD_ROW, '2017-10-09T00:00:00Z,fs2,"a,b",' + ",".join(["1"] * 21))
    parsed, report = parse_stats_csv(stats_stream(text), mode="lenient")
    assert one_block(parsed).node_labels == ("nid00001",)
    assert report.rejected_reasons == ((3, "line holds '\"'"),)
    with pytest.raises(IngestError, match="^line 3: line holds '\"'$"):
        parse_stats_csv(stats_stream(text))


def test_a_store_error_counts_lines_at_lf_after_a_lone_cr(tmp_path):
    store = Store(tmp_path / "store")
    partition = Partition("jobs", None, 0)
    jobs = [mk_job("app1", ["n1"], 3600, 7200, command="a\rb"), mk_job("app2", ["n2"], 3600, 7200)]
    store.write_partition(jobs, partition)
    path = store.path(partition)
    data = path.read_bytes()
    assert data.count(b"\n") == 3 and b'"a\rb"' in data  # header, app1, app2
    path.write_bytes(data.replace(b"app2,", b"app1,"))
    with pytest.raises(StoreError, match="line 3: duplicate app_id"):
        store.read_range("jobs", None, 0, DAY)

    # the aggregate row reader counts the same way
    store.write_aggregates("fs2", 0, [AppHourRecord("a\rb", "fs2", 0, (0,) * 21)], [])
    path = store.path(Partition("app_hours", "fs2", 0))
    path.write_bytes(path.read_bytes() + b"1970-01-01T00:00:00Z,fs2\n")
    with pytest.raises(StoreError, match="line 3: expected 24 columns, got 2"):
        store.read_range("app_hours", "fs2", 0, DAY)


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        parse_stats_csv(stats_stream(stats_text()), mode="permissive")


small_counters = st.lists(st.integers(min_value=0, max_value=999), min_size=21, max_size=21)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["fs1", "fs2"]),
            st.sampled_from(["nid1", "nid2", "nid3"]),
            st.integers(min_value=0, max_value=400).map(lambda i: i * 180),
            small_counters,
        ),
        max_size=30,
        unique_by=lambda t: (t[0], t[1], t[2]),
    )
)
def test_stats_serialize_parse_round_trip(rows):
    blocks = fs_blocks(
        mk_sample(fs, node, w, **dict(zip(("read_kb", "open"), (vec[0], vec[5]))))
        for fs, node, w, vec in rows
    )
    text = serialize_stats_csv(*blocks)
    parsed, report = parse_stats_csv(stats_stream(text))
    assert report.rows_rejected == 0
    assert parsed == partitions(*blocks)
    # canonical form is a fixed point
    assert serialize_stats_csv(*parsed.values()) == text


@pytest.mark.parametrize("command", ["./a.x\r", "a\rb", "a\r\nb", 'a,"\rb"'])
def test_job_command_with_cr_reads_back_from_the_store(tmp_path, command):
    store = Store(tmp_path / "store")
    job = mk_job("app1", ["n1"], 3600, 7200, command=command)
    store.write_partition([job], Partition("jobs", None, 0))
    (back,) = store.read_range("jobs", None, 0, DAY)
    assert back == job
    text = serialize_jobs_csv([job])
    assert serialize_jobs_csv(parse_jobs_csv(io.StringIO(text))[0]) == text


def test_jobs_serialize_parse_round_trip():
    jobs = [
        mk_job("app2", ["n2", "n1"], 3600, 7200, command="b  cmd"),
        mk_job("app1", ["n3"], 3600, 9000, command="a cmd"),
    ]
    text = serialize_jobs_csv(jobs)
    lines = text.splitlines()
    assert lines[1].startswith("app1,")  # sorted by (start, app_id)
    assert "n1;n2" in lines[2]  # nodes sorted and ;-joined
    parsed, _ = parse_jobs_csv(io.StringIO(text))
    assert {j.app_id for j in parsed} == {"app1", "app2"}
    assert serialize_jobs_csv(parsed) == text
