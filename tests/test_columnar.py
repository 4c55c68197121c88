"""The columnar sample block: clean-file parsing, merging, vector attribution.

The row-by-row stats parser and the per-sample attribution loop are the
references here: the block paths must return exactly what they return.
"""

import csv
import io
import random
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    BASE_DAY,
    block_rows,
    mk_block,
    mk_counters,
    mk_job,
    mk_sample,
    result_dicts,
)
from lassi import ingest
from lassi.attribution import (
    AttributionConfig,
    _node_index,
    aggregate_hourly,
    attribute,
    fs_hourly_totals,
)
from lassi.errors import IngestError, LassiError
from lassi.ingest import STATS_HEADER, _parse_stats_rows, parse_stats_csv, serialize_stats_csv
from lassi.model import INT64_MAX, SampleBlock
from lassi.pipeline import _merge_samples, ingest_files
from lassi.store import Store
from lassi.timeutil import DAY, HOUR, floor_hour, format_utc, parse_utc

HEADER = ",".join(STATS_HEADER)
T0 = "2017-10-09T00:00:00Z"
T1 = "2017-10-09T00:03:00Z"


def row(ts=T0, fs="fs2", node="nid1", counters=("1",) * 21):
    return ",".join((ts, fs, node) + tuple(counters))


def text_of(*rows, end="\n"):
    return end.join((HEADER,) + rows) + end


def row_loop(text, mode, window_len=180):
    """What the row loop alone returns for the whole text."""
    return _parse_stats_rows(text, mode, window_len)


def outcome(fn, *args):
    try:
        return fn(*args)
    except IngestError as exc:
        return ("IngestError", exc.line, exc.reason)


# (range characters, leaf lines): as shipped, and small enough that ranges of
# one to a few lines are halved down to leaves of one or two
SPLITS = [(ingest._RANGE_CHARS, ingest._LEAF_LINES), (1, 1), (300, 1), (300, 2)]


def assert_agrees(text, window_len=180):
    """parse_stats_csv equals the whole-text row loop in both modes, under every split."""
    for range_chars, leaf_lines in SPLITS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_RANGE_CHARS", range_chars)
            mp.setattr(ingest, "_LEAF_LINES", leaf_lines)
            for mode in ("strict", "lenient"):
                got = outcome(parse_stats_csv, io.StringIO(text), mode, window_len)
                want = outcome(row_loop, text, mode, window_len)
                assert got == want, (range_chars, leaf_lines, mode, text)


# --- timestamps are exact -------------------------------------------------


def test_parse_utc_rejects_single_digit_fields():
    with pytest.raises(ValueError):
        parse_utc("2017-10-9T1:2:3Z")
    assert parse_utc("2017-10-09T01:02:03Z") == 1507510923


def test_single_digit_timestamp_is_a_line_numbered_reject():
    text = text_of(row(), row(ts="2017-10-9T0:3:0Z"))
    with pytest.raises(IngestError) as err:
        parse_stats_csv(io.StringIO(text))
    assert err.value.line == 3
    assert "bad timestamp" in err.value.reason

    block, report = parse_stats_csv(io.StringIO(text), mode="lenient")
    assert len(block) == 1
    assert report.rejected_reasons == ((3, "bad timestamp '2017-10-9T0:3:0Z'"),)


# --- int64 guard ----------------------------------------------------------


@pytest.mark.parametrize("big", [str(2**63), str(10**30)])
def test_counter_above_int64_is_a_line_numbered_reject(big):
    text = text_of(row(), row(ts=T1, counters=(big,) + ("0",) * 20))
    with pytest.raises(IngestError) as err:
        parse_stats_csv(io.StringIO(text))
    assert (err.value.line, err.value.reason) == (3, "counter exceeds int64 range")

    block, report = parse_stats_csv(io.StringIO(text), mode="lenient")
    assert len(block) == 1
    assert report.rejected_reasons == ((3, "counter exceeds int64 range"),)


def test_int64_max_counter_is_exact():
    text = text_of(row(counters=(str(INT64_MAX),) + ("0",) * 20))
    block, report = parse_stats_csv(io.StringIO(text))
    assert block.counters.tolist() == [list(mk_counters(read_kb=INT64_MAX))]
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


def test_a_cell_past_the_csv_field_limit_is_a_line_numbered_reject():
    limit = csv.field_size_limit()
    long_row = row(node="n" * (limit + 1))
    plain = text_of(long_row, row())
    # the same file with one cell quoted goes whole to the row loop
    quoted = text_of(long_row, row(node='"nid1"'))
    reason = f"field larger than field limit ({limit})"
    for text in (plain, quoted):
        assert_agrees(text)
        block, report = parse_stats_csv(io.StringIO(text), "lenient")
        assert [block.key(i) for i in range(len(block))] == [("fs2", "nid1", BASE_DAY)]
        assert report.rejected_reasons == ((2, reason),)
        with pytest.raises(IngestError) as err:
            parse_stats_csv(io.StringIO(text))
        assert (err.value.line, err.value.reason) == (2, reason)
    assert outcome(parse_stats_csv, io.StringIO(plain), "lenient") == outcome(
        parse_stats_csv, io.StringIO(quoted), "lenient"
    )
    # a cell of exactly the limit is a cell like any other
    block, report = parse_stats_csv(io.StringIO(text_of(row(node="n" * limit))))
    assert (len(block), report.rows_rejected) == (1, 0)


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


# shapes read column-wise whole, and those whose rows pass the range proof
# except one, which alone goes through the row loop
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
}
ONE_BAD_ROW = {"off grid", "negative", "empty id", "single-digit time"}


def test_clean_path_takes_canonical_files_only(monkeypatch):
    seen = looped_lines(monkeypatch)
    for name, text in _shapes().items():
        seen.clear()
        outcome(parse_stats_csv, io.StringIO(text), "lenient")
        if name in CLEAN_SHAPES:
            assert seen == [], name
        elif name in ONE_BAD_ROW:
            assert seen == [3], name
        else:
            assert seen, name
    seen.clear()
    parse_stats_csv(io.StringIO(_shapes()["canonical"]), "lenient", 7)  # 7 does not divide 3600
    assert seen == [2, 3, 4]


ts_tokens = st.sampled_from(
    [T0, T1, "2017-10-09T00:06:00Z", "2017-10-09T00:01:00Z", "2017-10-9T0:3:0Z", "nope"]
)
id_tokens = st.sampled_from(
    ["fs1", "fs2", "nid1", "n,1", 'n"1', "a#b", "", " x", "é", "a\x0cb", "\x85", "n\u2028"]
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


@pytest.mark.parametrize("split", [(ingest._RANGE_CHARS, ingest._LEAF_LINES), (4096, 4)])
@pytest.mark.parametrize("every", [None, 97, 331])
def test_dirty_file_agrees_with_row_loop(monkeypatch, split, every):
    monkeypatch.setattr(ingest, "_RANGE_CHARS", split[0])
    monkeypatch.setattr(ingest, "_LEAF_LINES", split[1])
    text = text_of(*dirty_lines(11, every))
    for mode in ("strict", "lenient"):
        got = outcome(parse_stats_csv, io.StringIO(text), mode)
        want = outcome(row_loop, text, mode)
        assert got == want, mode
    block, report = got
    assert report.rows_read > len(block) > 2900
    kinds = {"negative", "window_start", "expected", "non-integer"} if every else set()
    assert {reason.split(" ")[0] for _, reason in report.rejected_reasons} == kinds | {"duplicate"}


def test_sparse_bad_rows_cost_the_row_loop_a_leaf_each(monkeypatch):
    monkeypatch.setattr(ingest, "_RANGE_CHARS", 4096)  # about 27 lines
    monkeypatch.setattr(ingest, "_LEAF_LINES", 4)
    text = text_of(*dirty_lines(11, every=331))
    seen = looped_lines(monkeypatch)
    _, report = parse_stats_csv(io.StringIO(text), "lenient")
    bad_rows = sum(not reason.startswith("duplicate") for _, reason in report.rejected_reasons)
    blank_lines = text.count("\n\n")
    assert (bad_rows, blank_lines) == (10, 3)
    assert len(seen) <= 4 * (bad_rows + blank_lines)


# --- canonical serialization ---------------------------------------------


def reference_serialize(samples):
    """Canonical stats CSV of (fs, node, window, counters) rows as the csv
    module writes it, one row at a time.

    Each row is written with a CRLF terminator, which makes the writer quote
    any field holding a CR, and then ended with LF instead.
    """
    rows = [STATS_HEADER] + [
        (format_utc(w), fs, node) + tuple(vec)
        for fs, node, w, vec in sorted(samples, key=lambda s: (s[2], s[0], s[1]))
    ]
    lines = []
    for r in rows:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(r)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines)


awkward_ids = st.text(
    alphabet=st.sampled_from(["a", "b", ",", '"', "\n", "\r", " ", "#", "é"]),
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
def test_serialize_matches_csv_writer(rows):
    text = serialize_stats_csv(mk_block(rows))
    assert text == reference_serialize(rows)
    back, report = parse_stats_csv(io.StringIO(text))
    assert report.rows_rejected == 0
    assert serialize_stats_csv(back) == text


# --- block construction ---------------------------------------------------


def test_from_columns_puts_rows_in_canonical_order():
    samples = [
        mk_sample("fs2", "nid2", BASE_DAY, read_kb=1),
        mk_sample("fs1", "nid9", BASE_DAY + 180, open=2),
        mk_sample("fs1", "nid1", BASE_DAY),
    ]
    block = mk_block(samples)
    assert len(block) == 3
    assert [block.key(i) for i in range(3)] == [
        ("fs1", "nid1", BASE_DAY),
        ("fs2", "nid2", BASE_DAY),
        ("fs1", "nid9", BASE_DAY + 180),
    ]
    assert block.counters.tolist() == [[0] * 21, list(samples[0][3]), list(samples[1][3])]
    assert mk_block(reversed(samples)) == block
    assert block != mk_block(samples, window_len=360)


def test_block_rejects_duplicates_and_mixed_window_lengths():
    with pytest.raises(ValueError, match="duplicate"):
        mk_block([mk_sample("fs2", "nid1", 0), mk_sample("fs2", "nid1", 0)])
    with pytest.raises(ValueError, match="window lengths"):
        SampleBlock.concat(
            [mk_block([mk_sample("fs2", "n1", 0)]), mk_block([mk_sample("fs2", "n2", 0)], 900)]
        )


def test_concat_restores_canonical_order():
    a = mk_block([mk_sample("fs2", "n1", 0), mk_sample("fs2", "n1", 360)])
    b = mk_block([mk_sample("fs1", "n1", 180), mk_sample("fs1", "n1", 360)])
    both = SampleBlock.concat([a, b])
    assert [(w, fs) for fs, _, w, _ in block_rows(both)] == [
        (0, "fs2"),
        (180, "fs1"),
        (360, "fs1"),
        (360, "fs2"),
    ]
    assert SampleBlock.concat([a.take([0]), a.take([1])]) == a
    with pytest.raises(ValueError, match="duplicate"):
        SampleBlock.concat([a, a])


# --- the code form equals a string-keyed reference --------------------------

# ids whose first-seen order differs from their sorted order ("n9" before
# "n10"), ids the csv writer quotes, and non-ASCII ids
code_ids = st.sampled_from(["n9", "n10", "n1", "a,b", 'q"t', "é", "Ω2", "z"]) | awkward_ids
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
    """Label tables sorted, distinct and all used; every code indexes its table."""
    for labels, codes in ((block.fs_labels, block.fs), (block.node_labels, block.node)):
        assert type(labels) is tuple and list(labels) == sorted(set(labels))
        assert codes.dtype == np.int32
        assert sorted(set(codes.tolist())) == list(range(len(labels)))


def first_duplicate(a, b):
    """The message naming the lowest (window, fs, node) key both row lists hold."""
    both = {r[:3] for r in a} & {r[:3] for r in b}
    fs, node, w = min(both, key=lambda k: (k[2], k[0], k[1]))
    return f"duplicate sample for {(fs, node, w)}"


@settings(max_examples=150, deadline=None)
@given(old=sample_rows, new=sample_rows, mask=st.lists(st.booleans(), min_size=14, max_size=14))
def test_code_form_matches_string_keyed_reference(old, new, mask):
    a, b = mk_block(old), mk_block(new)
    for block, rows in ((a, old), (b, new)):
        assert_code_form(block)
        assert block_rows(block) == canonical_rows(rows)
        assert [block.key(i) for i in range(len(block))] == [r[:3] for r in canonical_rows(rows)]

    # take keeps the selected rows and only the labels they use
    picked = a.take(np.array(mask[: len(a)], bool))
    assert_code_form(picked)
    assert block_rows(picked) == [r for r, m in zip(canonical_rows(old), mask) if m]

    # concat: the sorted union, or the lowest shared key named in the error
    if {r[:3] for r in old} & {r[:3] for r in new}:
        with pytest.raises(ValueError) as exc:
            SampleBlock.concat([a, b])
        assert str(exc.value) == first_duplicate(old, new)
    else:
        both = SampleBlock.concat([a, b])
        assert_code_form(both)
        assert block_rows(both) == canonical_rows(old + new)
        assert both == mk_block(new + old)

    # _merge_samples: new rows win; strict refuses the lowest changed key
    union = {r[:3]: r for r in old}
    changed = sorted(
        (r for r in new if r[:3] in union and union[r[:3]] != r), key=lambda r: (r[2], r[0], r[1])
    )
    union.update({r[:3]: r for r in new})
    merged, count = _merge_samples(a, b, "lenient", "here")
    assert_code_form(merged)
    assert block_rows(merged) == canonical_rows(list(union.values()))
    assert count == len(changed)
    if old and not changed and len(union) == len(old):
        assert merged is a
    if changed:
        with pytest.raises(IngestError) as exc:
            _merge_samples(a, b, "strict", "here")
        assert exc.value.reason == f"sample {changed[0][:3]} conflicts here"
    else:
        assert _merge_samples(a, b, "strict", "here") == (merged, 0)

    # the canonical text parses back to the block, and so does the same
    # rows' text in drawn order, whose ids come first-seen unsorted
    text = serialize_stats_csv(merged)
    back, report = parse_stats_csv(io.StringIO(text))
    assert report.rows_rejected == 0
    assert_code_form(back)
    assert back == merged
    drawn = ingest.render_csv(
        STATS_HEADER, [(format_utc(w), fs, node) + vec for fs, node, w, vec in union.values()]
    )
    assert parse_stats_csv(io.StringIO(drawn))[0] == merged


def test_ingest_merges_overlapping_files_in_one_call(tmp_path):
    one, two = tmp_path / "a.csv", tmp_path / "b.csv"
    one.write_text(text_of(row(), row(ts=T1)), encoding="utf-8")
    two.write_text(text_of(row(ts=T1), row(node="nid2")), encoding="utf-8")
    store = Store(tmp_path / "store")
    summary = ingest_files(store, [one, two])
    assert (summary.samples, summary.rejected) == (3, 0)
    got = store.read_range("samples", "fs2", BASE_DAY, BASE_DAY + DAY)
    assert [(w, node) for _, node, w, _ in block_rows(got)] == [
        (BASE_DAY, "nid1"),
        (BASE_DAY, "nid2"),
        (BASE_DAY + 180, "nid1"),
    ]

    changed = tmp_path / "c.csv"
    changed.write_text(text_of(row(counters=("9",) * 21), row(ts=T1)), encoding="utf-8")
    summary = ingest_files(store, [changed], mode="lenient")
    assert summary.rejected == 1  # one stored row replaced, one identical
    got = store.read_range("samples", "fs2", BASE_DAY, BASE_DAY + 1)
    assert got.counters[0].tolist() == [9] * 21


# --- vector attribution agrees with the per-sample loop --------------------


def accumulate(acc, key, vec):
    slot = acc.setdefault(key, [0] * len(vec))
    for i, v in enumerate(vec):
        slot[i] += v


def reference_attribute(samples, jobs, config):
    """The per-sample attribution loop the vector path replaced, over
    (fs, node, window, counters) rows of config.window_len windows."""
    index = _node_index(jobs)
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


def reference_aggregate_hourly(attributed, jobs, span):
    """The dict-based hourly rollup the numpy grouping replaced."""
    acc = {}
    for (app_id, fs_id, w), vec in attributed.items():
        accumulate(acc, (app_id, fs_id, w - w % HOUR), vec)
    jobs_by_id = {j.app_id: j for j in jobs}
    for app_id, fs_id in {(a, f) for (a, f, _) in attributed}:
        job = jobs_by_id[app_id]
        first = floor_hour(job.start)
        last = floor_hour(job.end - 1)
        if span is not None:
            first = max(first, floor_hour(span[0]))
            last = min(last, floor_hour(span[1] - 1))
        for hour in range(first, last + 1, HOUR):
            acc.setdefault((app_id, fs_id, hour), [0] * 21)
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
    span=st.sampled_from([None, (BASE_DAY, BASE_DAY + HOUR), (BASE_DAY + HOUR, BASE_DAY + DAY)]),
)
def test_vector_attribution_matches_sample_loop(cuts, cells, policy, span):
    jobs = []
    for node, bounds in zip(NODES, cuts):
        for k, (s, e) in enumerate(zip(bounds[::2], bounds[1::2])):
            jobs.append(mk_job(f"{node}-app{k}", [node], BASE_DAY + s, BASE_DAY + e))
    jobs.reverse()  # job list order differs from app_id order
    samples = [(fs, node, BASE_DAY + i * 180, tuple(vec)) for fs, node, i, vec in cells]
    block = mk_block(samples)
    config = AttributionConfig(boundary_policy=policy)
    result = attribute(block, jobs, config)
    want_attributed, want_unattributed = reference_attribute(samples, jobs, config)
    assert result_dicts(result) == (want_attributed, want_unattributed)
    got_totals = [
        (r.hour, r.fs_id, r.counters, r.unattributed) for r in fs_hourly_totals(block, result)
    ]
    assert got_totals == reference_fs_totals(samples, want_unattributed)
    got_hours = [
        (r.hour, r.fs_id, r.app_id, r.counters) for r in aggregate_hourly(result, jobs, span)
    ]
    assert got_hours == reference_aggregate_hourly(want_attributed, jobs, span)
