"""CSV ingest for samples and job records, and canonical serialization of jobs.

Stats files carry one row per (filesystem, node, window) with 21 counters:

    window_start,fs,node,read_kb,read_ops,write_kb,write_ops,other,open,close,
    mknod,link,unlink,mkdir,rmdir,ren,getattr,setattr,getxattr,setxattr,
    statfs,sync,sdr,cdr

Job files carry one row per application run:

    app_id,job_id,user,start,end,nodes,command

Timestamps are ISO-8601 UTC with a trailing Z. The nodes field joins node ids
with ';'. The command field is RFC-4180 quoted when it contains commas or
quotes. Canonical form (what serialize_jobs_csv and render_csv emit) is LF
line endings, minimal quoting plus quotes around any field holding a CR, rows
sorted by primary key; parsing a canonical jobs file and serializing the
result reproduces it byte for byte. The store keeps samples as binary
columns, so no stats CSV writer lives here.

Strict mode raises IngestError at the first invalid row. Lenient mode skips
invalid rows and reports them. A duplicate sample key in lenient mode keeps
the last occurrence and counts each superseded row as rejected; a duplicate
app_id keeps the first and rejects each later one. Counters are spelled
in ASCII digits (parse_int_cells) and must fit in a signed 64-bit integer;
anything else is rejected like any other bad row.

Stats files parse into a SampleBlock, the only form samples take. The body
is read in line-aligned ranges of about 64 KiB. A range proven clean is read
column-wise by np.loadtxt. In a range that fails the proof, the lines of a
plainly clean shape (_CLEAN_ROW) are still read column-wise together, and
only the others go through the row loop, one line at a time with its
absolute line number, so a file with a few bad rows costs about what a clean
one does. The row loop alone decides a bad row's reason; a row the csv
module refuses, such as one holding a cell longer than
csv.field_size_limit(), is a bad row like any other. A file holding a
quote, CR or NUL goes whole to the row loop, since csv quoting can span
lines. Duplicate keys are resolved once over all accepted rows in line
order, so every path gives the whole-file row loop's block, report and
strict error. The fs and node ids of a file are coded as they are first
read, once per distinct id, and the block carries those codes.
"""

from __future__ import annotations

import csv
import io
import re
import warnings
from dataclasses import dataclass, field
from itertools import chain, takewhile
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import IngestError
from .model import (
    ALL_FIELDS,
    INT64_MAX,
    JobRecord,
    SampleBlock,
    canonical_order,
    label_codes,
)
from .timeutil import HOUR, format_utc, parse_utc

STATS_HEADER = ("window_start", "fs", "node") + ALL_FIELDS

JOBS_HEADER = ("app_id", "job_id", "user", "start", "end", "nodes", "command")

MODES = ("strict", "lenient")

Source = Union[str, Path, IO[str], IO[bytes]]


@dataclass(frozen=True, slots=True)
class IngestReport:
    """Row accounting for one parsed file.

    rows_read counts data rows only (no header) and always equals
    rows_accepted + rows_rejected.
    """

    rows_read: int
    rows_accepted: int
    rows_rejected: int
    first_error_line: int | None = None
    rejected_reasons: tuple[tuple[int, str], ...] = field(default=())


def _open_source(source: Source) -> tuple[IO[str], bool]:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline=""), True
    if hasattr(source, "read"):
        probe = source.read(0)
        if isinstance(probe, bytes):
            return io.TextIOWrapper(source, encoding="utf-8", newline=""), False
        return source, False
    raise TypeError(f"cannot read from {type(source).__name__}")


def csv_rows(lines: Iterable[str], first: int) -> Iterator[tuple[int, list[str] | csv.Error]]:
    """(line, cells) of each csv row of lines, where the first of lines is
    line first: each row has the number of the line it starts on, so a
    quoted cell that spans lines does not shift later rows. Lines are counted
    at LF, as wc -l and the stats range reader count them: a piece of lines
    ending at a lone CR continues its line, though the csv module may end a
    row there. A row the csv module refuses, such as one holding a cell
    longer than csv.field_size_limit(), comes with its csv.Error in place of
    cells."""
    line = first

    def pieces() -> Iterator[str]:
        nonlocal line
        for piece in lines:
            if not piece.endswith("\r"):
                line += 1
            yield piece

    reader = csv.reader(pieces())
    while True:
        at = line
        try:
            yield at, next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            yield at, exc


def _check_header(row: list[str] | csv.Error | None, expected: tuple[str, ...]) -> None:
    if row is None:
        raise IngestError(1, "empty file: missing header")
    if isinstance(row, csv.Error):
        raise IngestError(1, f"bad header: {row}")
    if tuple(row) != expected:
        raise IngestError(1, f"bad header {row!r}; expected {','.join(expected)}")


class _Rejects:
    """Collects rejections in lenient mode; raises immediately in strict."""

    def __init__(self, mode: str):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.strict = mode == "strict"
        self.rows: list[tuple[int, str]] = []

    def add(self, line: int, reason: str) -> None:
        if self.strict:
            raise IngestError(line, reason)
        self.rows.append((line, reason))

    def report(self, rows_read: int, rows_accepted: int) -> IngestReport:
        rows = sorted(self.rows)
        return IngestReport(
            rows_read=rows_read,
            rows_accepted=rows_accepted,
            rows_rejected=len(rows),
            first_error_line=rows[0][0] if rows else None,
            rejected_reasons=tuple(rows),
        )


# cells spelled -?[0-9]+ in ASCII, joined by commas; the sign is allowed so a
# negative counter is refused as negative rather than as a bad spelling
_INT_CELLS = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")


def parse_int_cells(cells: Sequence[str]) -> list[int]:
    """The integers spelled by cells; ValueError unless each is -?[0-9]+ in ASCII.

    This is the one integer grammar of counter cells: int() alone would also
    take "1_000", " +2" or "٣".
    """
    if _INT_CELLS.fullmatch(",".join(cells)) is None:
        raise ValueError(f"non-integer cell in {list(cells)!r}")
    return list(map(int, cells))


def parse_stats_csv(
    source: Source, mode: str = "strict", window_len: int = 180
) -> tuple[SampleBlock, IngestReport]:
    """Parse a stats CSV into a sample block plus an ingest report.

    The body is cut into line-aligned ranges of about _RANGE_CHARS
    characters. A range that passes the clean proof (_StatsRows._read_range)
    is read column-wise, and a row of it with a negative counter, a bad
    timestamp or an empty id goes alone through the row loop. In a range
    that fails, the lines _CLEAN_ROW matches are read column-wise together,
    and each other line goes through the row loop with its absolute line
    number, so the row loop sees only the bad and the blank lines. A file
    holding a quote, CR or NUL, or a window_len that does not divide an
    hour, goes whole to the row loop. Duplicate keys are resolved once over
    all accepted rows in line order (_StatsRows.result), so the answer is
    the whole-file row loop's: the same block, report and strict error.
    Strict mode reads no range after the first one holding a bad row.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    stream, owned = _open_source(source)
    try:
        text = stream.read()
    finally:
        if owned:
            stream.close()
    if window_len <= 0 or HOUR % window_len or any(c in text for c in _CSV_SPECIAL):
        return _parse_stats_rows(text, mode, window_len)
    pos = text.find("\n") + 1 or len(text)  # past the header, without copying the body
    _check_header(next(csv_rows([text[:pos]], 1))[1] if text else None, STATS_HEADER)
    rows = _StatsRows(text.count("\n", pos) + 1, mode, window_len)
    line = 2
    while pos < len(text) and not rows.done():
        stop = text.find("\n", pos + _RANGE_CHARS) + 1 or len(text)
        chunk = text[pos:stop]
        lines = chunk.split("\n")
        if not lines[-1]:
            lines.pop()
        rows.add_range(chunk, lines, line)
        pos, line = stop, line + len(lines)
    return rows.result()


def _parse_stats_rows(text: str, mode: str, window_len: int) -> tuple[SampleBlock, IngestReport]:
    """The whole file through the row loop; the reference the ranges must equal."""
    lines = csv_rows(io.StringIO(text, newline=""), 1)
    _check_header(next(lines, (1, None))[1], STATS_HEADER)
    rows = _StatsRows(0, mode, window_len)
    rows.row_loop(takewhile(lambda _: not rows.done(), lines))
    return rows.result()


# a file holding one of these goes whole to the row loop: the csv module reads
# quotes and CR across lines, and before Python 3.11 refuses NUL
_CSV_SPECIAL = ('"', "\r", "\x00")
# what fails an ASCII range's clean proof: "+" and any whitespace but LF,
# which np.loadtxt takes around a number
_UNCLEAN_CHARS = ("+", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")
# one row read whole by np.loadtxt: the three key columns as str, then counters
_STATS_ROW_DTYPE = np.dtype([("key", object, (3,)), ("counters", np.int64, (len(ALL_FIELDS),))])
# a range holds about this many characters, so a np.loadtxt call's transient
# row objects stay small next to the columns it fills
_RANGE_CHARS = 1 << 16
# a line the clean proof is sure to pass: ids of printable ASCII but space,
# '"', "+" and ",", and counters of at most 18 digits, which fit in int64
_CLEAN_ROW = re.compile(r"(?:[!#-*\-./0-9:-~]*,){3}-?[0-9]{1,18}(?:,-?[0-9]{1,18}){20}")
# the window of a row whose timestamp parse_utc refuses; no timestamp has it
_NO_STAMP = np.iinfo(np.int64).min


class _IdCodes(dict):
    """Each distinct id's code, given in first-seen order on first lookup."""

    def __missing__(self, key: str) -> int:
        code = self[key] = len(self)
        return code


class _StatsRows:
    """The accepted and the bad rows of one stats file, as they are found.

    Column-read ranges fill preallocated columns; the row loop appends its
    rows to a list. Every accepted row keeps its line number, so duplicate
    keys are resolved in line order once all rows are in (result). fs and
    node ids are held as codes in first-seen order (fs_ids, node_ids), which
    result remaps once to sorted order.
    """

    def __init__(self, capacity: int, mode: str, window_len: int):
        self.strict = mode == "strict"
        self.window_len = window_len
        self.fs = np.empty(capacity, np.int32)
        self.node = np.empty(capacity, np.int32)
        self.window = np.empty(capacity, np.int64)
        self.counters = np.empty((capacity, len(ALL_FIELDS)), np.int64)
        self.line = np.empty(capacity, np.int64)
        self.n = 0  # column rows filled
        # (line, fs code, node code, window, counters) of each row the row loop accepts
        self.rows: list[tuple[int, int, int, int, list[int]]] = []
        self.bad: list[tuple[int, str]] = []  # (line, reason) of each bad row
        self.fs_ids = _IdCodes()
        self.node_ids = _IdCodes()
        self.starts: dict[str, int] = {}  # timestamp -> window start or _NO_STAMP

    def done(self) -> bool:
        """Whether strict mode has its answer: once a range with a bad row is
        taken whole, no later line can hold an earlier error."""
        return self.strict and bool(self.bad)

    def add_range(self, text: str, lines: list[str], first: int) -> None:
        """Take lines first, first + 1, ... (text is them joined by LF),
        column-wise if they pass the clean proof. Otherwise the lines that
        _CLEAN_ROW matches are read column-wise together, and every other
        line (or every line, should those fail the proof too) goes alone
        through the row loop."""
        if self._read_range(text, lines, range(first, first + len(lines))):
            return
        limit = csv.field_size_limit()
        clean = [len(line) <= limit and _CLEAN_ROW.fullmatch(line) is not None for line in lines]
        picked = [line for line, ok in zip(lines, clean) if ok]
        line_nos = [first + i for i, ok in enumerate(clean) if ok]
        if picked and self._read_range("\n".join(picked), picked, line_nos):
            rest = [i for i, ok in enumerate(clean) if not ok]
        else:
            rest = range(len(lines))
        self.row_loop(chain.from_iterable(csv_rows([lines[i]], first + i) for i in rest))

    def _read_range(self, text: str, lines: list[str], line_nos: Sequence[int]) -> bool:
        """Read lines, numbered line_nos (text is them joined by LF),
        column-wise if they pass the clean proof; False if not.

        The proof: no cell longer than csv.field_size_limit(), which only a
        range longer than that limit can hold; ASCII only; no "+" or
        whitespace other than LF; 23 commas on every line; every line read
        by np.loadtxt as three keys and 21 int64 counters. np.loadtxt reads
        a signed or space-padded token, and gives a non-ASCII one a value,
        where parse_int_cells refuses it; on what is left it takes only
        -?[0-9]+, with int()'s value. A row of a proven range with a
        negative counter, an inexact or off-grid timestamp or an empty id
        goes alone through the row loop.
        """
        limit = csv.field_size_limit()
        if len(text) > limit and any(
            len(cell) > limit for line in lines if len(line) > limit for cell in line.split(",")
        ):
            return False
        if not text.isascii() or any(c in text for c in _UNCLEAN_CHARS):
            return False
        if text.count(",") != len(lines) * (len(STATS_HEADER) - 1):
            return False
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(
                    lines, delimiter=",", comments=None, dtype=_STATS_ROW_DTYPE, ndmin=1
                )
        except (ValueError, Warning):
            return False
        if len(table) != len(lines):
            return False
        keys = table["key"]
        stamps = keys[:, 0].tolist()
        for stamp in set(stamps) - self.starts.keys():
            try:
                self.starts[stamp] = parse_utc(stamp)
            except ValueError:
                self.starts[stamp] = _NO_STAMP
        fs_ids, node_ids = self.fs_ids, self.node_ids
        at = slice(self.n, self.n + len(lines))
        fs, node, window, counters = self.fs[at], self.node[at], self.window[at], self.counters[at]
        window[:] = [self.starts[stamp] for stamp in stamps]
        fs[:] = np.fromiter(map(fs_ids.__getitem__, keys[:, 1].tolist()), np.int32, len(lines))
        node[:] = np.fromiter(map(node_ids.__getitem__, keys[:, 2].tolist()), np.int32, len(lines))
        counters[:] = table["counters"]
        line = self.line[at]
        line[:] = line_nos
        # only a range holding a bad row pays for the row mask; an empty id
        # needs two adjacent commas
        if (
            counters.min() >= 0
            and window.min() != _NO_STAMP
            and not (window % self.window_len).any()
            and ",," not in text
        ):
            self.n += len(lines)
            return True
        bad = (
            (counters < 0).any(axis=1)
            | (window == _NO_STAMP)
            | (window % self.window_len != 0)
            | (fs == fs_ids.get("", -1))
            | (node == node_ids.get("", -1))
        )
        # the bad rows' line numbers are taken before the columns are compacted
        looped = zip(line[bad].tolist(), csv.reader(lines[i] for i in np.flatnonzero(bad).tolist()))
        good = ~bad
        kept = int(good.sum())
        for column in (fs, node, window, counters, line):
            column[:kept] = column[good]
        self.n += kept
        self.row_loop(looped)
        return True

    def row_loop(self, rows: Iterable[tuple[int, list[str] | csv.Error]]) -> None:
        """Check (line, cells) rows one by one; a blank row is skipped.

        A row must be readable as csv (cells, not a csv.Error), have 24
        cells, an exact timestamp on the window_len grid, non-empty ids and
        counters (parse_int_cells) in [0, 2**63 - 1]; a window_len that does
        not divide an hour makes every row bad.
        """
        window_len = self.window_len
        bad_len = window_len <= 0 or HOUR % window_len != 0
        fs_ids, node_ids = self.fs_ids, self.node_ids
        for line_no, row in rows:
            if isinstance(row, csv.Error):
                self.bad.append((line_no, str(row)))
                continue
            if not row:
                continue
            if len(row) != len(STATS_HEADER):
                reason = f"expected {len(STATS_HEADER)} columns, got {len(row)}"
                self.bad.append((line_no, reason))
                continue
            try:
                window_start = parse_utc(row[0])
            except ValueError:
                self.bad.append((line_no, f"bad timestamp {row[0]!r}"))
                continue
            try:
                vals = parse_int_cells(row[3:])
            except ValueError:
                self.bad.append((line_no, "non-integer counter value"))
                continue
            if max(vals) > INT64_MAX:
                self.bad.append((line_no, "counter exceeds int64 range"))
            elif min(vals) < 0:
                self.bad.append((line_no, f"negative counter in counters {tuple(vals)}"))
            elif bad_len:
                self.bad.append((line_no, f"window_len {window_len} must divide 3600"))
            elif window_start % window_len:
                self.bad.append(
                    (line_no, f"window_start {window_start} not aligned to {window_len}s grid")
                )
            elif not row[1] or not row[2]:
                self.bad.append((line_no, "fs_id and node_id must be non-empty"))
            else:
                self.rows.append((line_no, fs_ids[row[1]], node_ids[row[2]], window_start, vals))

    def result(self) -> tuple[SampleBlock, IngestReport]:
        """The block and report of all rows, duplicate keys resolved in line order.

        Lenient mode keeps each key's last row and rejects every earlier one
        as superseded by the next; strict mode raises the lowest-line error
        among the bad rows and the second occurrences of a key.
        """
        n = self.n
        fs, node, window, counters, line = (
            self.fs[:n], self.node[:n], self.window[:n], self.counters[:n], self.line[:n]
        )
        if self.rows:
            lines, fss, nodes, windows, vals = zip(*self.rows)
            fs = np.concatenate([fs, np.array(fss, np.int32)])
            node = np.concatenate([node, np.array(nodes, np.int32)])
            window = np.concatenate([window, np.array(windows, np.int64)])
            counters = np.concatenate([counters, np.array(vals, np.int64)])
            line = np.concatenate([line, np.array(lines, np.int64)])
        fs_labels, fs = label_codes(list(self.fs_ids), fs)
        node_labels, node = label_codes(list(self.node_ids), node)
        order, repeat = canonical_order(fs, node, window, line)
        # a repeated key's row is superseded by the next sorted row, its next occurrence
        superseded = order[repeat]
        by = order[np.flatnonzero(repeat) + 1]
        errors = list(self.bad)
        if self.strict:
            if len(by):
                i = int(by[np.argmin(line[by])])
                key = (fs_labels[fs[i]], node_labels[node[i]], int(window[i]))
                errors.append((int(line[i]), f"duplicate sample for {key}"))
            if errors:
                raise IngestError(*min(errors))
        errors += [
            (a, f"duplicate (fs, node, window) superseded by line {b}")
            for a, b in zip(line[superseded].tolist(), line[by].tolist())
        ]
        keep = order[~repeat]
        if len(keep) != len(order) or not (np.diff(keep) == 1).all():
            fs, node, window, counters = fs[keep], node[keep], window[keep], counters[keep]
        block = SampleBlock(fs_labels, fs, node_labels, node, window, counters, self.window_len)
        errors.sort()
        return block, IngestReport(
            rows_read=len(order) + len(self.bad),
            rows_accepted=len(block),
            rows_rejected=len(errors),
            first_error_line=errors[0][0] if errors else None,
            rejected_reasons=tuple(errors),
        )


def parse_jobs_csv(source: Source, mode: str = "strict") -> tuple[list[JobRecord], IngestReport]:
    """Parse a jobs CSV into job records plus an ingest report."""
    rejects = _Rejects(mode)
    stream, owned = _open_source(source)
    jobs: list[JobRecord] = []
    seen: dict[str, int] = {}
    rows_read = 0
    try:
        rows = csv_rows(stream, 1)
        _check_header(next(rows, (1, None))[1], JOBS_HEADER)
        for line_no, row in rows:
            if not row:
                continue
            rows_read += 1
            if isinstance(row, csv.Error):
                rejects.add(line_no, str(row))
                continue
            if len(row) != len(JOBS_HEADER):
                rejects.add(line_no, f"expected {len(JOBS_HEADER)} columns, got {len(row)}")
                continue
            app_id = row[0]
            if app_id in seen:
                rejects.add(line_no, "duplicate app_id")
                continue
            try:
                start = parse_utc(row[3])
                end = parse_utc(row[4])
            except ValueError as exc:
                rejects.add(line_no, f"bad timestamp: {exc}")
                continue
            nodes = frozenset(n for n in (t.strip() for t in row[5].split(";")) if n)
            if not row[6].strip():
                rejects.add(line_no, "empty command")
                continue
            try:
                job = JobRecord(
                    app_id=app_id,
                    job_id=row[1],
                    user=row[2],
                    start=start,
                    end=end,
                    nodes=nodes,
                    command=row[6],
                )
            except ValueError as exc:
                rejects.add(line_no, str(exc))
                continue
            seen[app_id] = line_no
            jobs.append(job)
    finally:
        if owned:
            stream.close()
    return jobs, rejects.report(rows_read, len(jobs))


def jobs_rows(jobs: Iterable[JobRecord]) -> list[tuple]:
    """Canonical row tuples for jobs, sorted by (start, app_id)."""
    ordered = sorted(jobs, key=lambda j: (j.start, j.app_id))
    return [
        (
            j.app_id,
            j.job_id,
            j.user,
            format_utc(j.start),
            format_utc(j.end),
            ";".join(sorted(j.nodes)),
            j.command,
        )
        for j in ordered
    ]


class _LfLines(list):
    """Collects csv rows written with CRLF endings, ending each with LF instead.

    A CRLF terminator makes the csv writer quote fields that hold a CR, which
    an LF terminator would leave bare and unreadable.
    """

    def write(self, line: str) -> None:
        self.append(line[:-2] + "\n")


def render_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A header plus rows in canonical CSV form: LF endings, minimal quoting,
    and quotes around any field holding a CR."""
    lines = _LfLines()
    writer = csv.writer(lines, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return "".join(lines)


def serialize_jobs_csv(jobs: Iterable[JobRecord]) -> str:
    """Render job records in canonical jobs CSV form."""
    return render_csv(JOBS_HEADER, jobs_rows(jobs))
