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

Stats files parse into a spill file (SpilledStats), read back as SampleBlocks,
the only form samples take, one partition at a time. The input is streamed in
line-aligned ranges of about 64 KiB and never held as one text. A range
proven clean is read column-wise by np.loadtxt. In a range that fails the
proof, the lines of a plainly clean shape (_CLEAN_ROW) are still read
column-wise together, and only the others go through the row loop, one line
at a time with its absolute line number, so a file with a few bad rows
costs about what a clean one does. The row loop alone decides a bad row's
reason; a row the csv module refuses, such as one holding a cell longer than
csv.field_size_limit(), is a bad row like any other. The first range
holding a quote, CR or NUL starts the row loop, which reads the rest of the
file from that range's first line, since csv quoting can span lines.
Duplicate keys are resolved once over all accepted rows in line order, so
every path gives the whole-file row loop's blocks, report and strict error.
The fs and node ids of a file are coded as they are first read, once per
distinct id; a block holds one filesystem, named once, and carries the
node codes.

Memory: a parse holds one range of input and a few thousand rows, which it
appends to the spill grouped by (filesystem, UTC day) partition; a duplicate
key never spans two partitions, so duplicates are then found, and the
spilled rows later read back, one partition at a time. Only parse_stats_csv
without a spill, and the row-loop reference _parse_stats_rows, hold every
partition's block at once, by (filesystem, day); nothing joins them.
"""

from __future__ import annotations

import csv
import io
import re
import tempfile
import warnings
from contextlib import nullcontext
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
from .timeutil import DAY, HOUR, format_utc, parse_utc

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
    source: Source,
    mode: str = "strict",
    window_len: int = 180,
    spill: IO[bytes] | None = None,
) -> tuple[dict[tuple[str, int], SampleBlock] | SpilledStats, IngestReport]:
    """Parse a stats CSV into its accepted rows plus an ingest report.

    The input is read from the stream in line-aligned ranges of about
    _RANGE_CHARS characters, a partial last line carried to the next range,
    so the file is never held as one text. A range that passes the clean
    proof (_StatsRows._read_range) is read column-wise, and a row of it with
    a negative counter, a bad timestamp or an empty id goes alone through
    the row loop. In a range that fails, the lines _CLEAN_ROW matches are
    read column-wise together, and each other line goes through the row
    loop with its absolute line number, so the row loop sees only the bad
    and the blank lines. The first range holding a quote, CR or NUL starts
    the row loop, which reads from that range's first line to the end of the
    file: no earlier line holds one of these, so each was a whole csv row
    and the csv reader starts there as the whole-file row loop would be.
    Duplicate keys are resolved in line order once all rows are in, so the
    answer is the whole-file row loop's: the same block, report and strict
    error. Strict mode reads no range after the first one holding a bad row.

    The accepted rows are appended to a spill, a seekable binary file,
    _SPILL_ROWS at a time, by (fs, UTC day) partition, so memory holds one
    range of input and, while duplicate keys are resolved, one partition's
    keys. Given a spill, the result holds the file's SpilledStats, to be
    read back one partition at a time. Without one, the rows go to a
    temporary file in the system temp directory, and the result holds each
    (fs, day) partition's block, by key in sorted order.

    A bad mode, or a window_len that does not divide an hour, raises
    ValueError before anything is read.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if window_len <= 0 or HOUR % window_len:
        raise ValueError(f"window_len {window_len} must divide 3600")
    with tempfile.TemporaryFile() if spill is None else nullcontext(spill) as sink:
        rows = _StatsRows(mode, window_len, sink)
        stream, owned = _open_source(source)
        try:
            _read_stats(stream, rows)
        finally:
            if owned:
                stream.close()
        spilled, report = rows.result()
        if spill is not None:
            return spilled, report
        return {key: spilled.block(*key) for key in sorted(spilled.partitions)}, report


def _read_stats(stream: IO[str], rows: _StatsRows) -> None:
    """Give rows the header and then the body of a stats stream, range by range."""
    carry, line = "", 1
    while not rows.done():
        chunk = stream.read(_RANGE_CHARS)
        carry += chunk
        cut = carry.rfind("\n") + 1 if chunk else len(carry)
        if not cut:
            if chunk:
                continue
            break
        text, carry = carry[:cut], carry[cut:]
        if any(c in text for c in _CSV_SPECIAL):
            lines = csv_rows(_pieces(text + carry, stream), line)
            if line == 1:
                _check_header(next(lines, (1, None))[1], STATS_HEADER)
            rows.row_loop(takewhile(lambda _: not rows.done(), lines))
            return
        lines = text.split("\n")
        if not lines[-1]:
            lines.pop()
        if line == 1:
            _check_header(next(csv_rows(lines[:1], 1))[1], STATS_HEADER)
            text, lines, line = text[len(lines[0]) + 1 :], lines[1:], 2
            if not lines:
                continue
        rows.add_range(text, lines, line)
        line += len(lines)
    if line == 1:
        _check_header(None, STATS_HEADER)


def _pieces(text: str, stream: IO[str]) -> Iterator[str]:
    """The lines of text and then of the rest of stream, split as a text
    stream opened with newline="" splits them (at LF, CR LF or a lone CR).
    Each read is cut after its last LF, so no CR LF is split in two."""
    while True:
        chunk = stream.read(_RANGE_CHARS)
        text += chunk
        cut = text.rfind("\n") + 1 if chunk else len(text)
        yield from io.StringIO(text[:cut], newline="")
        if not chunk:
            return
        text = text[cut:]


def _parse_stats_rows(
    text: str, mode: str, window_len: int
) -> tuple[dict[tuple[str, int], SampleBlock], IngestReport]:
    """The whole file through the row loop; the reference the ranges must equal."""
    lines = csv_rows(io.StringIO(text, newline=""), 1)
    _check_header(next(lines, (1, None))[1], STATS_HEADER)
    rows = _StatsRows(mode, window_len, io.BytesIO())
    rows.row_loop(takewhile(lambda _: not rows.done(), lines))
    spilled, report = rows.result()
    return {key: spilled.block(*key) for key in sorted(spilled.partitions)}, report


# a range holding one of these starts the row loop, which reads the rest of the
# file: the csv module reads quotes and CR across lines, and before Python 3.11
# refuses NUL
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
# the row loop hands its accepted rows to the sink once it holds this many
_ROWS_HELD = 1024
# SpilledStats writes the rows it takes once it holds this many (about
# 0.8 MB), so a partition is a few large segments, not one per range
_SPILL_ROWS = 1 << 12


class _IdCodes(dict):
    """Each distinct id's code, given in first-seen order on first lookup."""

    def __missing__(self, key: str) -> int:
        code = self[key] = len(self)
        return code


class _Starts(dict):
    """Each timestamp's window start, or _NO_STAMP where parse_utc refuses
    it, parsed on first lookup."""

    def __missing__(self, stamp: str) -> int:
        try:
            start = parse_utc(stamp)
        except ValueError:
            start = _NO_STAMP
        self[stamp] = start
        return start


def _repeats(node, window, line) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of one partition to keep, in canonical order: of each
    repeated key, its last line. Also the positions of the rows a later row
    of their key supersedes, and of those later rows (each the next
    occurrence)."""
    order, repeat = canonical_order(node, window, line)
    return order[~repeat], order[repeat], order[np.flatnonzero(repeat) + 1]


def _first_repeat(line: np.ndarray, by: np.ndarray, key) -> tuple[int, str] | None:
    """The strict error of the lowest-line second occurrence among rows by,
    named by key(row)."""
    if not len(by):
        return None
    i = int(by[np.argmin(line[by])])
    return int(line[i]), f"duplicate sample for {key(i)}"


class _StatsRows:
    """The accepted and the bad rows of one stats file, as they are found.

    Accepted rows go range by range, each with its line number, to the sink,
    a SpilledStats over spill that groups them by partition. Duplicate keys
    are resolved in line order once all rows are in (result). fs and node
    ids are held as codes in first-seen order (fs_ids, node_ids), which the
    sink's blocks map once to sorted order.
    """

    def __init__(self, mode: str, window_len: int, spill: IO[bytes]):
        self.strict = mode == "strict"
        self.window_len = window_len
        self.sink = SpilledStats(spill, window_len)
        # (line, fs code, node code, window, counters) of rows the row loop
        # accepted and has not yet handed to the sink
        self.rows: list[tuple[int, int, int, int, list[int]]] = []
        self.bad: list[tuple[int, str]] = []  # (line, reason) of each bad row
        self.fs_ids = _IdCodes()
        self.node_ids = _IdCodes()
        self.starts = _Starts()

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
        if self._read_range(text, lines, np.arange(first, first + len(lines))):
            return
        limit = csv.field_size_limit()
        clean = [len(line) <= limit and _CLEAN_ROW.fullmatch(line) is not None for line in lines]
        picked = [line for line, ok in zip(lines, clean) if ok]
        if picked and self._read_range(
            "\n".join(picked), picked, first + np.flatnonzero(clean).astype(np.int64)
        ):
            rest = [i for i, ok in enumerate(clean) if not ok]
        else:
            rest = range(len(lines))
        self.row_loop(chain.from_iterable(csv_rows([lines[i]], first + i) for i in rest))

    def _read_range(self, text: str, lines: list[str], line: np.ndarray) -> bool:
        """Read lines, numbered line (text is them joined by LF),
        column-wise if they pass the clean proof; False if not.

        The proof: no cell longer than csv.field_size_limit(), which only a
        range longer than that limit can hold; ASCII only; no "+" or
        whitespace other than LF; np.loadtxt reads a row of three keys and
        21 int64 counters from every line. It refuses a line of more or
        fewer than 24 cells ("requires 24 columns"), and skips a blank line,
        which the row count then misses. np.loadtxt reads a signed or
        space-padded token, and gives a non-ASCII one a value, where
        parse_int_cells refuses it; on what is left it takes only -?[0-9]+,
        with int()'s value. A row of a proven range with a negative counter,
        an inexact or off-grid timestamp or an empty id goes alone through
        the row loop.
        """
        limit = csv.field_size_limit()
        if len(text) > limit and any(
            len(cell) > limit for line in lines if len(line) > limit for cell in line.split(",")
        ):
            return False
        if not text.isascii() or any(c in text for c in _UNCLEAN_CHARS):
            return False
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(
                    lines, delimiter=",", comments=None, dtype=_STATS_ROW_DTYPE, ndmin=1
                )
        except (ValueError, Warning):
            return False
        n = len(lines)
        if len(table) != n:
            return False
        keys = table["key"]
        window = np.fromiter(map(self.starts.__getitem__, keys[:, 0].tolist()), np.int64, n)
        fs = np.fromiter(map(self.fs_ids.__getitem__, keys[:, 1].tolist()), np.int32, n)
        node = np.fromiter(map(self.node_ids.__getitem__, keys[:, 2].tolist()), np.int32, n)
        counters = table["counters"]
        # only a range holding a bad row pays for the row mask; an empty id
        # needs two adjacent commas
        if (
            counters.min() >= 0
            and window.min() != _NO_STAMP
            and not (window % self.window_len).any()
            and ",," not in text
        ):
            self.sink.add(fs, node, window, counters, line)
            return True
        bad = (
            (counters < 0).any(axis=1)
            | (window == _NO_STAMP)
            | (window % self.window_len != 0)
            | (fs == self.fs_ids.get("", -1))
            | (node == self.node_ids.get("", -1))
        )
        good = ~bad
        self.sink.add(fs[good], node[good], window[good], counters[good], line[good])
        bad_lines = np.flatnonzero(bad).tolist()
        self.row_loop(zip(line[bad].tolist(), csv.reader(lines[i] for i in bad_lines)))
        return True

    def row_loop(self, rows: Iterable[tuple[int, list[str] | csv.Error]]) -> None:
        """Check (line, cells) rows one by one; a blank row is skipped.

        A row must be readable as csv (cells, not a csv.Error), have 24
        cells, an exact timestamp on the window_len grid, non-empty ids and
        counters (parse_int_cells) in [0, 2**63 - 1]. Accepted rows go to the
        sink in batches of _ROWS_HELD.
        """
        window_len = self.window_len
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
            elif window_start % window_len:
                self.bad.append(
                    (line_no, f"window_start {window_start} not aligned to {window_len}s grid")
                )
            elif not row[1] or not row[2]:
                self.bad.append((line_no, "fs_id and node_id must be non-empty"))
            else:
                self.rows.append((line_no, fs_ids[row[1]], node_ids[row[2]], window_start, vals))
                if len(self.rows) == _ROWS_HELD:
                    self._flush()
        self._flush()

    def _flush(self) -> None:
        """Hand the row loop's accepted rows to the sink."""
        if self.rows:
            lines, fss, nodes, windows, vals = zip(*self.rows)
            self.rows = []
            self.sink.add(
                np.array(fss, np.int32),
                np.array(nodes, np.int32),
                np.array(windows, np.int64),
                np.array(vals, np.int64),
                np.array(lines, np.int64),
            )

    def result(self) -> tuple[SpilledStats, IngestReport]:
        """The sink and the file's report; see report."""
        self._flush()
        return self.sink.result(self)

    def report(
        self,
        accepted: int,
        superseded: list[int],
        by: list[int],
        first_repeat: tuple[int, str] | None,
    ) -> IngestReport:
        """The report of a file whose sink took accepted rows, of which the
        rows on lines superseded were each superseded by the one on the line
        at the same place in by, its key's next occurrence.

        Lenient mode rejects every superseded row; strict mode raises the
        lowest-line error among the bad rows and first_repeat, the lowest
        second occurrence of a key (_first_repeat).
        """
        errors = list(self.bad)
        if self.strict:
            if first_repeat is not None:
                errors.append(first_repeat)
            if errors:
                raise IngestError(*min(errors))
        errors += [
            (a, f"duplicate (fs, node, window) superseded by line {b}")
            for a, b in zip(superseded, by)
        ]
        errors.sort()
        return IngestReport(
            rows_read=accepted + len(self.bad),
            rows_accepted=accepted - len(superseded),
            rows_rejected=len(errors),
            first_error_line=errors[0][0] if errors else None,
            rejected_reasons=tuple(errors),
        )


class SpilledStats:
    """One stats file's accepted rows, appended to a binary spill file by
    (fs, UTC day) partition; the one sink of a stats parse, and what
    parse_stats_csv returns given a spill. Read back one partition at a
    time, as a block of its filesystem (block).

    The caller owns the file, which may hold other files' rows too: any
    seekable binary file, such as an unlinked temporary file, which a crash
    cannot leave behind. A partition is the segments its rows were written
    in, one per _SPILL_ROWS rows taken: the rows' node codes (int32), window
    starts, line numbers and (n, 21) counters (int64), in that order. Codes
    index the file's ids in first-seen order (fs_ids, node_ids). Duplicate
    keys stay in the spill until block resolves them; a key never spans two
    partitions.
    """

    def __init__(self, spill: IO[bytes], window_len: int):
        self.spill = spill
        self.window_len = window_len
        self.fs_ids: tuple[str, ...] = ()
        self.node_ids: tuple[str, ...] = ()
        # (fs code, day) -> [(offset, rows)] while the parse runs; then
        # (fs id, day) -> [(offset, rows)]
        self.partitions: dict[tuple, list[tuple[int, int]]] = {}
        # rows taken but not yet written, as (fs, node, window, counters, line)
        self.held: list[tuple[np.ndarray, ...]] = []
        self.rows_held = 0

    def add(self, fs, node, window, counters, line) -> None:
        """Take rows; they are written once _SPILL_ROWS are held. Counters
        are copied out of a view, which would hold a whole np.loadtxt table."""
        self.held.append((fs, node, window, np.ascontiguousarray(counters), line))
        self.rows_held += len(window)
        if self.rows_held >= _SPILL_ROWS:
            self._write()

    def _write(self) -> None:
        """Append the rows held to the spill, a segment per partition."""
        if not self.held:
            return
        fs, node, window, counters, line = (np.concatenate(c) for c in zip(*self.held))
        self.held, self.rows_held = [], 0
        group = (window // DAY) << 31 | fs
        keys, inverse = np.unique(group, return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        bounds = np.searchsorted(inverse[order], np.arange(len(keys) + 1)).tolist()
        for key, a, b in zip(keys.tolist(), bounds, bounds[1:]):
            rows = order[a:b] if len(keys) > 1 else slice(None)
            offset = self.spill.seek(0, io.SEEK_END)
            for column in (node[rows], window[rows], line[rows], counters[rows]):
                self.spill.write(memoryview(np.ascontiguousarray(column)).cast("B"))
            self.partitions.setdefault((key & ((1 << 31) - 1), (key >> 31) * DAY), []).append(
                (offset, b - a)
            )

    def _load(self, segments: list[tuple[int, int]], counters: bool) -> list[np.ndarray]:
        """A partition's node, window and line columns, and its counters if asked."""
        n = sum(count for _, count in segments)
        columns = [np.empty(n, np.int32), np.empty(n, np.int64), np.empty(n, np.int64)]
        if counters:
            columns.append(np.empty((n, len(ALL_FIELDS)), np.int64))
        at = 0
        for offset, count in segments:
            self.spill.seek(offset)
            for column in columns:
                view = memoryview(column[at : at + count]).cast("B")
                if self.spill.readinto(view) != len(view):
                    raise OSError(f"sample spill ends inside the segment at {offset}")
            at += count
        return columns

    def result(self, rows: _StatsRows) -> tuple[SpilledStats, IngestReport]:
        """This file and its report, the partitions' keys read one at a time
        to find the repeated ones."""
        self._write()
        self.fs_ids, self.node_ids = tuple(rows.fs_ids), tuple(rows.node_ids)
        accepted, superseded, by, firsts = 0, [], [], []
        for (code, day), segments in self.partitions.items():
            node, window, line = self._load(segments, counters=False)
            _, dropped, later = _repeats(node, window, line)
            accepted += len(node)
            superseded += line[dropped].tolist()
            by += line[later].tolist()
            first = _first_repeat(
                line, later, lambda i: (self.fs_ids[code], self.node_ids[node[i]], int(window[i]))
            )
            if first is not None:
                firsts.append(first)
        report = rows.report(accepted, superseded, by, min(firsts, default=None))
        self.partitions = {
            (self.fs_ids[code], day): segments for (code, day), segments in self.partitions.items()
        }
        return self, report

    def block(self, fs_id: str, day: int) -> SampleBlock:
        """One partition's rows as a block in canonical order, each repeated
        key's last line kept."""
        node, window, line, counters = self._load(self.partitions[fs_id, day], counters=True)
        node_labels, node = label_codes(self.node_ids, node)
        keep, _, _ = _repeats(node, window, line)
        if len(keep) != len(node) or not (np.diff(keep) == 1).all():
            node, window, counters = node[keep], window[keep], counters[keep]
        return SampleBlock(fs_id, node_labels, node, window, counters, self.window_len)


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
