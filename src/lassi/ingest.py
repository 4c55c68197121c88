"""CSV ingest and canonical serialization for samples and job records.

Stats files carry one row per (filesystem, node, window) with 21 counters:

    window_start,fs,node,read_kb,read_ops,write_kb,write_ops,other,open,close,
    mknod,link,unlink,mkdir,rmdir,ren,getattr,setattr,getxattr,setxattr,
    statfs,sync,sdr,cdr

Job files carry one row per application run:

    app_id,job_id,user,start,end,nodes,command

Timestamps are ISO-8601 UTC with a trailing Z. The nodes field joins node ids
with ';'. The command field is RFC-4180 quoted when it contains commas or
quotes. Canonical form (what the serializers emit) is LF line endings, minimal
quoting plus quotes around any field holding a CR, rows sorted by primary key;
parsing a canonical file and serializing the result reproduces it byte for byte.

Strict mode raises IngestError at the first invalid row. Lenient mode skips
invalid rows and reports them; a duplicate key in lenient mode keeps the last
occurrence and counts the superseded row as rejected. Counters are spelled
in ASCII digits (parse_int_cells) and must fit in a signed 64-bit integer;
anything else is rejected like any other bad row.

Stats files parse into a SampleBlock, the only form samples take. Files that
are provably clean are read column-wise in one pass; every other stats file
goes through the row loop, which fills the same columns and alone produces
rejects, strict errors and the lenient keep-last rule.
"""

from __future__ import annotations

import csv
import io
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Sequence, Union

import numpy as np

from .errors import IngestError
from .model import (
    ALL_FIELDS,
    INT64_MAX,
    JobRecord,
    SampleBlock,
    id_codes,
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


def _check_header(row: list[str] | None, expected: tuple[str, ...]) -> None:
    if row is None:
        raise IngestError(1, "empty file: missing header")
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
    return [int(c) for c in cells]


def parse_stats_csv(
    source: Source, mode: str = "strict", window_len: int = 180
) -> tuple[SampleBlock, IngestReport]:
    """Parse a stats CSV into a sample block plus an ingest report."""
    rejects = _Rejects(mode)
    stream, owned = _open_source(source)
    try:
        text = stream.read()
    finally:
        if owned:
            stream.close()
    block = _parse_clean_stats(text, window_len)
    if block is not None:
        n = len(block)
        return block, IngestReport(rows_read=n, rows_accepted=n, rows_rejected=0)
    return _parse_stats_rows(text, rejects, window_len)


_STATS_HEADER_LINE = ",".join(STATS_HEADER)
# what sends an ASCII file to the row loop: a quote, CR, NUL or blank line,
# and "+" or any whitespace but LF, which np.loadtxt takes around a number
_UNCLEAN_CHARS = (
    '"', "\r", "\x00", "\n\n", "+", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f"
)
# one row read whole by np.loadtxt: the three key columns as str, then counters
_STATS_ROW_DTYPE = np.dtype([("key", object, (3,)), ("counters", np.int64, (len(ALL_FIELDS),))])
# the clean path reads about this many characters per np.loadtxt call, so its
# transient row objects stay small next to the columns it fills
_PARSE_CHUNK_CHARS = 1 << 16


def _parse_clean_stats(text: str, window_len: int) -> SampleBlock | None:
    """The block the row loop would return without rejects, or None.

    None unless the file is provably clean: ASCII only; exact header; no
    quote, CR, NUL, "+" or whitespace other than LF; LF after every row and
    no blank lines; 24 columns on every row; counters that np.loadtxt reads
    as int64 and that are >= 0; exact on-grid timestamps; non-empty ids;
    unique keys. np.loadtxt reads a signed or space-padded token, and gives
    a non-ASCII one a value, where parse_int_cells refuses it; on what is
    left it takes only -?[0-9]+, with int()'s value.
    """
    if window_len <= 0 or HOUR % window_len:
        return None
    if not text.isascii() or any(c in text for c in _UNCLEAN_CHARS):
        return None
    if not text.startswith(_STATS_HEADER_LINE + "\n") or not text.endswith("\n"):
        return None
    n = text.count("\n") - 1
    if text.count(",") != (n + 1) * (len(STATS_HEADER) - 1):
        return None
    fs = np.empty(n, object)
    node = np.empty(n, object)
    window = np.empty(n, np.int64)
    counters = np.empty((n, len(ALL_FIELDS)), np.int64)
    ids: dict[str, str] = {}  # one shared str per distinct id
    starts: dict[str, int] = {}
    row = 0
    pos = len(_STATS_HEADER_LINE) + 1
    while pos < len(text):
        stop = text.find("\n", pos + _PARSE_CHUNK_CHARS) + 1 or len(text)
        lines = text[pos : stop - 1].split("\n")
        pos = stop
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(
                    lines, delimiter=",", comments=None, dtype=_STATS_ROW_DTYPE, ndmin=1
                )
            if len(table) != len(lines):
                return None
            keys = table["key"]
            for stamp in set(keys[:, 0].tolist()) - starts.keys():
                starts[stamp] = parse_utc(stamp)
        except (ValueError, Warning):
            return None
        chunk = slice(row, row + len(lines))
        window[chunk] = [starts[stamp] for stamp in keys[:, 0].tolist()]
        fs[chunk] = [ids.setdefault(x, x) for x in keys[:, 1].tolist()]
        node[chunk] = [ids.setdefault(x, x) for x in keys[:, 2].tolist()]
        counters[chunk] = table["counters"]
        row += len(lines)
    if n and (counters.min() < 0 or "" in ids or any(w % window_len for w in starts.values())):
        return None
    try:
        return SampleBlock.from_columns(fs, node, window, counters, window_len)
    except ValueError:  # duplicate keys: strict and lenient answer differently
        return None


def _parse_stats_rows(
    text: str, rejects: "_Rejects", window_len: int
) -> tuple[SampleBlock, IngestReport]:
    """The row-by-row stats parser: line-numbered rejects, keep-last duplicates.

    A row must have 24 cells, an exact timestamp on the window_len grid,
    non-empty ids and counters (parse_int_cells) in [0, 2**63 - 1]; a
    window_len that does not divide an hour rejects every row.
    """
    bad_len = window_len <= 0 or HOUR % window_len != 0
    # (fs, node, window) -> (line, counters) of the row that holds the key
    kept: dict[tuple[str, str, int], tuple[int, list[int]]] = {}
    rows_read = 0
    reader = csv.reader(io.StringIO(text, newline=""))
    _check_header(next(reader, None), STATS_HEADER)
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        rows_read += 1
        if len(row) != len(STATS_HEADER):
            rejects.add(line_no, f"expected {len(STATS_HEADER)} columns, got {len(row)}")
            continue
        try:
            window_start = parse_utc(row[0])
        except ValueError:
            rejects.add(line_no, f"bad timestamp {row[0]!r}")
            continue
        try:
            vals = parse_int_cells(row[3:])
        except ValueError:
            rejects.add(line_no, "non-integer counter value")
            continue
        if max(vals) > INT64_MAX:
            rejects.add(line_no, "counter exceeds int64 range")
        elif min(vals) < 0:
            rejects.add(line_no, f"negative counter in counters {tuple(vals)}")
        elif bad_len:
            rejects.add(line_no, f"window_len {window_len} must divide 3600")
        elif window_start % window_len:
            rejects.add(
                line_no, f"window_start {window_start} not aligned to {window_len}s grid"
            )
        elif not row[1] or not row[2]:
            rejects.add(line_no, "fs_id and node_id must be non-empty")
        else:
            key = (row[1], row[2], window_start)
            prev = kept.get(key)
            if prev is not None:
                if rejects.strict:
                    raise IngestError(line_no, f"duplicate sample for {key}")
                rejects.rows.append(
                    (prev[0], f"duplicate (fs, node, window) superseded by line {line_no}")
                )
            kept[key] = (line_no, vals)
    block = SampleBlock.from_columns(
        np.array([k[0] for k in kept], object),
        np.array([k[1] for k in kept], object),
        np.array([k[2] for k in kept], np.int64),
        np.array([vals for _, vals in kept.values()], np.int64).reshape(-1, len(ALL_FIELDS)),
        window_len,
    )
    return block, rejects.report(rows_read, len(block))


def parse_jobs_csv(source: Source, mode: str = "strict") -> tuple[list[JobRecord], IngestReport]:
    """Parse a jobs CSV into job records plus an ingest report."""
    rejects = _Rejects(mode)
    stream, owned = _open_source(source)
    jobs: list[JobRecord] = []
    seen: dict[str, int] = {}
    rows_read = 0
    try:
        reader = csv.reader(stream)
        _check_header(next(reader, None), JOBS_HEADER)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            rows_read += 1
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


def _csv_fields(ids: np.ndarray) -> np.ndarray:
    """Each id as the csv writer renders it inside a row."""
    labels, codes = id_codes(ids)
    return np.array([render_csv((label,), [])[:-1] for label in labels], dtype=object)[codes]


_STATS_LINE = "%s,%s,%s" + ",%d" * len(ALL_FIELDS) + "\n"
_SERIALIZE_CHUNK = 4096


def serialize_stats_csv(block: SampleBlock) -> str:
    """Render a sample block in canonical stats CSV form."""
    starts, inverse = np.unique(block.window, return_inverse=True)
    stamps = np.array([format_utc(w) for w in starts.tolist()], dtype=object)[inverse]
    fs, node = _csv_fields(block.fs), _csv_fields(block.node)
    parts = [_STATS_HEADER_LINE + "\n"]
    for lo in range(0, len(block), _SERIALIZE_CHUNK):
        hi = min(lo + _SERIALIZE_CHUNK, len(block))
        cells = np.empty((hi - lo, 3 + len(ALL_FIELDS)), dtype=object)
        cells[:, 0], cells[:, 1], cells[:, 2] = stamps[lo:hi], fs[lo:hi], node[lo:hi]
        cells[:, 3:] = block.counters[lo:hi]
        parts.append(_STATS_LINE * (hi - lo) % tuple(cells.ravel().tolist()))
    return "".join(parts)


def serialize_jobs_csv(jobs: Iterable[JobRecord]) -> str:
    """Render job records in canonical jobs CSV form."""
    return render_csv(JOBS_HEADER, jobs_rows(jobs))
