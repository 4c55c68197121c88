"""Ingest of stats and job files, and canonical serialization of jobs.

Stats files carry one row per (filesystem, node, window) with 21 counters:

    window_start,fs,node,read_kb,read_ops,write_kb,write_ops,other,open,close,
    mknod,link,unlink,mkdir,rmdir,ren,getattr,setattr,getxattr,setxattr,
    statfs,sync,sdr,cdr

Job files carry one row per application run:

    app_id,job_id,user,start,end,nodes,command

Timestamps are ISO-8601 UTC with a trailing Z. A stats file is lines, not
CSV: a line is the bytes up to an LF and its cells are split at commas.
Nothing in it is quoted, so a line holding a quote, a CR or a NUL, or bytes
that are not UTF-8, is a bad row like any other, with its own line number; a
file with CRLF endings is refused at its header. A jobs file is CSV: the
nodes field joins node ids with ';', and the command field is RFC-4180
quoted when it contains commas or quotes. Canonical form (what
serialize_jobs_csv and render_csv emit) is LF line endings, minimal quoting
plus quotes around any field holding a CR, rows sorted by primary key;
parsing a canonical jobs file and serializing the result reproduces it byte
for byte. The store keeps samples as binary columns, so no stats writer
lives here.

Strict mode raises IngestError at the first invalid row. Lenient mode skips
invalid rows and reports them. A duplicate sample key in lenient mode keeps
the last occurrence and counts each superseded row as rejected; a duplicate
app_id keeps the first and rejects each later one. Counters are spelled
in ASCII digits (parse_int_cells) and must fit in a signed 64-bit integer;
anything else is rejected like any other bad row.

Stats files parse into spill files (SpilledStats), read back as
SampleBlocks, the only form samples take, one partition at a time. The
header is read and checked once; the body is streamed as bytes in
line-aligned ranges of about 64 KiB (_ranges) and never held as one text. A
range proven clean is read column-wise by np.loadtxt. In a range that fails
the proof, the lines of a plainly clean shape (_CLEAN_ROW) are still read
column-wise together, and only the others go through the row loop, one line
at a time with its absolute line number, so a file with a few bad rows costs
about what a clean one does. The row loop alone decides a bad row's reason.
Duplicate keys are resolved once over all accepted rows in line order, so
every path gives the whole-file row loop's blocks, report and strict error.
The fs and node ids of a file are coded as they are first read, once per
distinct id; a block holds one filesystem, named once, and carries the node
codes.

Processes: the body of a stats file given by path, a regular file of at
least two _SPAN_BYTES (1 MiB), is split into line-aligned byte spans, one
per usable CPU (_stats_spans). The calling process parses the first span and
forks one worker for each other span, and reaps every worker before the
parse returns or raises. Everything else is one span, the whole body, read
by the same code in the calling process, with no fork: a stream, a pipe or
other non-regular file, a smaller file, and any file while the process runs
a second thread. The answer does not depend on the split. Nothing configures
it: no option, environment variable or setting. A stream the caller gives
stays open.

Memory is per process: the calling process and each worker hold one range
of input and at most _SPILL_ROWS accepted rows, however they were read,
which each appends to its own spill file grouped by (filesystem, UTC day)
partition; a duplicate key never spans two partitions, so duplicates are
then found, and the spilled rows later read back, one partition at a time,
in the calling process. Only parse_stats_csv without spill holds every
partition's block at once, by (filesystem, day); nothing joins them.
"""

from __future__ import annotations

import csv
import io
import os
import pickle
import re
import signal
import stat
import tempfile
import threading
import warnings
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence, Union

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


def _open_source(source: Source, stack: ExitStack) -> IO[str]:
    """source as a text stream for the life of stack, its bytes decoded as
    UTF-8: a path is opened and closed with it; a binary stream is wrapped,
    and the wrapper detached with it, so the caller's stream stays open."""
    if isinstance(source, (str, Path)):
        return stack.enter_context(open(source, encoding="utf-8", newline=""))
    if hasattr(source, "read"):
        if isinstance(source.read(0), bytes):
            text = io.TextIOWrapper(source, encoding="utf-8", newline="")
            stack.callback(text.detach)
            return text
        return source
    raise TypeError(f"cannot read from {type(source).__name__}")


def _open_stats(source: Source, stack: ExitStack) -> IO[bytes]:
    """source as a binary stream for the life of stack; the caller's stays open."""
    if isinstance(source, (str, Path)):
        return stack.enter_context(open(source, "rb"))
    if hasattr(source, "read") and isinstance(source.read(0), bytes):
        return source
    raise TypeError(f"cannot read stats from {type(source).__name__}: not a path or binary stream")


def csv_rows(lines: Iterable[str]) -> Iterator[tuple[int, list[str] | csv.Error]]:
    """(line, cells) of each row of a jobs file or store partition's CSV
    lines: each row has the number of the line it starts on, so a quoted
    cell that spans lines does not shift later rows. Lines are counted at
    LF, as wc -l and the stats reader count them: a piece ending at a lone
    CR continues its line, though the csv module may end a row there. A row
    the csv module refuses, such as one holding a cell longer than
    csv.field_size_limit(), comes with its csv.Error in place of cells."""
    line = 1

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


def _report(rows_accepted: int, rejects: list[tuple[int, str]]) -> IngestReport:
    """The report of a file whose rows_accepted rows were kept and whose
    rejects, as (line, reason), were not."""
    rejects = sorted(rejects)
    return IngestReport(
        rows_read=rows_accepted + len(rejects),
        rows_accepted=rows_accepted,
        rows_rejected=len(rejects),
        first_error_line=rejects[0][0] if rejects else None,
        rejected_reasons=tuple(rejects),
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
    source: str | Path | IO[bytes],
    mode: str = "strict",
    window_len: int = 180,
    spill: Callable[[], IO[bytes]] | None = None,
) -> tuple[dict[tuple[str, int], SampleBlock] | SpilledStats, IngestReport]:
    """Parse a stats file into its accepted rows plus an ingest report.

    source is a path or a binary stream; a text stream raises TypeError.
    Its header line is read first, at most _HEADER_BYTES of it: a file
    refused there, as one with no LF that early is, forks no worker. The
    answer is the whole-file row loop's, read in spans (_stats_spans) or
    whole; strict mode reads no range after the first holding a bad row.

    The accepted rows are appended to spill files, _SPILL_ROWS at a time,
    by (fs, UTC day) partition, so memory holds one range of input and,
    while duplicate keys are resolved, one partition's keys. Given spill, a
    function that returns a new seekable binary file on each call, once per
    span, the result holds the file's SpilledStats, to be read back one
    partition at a time from those files, which the caller owns and closes;
    a worker writes its span's file, so in a parse in spans they must be
    operating-system files, such as tempfile.TemporaryFile gives. Without
    spill, the rows go to temporary files in the system temp directory, and
    the result holds each (fs, day) partition's block, by key in sorted
    order.

    A bad mode, or a window_len that does not divide an hour, raises
    ValueError before anything is read.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if window_len <= 0 or HOUR % window_len:
        raise ValueError(f"window_len {window_len} must divide 3600")
    with ExitStack() as stack:
        fh = _open_stats(source, stack)
        head = fh.readline(_HEADER_BYTES)
        if len(head) == _HEADER_BYTES and not head.endswith(b"\n"):
            raise IngestError(1, f"bad header: no LF in its first {_HEADER_BYTES} bytes")
        header = head.decode("utf-8", "surrogateescape").removesuffix("\n")
        _check_header(header.split(",") if head else None, STATS_HEADER)
        spans = _stats_spans(source, len(head))
        new_spill = spill or (lambda: stack.enter_context(tempfile.TemporaryFile()))
        files = [new_spill() for _ in spans]
        parts = _parse_in_spans(source, fh, spans, mode, window_len, files)
        spilled = SpilledStats(files, parts, window_len)
        report = spilled.report(mode == "strict", [bad for part in parts for bad in part.bad])
        if spill is not None:
            return spilled, report
        return {key: spilled.block(*key) for key in sorted(spilled.partitions)}, report


def _ranges(fh: IO[bytes], left: int | None) -> Iterator[str]:
    """The text of the next left bytes of fh (with left None, the rest), a
    read of _RANGE_BYTES at a time, each cut after its last LF and the rest
    carried, so no line is split; only the new read is searched for an LF.
    A range is decoded as UTF-8, a byte that is not UTF-8 as a lone
    surrogate; no UTF-8 character holds an LF byte, so each decodes as the
    whole file would."""
    pieces: list[bytes] = []
    while left != 0 and (data := fh.read(min(_RANGE_BYTES, left or _RANGE_BYTES))):
        if left is not None:
            left -= len(data)
        cut = data.rfind(b"\n") + 1
        if cut:
            pieces.append(data[:cut])
            yield b"".join(pieces).decode("utf-8", "surrogateescape")
            pieces = [data[cut:]]
        else:
            pieces.append(data)
    if rest := b"".join(pieces):
        yield rest.decode("utf-8", "surrogateescape")


# what no stats line may hold: a quote, CR or NUL, or a surrogate, which
# decoding gives for a byte that is not UTF-8 and no UTF-8 text holds
_BAD_CHAR = re.compile('["\r\x00\ud800-\udfff]')
# what fails an ASCII range's clean proof: what _BAD_CHAR finds, and "+" and
# any whitespace but LF, which np.loadtxt takes around a number
_UNCLEAN_CHARS = tuple('"\r\x00+ \t\x0b\x0c\x1c\x1d\x1e\x1f')
# one row read whole by np.loadtxt: the three key columns as str, then counters
_STATS_ROW_DTYPE = np.dtype([("key", object, (3,)), ("counters", np.int64, (len(ALL_FIELDS),))])
# a range holds about this many bytes, so a np.loadtxt call's transient
# row objects stay small next to the columns it fills
_RANGE_BYTES = 1 << 16
# the most of a stats file's header line read: the header is some 180 bytes,
# so a file with no LF this near its start is refused at once
_HEADER_BYTES = 1 << 12
# a line the clean proof is sure to pass: ids of printable ASCII but space,
# '"', "+" and ",", and counters of at most 18 digits, which fit in int64
_CLEAN_ROW = re.compile(r"(?:[!#-*\-./0-9:-~]*,){3}-?[0-9]{1,18}(?:,-?[0-9]{1,18}){20}")
# the window of a row whose timestamp parse_utc refuses; no timestamp has it
_NO_STAMP = np.iinfo(np.int64).min
# _StatsRows writes the rows it holds once they are this many (about 0.8 MB
# as columns), so a partition is a few large segments, not one per range
_SPILL_ROWS = 1 << 12
# the least bytes a span of a stats file parsed in spans holds: a worker's
# fork, pipe and exit took 4-5 ms on a 2-CPU host, what parsing about 150 KB
# takes (some 30 ns a byte), so a file split in two spans of this size or
# more is parsed sooner: a 1.2 MB file in 36 ms against 43 ms whole
_SPAN_BYTES = 1 << 19
# the stats file bytes the span scan reads at a time
_SCAN_BYTES = 1 << 18


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return 1


def _stats_spans(source: Source, body: int) -> list[tuple[int, int | None, int]]:
    """(first byte, end byte, first line) of each span the body of a stats
    file is parsed in, body being the byte after its header line; where the
    body is not split, the one span (body, None, 2), to its end.

    A source is split only when it is a path to a regular file of at least
    two _SPAN_BYTES, this process may run on two CPUs or more, and it runs
    one thread: a fork copies only the thread that calls it, so a lock
    another thread held would stay held in the worker. There are
    as many spans as CPUs, fewer where a span would hold less than
    _SPAN_BYTES, each starting after a LF, so on a line; nothing in a stats
    line is quoted, so a split there reads every line as the whole read
    does. A scan of the bytes before the last span counts the LFs before
    each span, for its first line.
    """
    whole = [(body, None, 2)]
    if not isinstance(source, (str, Path)):
        return whole
    info = os.stat(source)
    size = info.st_size
    count = min(_usable_cpus(), size // _SPAN_BYTES)
    if not stat.S_ISREG(info.st_mode) or count < 2 or threading.active_count() > 1:
        return whole
    with open(source, "rb") as fh:
        starts = [body]
        for k in range(1, count):
            # a span starts after the LF that ends the line its split point is on
            fh.seek(max(size * k // count - 1, starts[-1]))
            fh.readline()
            if fh.tell() >= size:
                break
            starts.append(fh.tell())
        if len(starts) < 2:
            return whole
        fh.seek(body)
        lines = [2]
        for a, b in zip(starts, starts[1:]):
            chunks = (fh.read(min(_SCAN_BYTES, b - at)) for at in range(a, b, _SCAN_BYTES))
            lines.append(lines[-1] + sum(chunk.count(b"\n") for chunk in chunks))
    return list(zip(starts, starts[1:] + [size], lines))


def _parse_span(
    fh: IO[bytes], span: tuple[int, int | None, int], mode: str, window_len: int, spill: IO[bytes]
) -> _Part:
    """One span of a stats file (see _stats_spans), read from fh at its
    first byte, parsed into spill; no range is read once strict mode has
    its answer."""
    start, end, line = span
    rows = _StatsRows(mode, window_len, spill)
    for text in _ranges(fh, None if end is None else end - start):
        lines = text.split("\n")
        if not lines[-1]:
            lines.pop()
        rows.add_range(text, lines, line)
        line += len(lines)
        if rows.done():
            break
    part = rows.part()
    spill.flush()
    return part


def _parse_in_spans(
    source: Source,
    fh: IO[bytes],
    spans: list[tuple[int, int | None, int]],
    mode: str,
    window_len: int,
    files: list[IO[bytes]],
) -> list[_Part]:
    """Each span of a stats source parsed into the spill file beside it:
    the first in this process, from fh, which is at its first byte; each
    other one at once in a forked worker, which opens the file itself and
    seeks to its span, since it shares fh's offset with this process. A
    body read whole is one span, and forks no worker.

    A worker ends with os._exit, whatever happens, so it runs no exit
    handler and no cleanup of its parent's; it sends back over a pipe only
    its _Part, or the exception its parse raised. The parts are taken in
    span order up to the first that ends the parse (an exception, or a bad
    row in strict mode): nothing after it counts, as a whole read stops
    there. A worker that dies, or exits with another status than 0, raises
    ChildProcessError, so its spill is never read as a short one. Every
    worker is reaped before this returns or raises, and killed first if its
    part is not taken.
    """

    def parse_own(span: tuple[int, int, int], spill: IO[bytes]) -> _Part:
        with open(source, "rb") as own:
            own.seek(span[0])
            return _parse_span(own, span, mode, window_len, spill)

    workers: list[_Worker] = []
    try:
        for span, spill in zip(spans[1:], files[1:]):
            workers.append(_Worker(partial(parse_own, span, spill), "stats parse"))
        parts = [_parse_span(fh, spans[0], mode, window_len, files[0])]
        for worker in workers:
            if parts[-1].done:
                break
            parts.append(worker.result())
        return parts
    finally:
        for worker in workers:
            worker.reap()


class _Worker:
    """A forked process running one function, and the pipe its outcome
    comes back on; name says what it does, in the error of a failed one."""

    def __init__(self, work: Callable[[], object], name: str):
        self.name = name
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if not self.pid:
            status = 1
            try:
                os.close(read)
                try:
                    outcome = (True, work())
                except BaseException as exc:  # sent to the parent, which raises it
                    outcome = (False, exc)
                try:
                    data = pickle.dumps(outcome)
                    if not outcome[0]:
                        pickle.loads(data)  # the parent must get the exception back
                except Exception:  # one that does not pickle goes as its repr
                    data = pickle.dumps((False, ChildProcessError(repr(outcome[1]))))
                with open(write, "wb") as pipe:
                    pipe.write(data)
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        self.pipe: IO[bytes] | None = open(read, "rb")

    def result(self) -> object:
        """What the work returned, once the worker has exited; its exception
        is raised here."""
        data = self.pipe.read()
        self.pipe.close()
        self.pipe = None
        _, status = os.waitpid(self.pid, 0)
        self.pid = 0
        code = os.waitstatus_to_exitcode(status)
        if code:
            raise ChildProcessError(f"{self.name} worker exited with status {code}")
        done, value = pickle.loads(data)
        if not done:
            raise value
        return value

    def reap(self) -> None:
        """Kill the worker unless its result was taken, and wait for it."""
        if self.pipe is not None:
            self.pipe.close()
            self.pipe = None
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0


@dataclass(frozen=True)
class _Part:
    """What one span's parse leaves, small enough to send over a pipe: the
    ids its rows hold, in first-seen order; its bad rows, as (line, reason);
    the (offset, rows) segments it wrote to its spill file, by (fs code,
    UTC day) partition, fs and node codes indexing its ids; and whether
    strict mode ended the parse in it, at a bad row."""

    fs_ids: tuple[str, ...]
    node_ids: tuple[str, ...]
    bad: list[tuple[int, str]]
    segments: dict[tuple[int, int], list[tuple[int, int]]]
    done: bool


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
    """The accepted and the bad rows of one stats file, or of one span of
    it, as they are found, the accepted ones appended to a binary spill
    file by (fs code, UTC day) partition.

    Accepted rows are held, each with its line number, as column batches
    from the ranges read column-wise and as tuples from the row loop; once
    _SPILL_ROWS are held, all are written (write), a segment per partition:
    the rows' node codes (int32), window starts, line numbers and (n, 21)
    counters (int64), in that order. segments holds each partition's
    (offset, rows) segments. fs and node ids are held as codes in
    first-seen order (fs_ids, node_ids), which SpilledStats maps once to
    sorted order. Duplicate keys are resolved there too, once all rows are
    in.
    """

    def __init__(self, mode: str, window_len: int, file: IO[bytes]):
        self.strict = mode == "strict"
        self.window_len = window_len
        self.file = file
        self.segments: dict[tuple[int, int], list[tuple[int, int]]] = {}
        # rows held but not yet written: column batches of (fs, node, window,
        # counters, line), and the row loop's rows as such tuples
        self.held: list[tuple[np.ndarray, ...]] = []
        self.looped: list[tuple[int, int, int, list[int], int]] = []
        self.rows_held = 0
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
        clean = [_CLEAN_ROW.fullmatch(line) is not None for line in lines]
        picked = [line for line, ok in zip(lines, clean) if ok]
        if picked and self._read_range(
            "\n".join(picked), picked, first + np.flatnonzero(clean).astype(np.int64)
        ):
            rest = [i for i, ok in enumerate(clean) if not ok]
        else:
            rest = range(len(lines))
        self.row_loop((first + i, lines[i]) for i in rest)

    def _read_range(self, text: str, lines: list[str], line: np.ndarray) -> bool:
        """Read lines, numbered line (text is them joined by LF),
        column-wise if they pass the clean proof; False if not.

        The proof: ASCII only; no quote, CR, NUL, "+" or whitespace other
        than LF; np.loadtxt reads a row of three keys and 21 int64 counters
        from every line. It refuses a line of more or fewer than 24 cells
        ("requires 24 columns"), and skips a blank line, which the row count
        then misses. np.loadtxt reads a signed or space-padded token, and
        gives a non-ASCII one a value, where parse_int_cells refuses it; on
        what is left it takes only -?[0-9]+, with int()'s value. A row of a
        proven range with a negative counter, an inexact or off-grid
        timestamp or an empty id goes alone through the row loop.
        """
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
            self._hold(fs, node, window, counters, line)
            return True
        bad = (
            (counters < 0).any(axis=1)
            | (window == _NO_STAMP)
            | (window % self.window_len != 0)
            | (fs == self.fs_ids.get("", -1))
            | (node == self.node_ids.get("", -1))
        )
        good = ~bad
        self._hold(fs[good], node[good], window[good], counters[good], line[good])
        self.row_loop((int(line[i]), lines[i]) for i in np.flatnonzero(bad).tolist())
        return True

    def row_loop(self, lines: Iterable[tuple[int, str]]) -> None:
        """Check (line number, text) lines one by one; a blank line is skipped.

        A line must hold no quote, CR or NUL and no surrogate (a byte that
        is not UTF-8), and its cells, split at commas, must be 24: an exact
        timestamp on the window_len grid, non-empty ids and counters
        (parse_int_cells) in [0, 2**63 - 1]. Accepted rows are held with
        the others.
        """
        window_len = self.window_len
        fs_ids, node_ids = self.fs_ids, self.node_ids
        for line_no, text in lines:
            if not text:
                continue
            if bad := _BAD_CHAR.search(text):
                char = bad.group()
                reason = f"line holds {char!r}" if char in '"\r\x00' else "not UTF-8"
                self.bad.append((line_no, reason))
                continue
            row = text.split(",")
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
                self.looped.append((fs_ids[row[1]], node_ids[row[2]], window_start, vals, line_no))
                self.rows_held += 1
                if self.rows_held >= _SPILL_ROWS:
                    self.write()

    def _hold(self, fs, node, window, counters, line) -> None:
        """Hold rows given as columns. Counters are copied out of a view,
        which would hold a whole np.loadtxt table."""
        if len(window):
            self.held.append((fs, node, window, np.ascontiguousarray(counters), line))
            self.rows_held += len(window)
            if self.rows_held >= _SPILL_ROWS:
                self.write()

    def write(self) -> None:
        """Append the rows held to the file, a segment per partition, found
        as the runs of one stable sort of the rows' partition keys."""
        if self.looped:
            fs, node, window, counters, line = zip(*self.looped)
            self.looped = []
            self.held.append(
                (
                    np.array(fs, np.int32),
                    np.array(node, np.int32),
                    np.array(window, np.int64),
                    np.array(counters, np.int64),
                    np.array(line, np.int64),
                )
            )
        if not self.held:
            return
        fs, node, window, counters, line = (np.concatenate(c) for c in zip(*self.held))
        self.held, self.rows_held = [], 0
        group = (window // DAY) << 31 | fs
        order = np.argsort(group, kind="stable")
        group = group[order]
        bounds = [0, *(np.flatnonzero(group[1:] != group[:-1]) + 1).tolist(), len(group)]
        for a, b in zip(bounds, bounds[1:]):
            rows = order[a:b] if len(bounds) > 2 else slice(None)
            offset = self.file.seek(0, io.SEEK_END)
            for column in (node[rows], window[rows], line[rows], counters[rows]):
                self.file.write(memoryview(np.ascontiguousarray(column)).cast("B"))
            key = int(group[a])
            self.segments.setdefault((key & ((1 << 31) - 1), (key >> 31) * DAY), []).append(
                (offset, b - a)
            )

    def part(self) -> _Part:
        """What this parse leaves, once every row it accepted is in the spill."""
        self.write()
        return _Part(tuple(self.fs_ids), tuple(self.node_ids), self.bad, self.segments, self.done())


class SpilledStats:
    """One stats file's accepted rows, in the spill files its parse wrote,
    one per span (_StatsRows); what parse_stats_csv returns given spill. Read
    back one partition at a time, as a block of its filesystem (block).

    The caller owns the files: any seekable binary files, such as unlinked
    temporary files, which a crash cannot leave behind. partitions maps each (fs id, UTC day) to its
    segments, as (file, offset, rows). A file's node codes index its span's
    ids; loading maps them onto node_ids, the file's ids in first-seen
    order: the first span's, then each later span's new ones, the order a
    whole read meets them in. Duplicate keys stay in the spill until block
    resolves them; a key never spans two partitions.
    """

    def __init__(self, files: Sequence[IO[bytes]], parts: Sequence[_Part], window_len: int):
        self.files = files
        self.window_len = window_len
        node_ids = _IdCodes()
        # per file, the node_ids code of each of its node codes, or None
        # where the two are the same
        self.node_codes: list[np.ndarray | None] = []
        self.partitions: dict[tuple[str, int], list[tuple[int, int, int]]] = {}
        for k, part in enumerate(parts):
            codes = np.array([node_ids[node_id] for node_id in part.node_ids], np.int32)
            self.node_codes.append(None if (codes == np.arange(len(codes))).all() else codes)
            for (fs, day), segments in part.segments.items():
                self.partitions.setdefault((part.fs_ids[fs], day), []).extend(
                    (k, offset, rows) for offset, rows in segments
                )
        self.node_ids = tuple(node_ids)

    def _load(self, segments: list[tuple[int, int, int]], counters: bool) -> list[np.ndarray]:
        """A partition's node, window and line columns, and its counters if asked."""
        n = sum(count for _, _, count in segments)
        columns = [np.empty(n, np.int32), np.empty(n, np.int64), np.empty(n, np.int64)]
        if counters:
            columns.append(np.empty((n, len(ALL_FIELDS)), np.int64))
        at = 0
        for k, offset, count in segments:
            spill = self.files[k]
            spill.seek(offset)
            for column in columns:
                view = memoryview(column[at : at + count]).cast("B")
                if spill.readinto(view) != len(view):
                    raise OSError(f"sample spill ends inside the segment at {offset}")
            if self.node_codes[k] is not None:
                columns[0][at : at + count] = self.node_codes[k][columns[0][at : at + count]]
            at += count
        return columns

    def report(self, strict: bool, bad: Sequence[tuple[int, str]]) -> IngestReport:
        """The report of this file, whose bad rows are bad, as (line,
        reason); the partitions' keys are read one at a time to find the
        repeated ones.

        Lenient mode rejects each row a later row of its key supersedes,
        naming that next occurrence; strict mode raises the lowest-line
        error among the bad rows and the second occurrences of keys.
        """
        accepted, superseded, by, firsts = 0, [], [], []
        for (fs_id, _), segments in self.partitions.items():
            node, window, line = self._load(segments, counters=False)
            _, dropped, later = _repeats(node, window, line)
            accepted += len(node)
            superseded += line[dropped].tolist()
            by += line[later].tolist()
            first = _first_repeat(
                line, later, lambda i: (fs_id, self.node_ids[node[i]], int(window[i]))
            )
            if first is not None:
                firsts.append(first)
        errors = list(bad)
        if strict and errors + firsts:
            raise IngestError(*min(errors + firsts))
        errors += [
            (a, f"duplicate (fs, node, window) superseded by line {b}")
            for a, b in zip(superseded, by)
        ]
        return _report(accepted - len(superseded), errors)

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
    """Parse a jobs CSV into job records plus an ingest report; strict mode
    raises IngestError at the first bad row."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    jobs: list[JobRecord] = []
    seen: set[str] = set()
    rejects: list[tuple[int, str]] = []
    with ExitStack() as stack:
        rows = csv_rows(_open_source(source, stack))
        _check_header(next(rows, (1, None))[1], JOBS_HEADER)
        for line_no, row in rows:
            if not row:
                continue
            job = _job(row, seen)
            if isinstance(job, JobRecord):
                seen.add(job.app_id)
                jobs.append(job)
            elif mode == "strict":
                raise IngestError(line_no, job)
            else:
                rejects.append((line_no, job))
    return jobs, _report(len(jobs), rejects)


def _job(row: list[str] | csv.Error, seen: set[str]) -> JobRecord | str:
    """The job a jobs row holds, or why it is rejected; seen holds the
    app_ids of the jobs already accepted."""
    if isinstance(row, csv.Error):
        return str(row)
    if len(row) != len(JOBS_HEADER):
        return f"expected {len(JOBS_HEADER)} columns, got {len(row)}"
    if row[0] in seen:
        return "duplicate app_id"
    try:
        start = parse_utc(row[3])
        end = parse_utc(row[4])
    except ValueError as exc:
        return f"bad timestamp: {exc}"
    if not row[6].strip():
        return "empty command"
    nodes = frozenset(n for n in (t.strip() for t in row[5].split(";")) if n)
    try:
        return JobRecord(
            app_id=row[0],
            job_id=row[1],
            user=row[2],
            start=start,
            end=end,
            nodes=nodes,
            command=row[6],
        )
    except ValueError as exc:
        return str(exc)


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
