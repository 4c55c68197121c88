"""Partitioned on-disk store for samples, jobs, aggregates, and baselines.

Layout: ``<root>/<dataset>/<fs_id | all>/<YYYY-MM-DD>.<suffix>``, where the
suffix is ``npz`` for samples and ``csv`` for every other dataset. Partitions
are rewritten whole: content is serialized in canonical sorted form and
written by replace_files (also the writer of report bundles and RSD tables):
each file to a temp file, fsynced and renamed into place, then the directory
fsynced once. A ``fcntl.flock`` on a ``<partition file>.lock`` file enforces
a single writer per partition, and ends with its writer, even a killed one;
readers never need the lock because rename is atomic. merge_partition holds
the lock while it reads, merges and writes, so two merging writers cannot
lose each other's rows; a merge that changes nothing leaves the file
untouched. Partition file names are exactly ``YYYY-MM-DD`` plus the
dataset's suffix; any other name with that suffix is an unexpected file
(StoreError).

A samples partition is an uncompressed ``.npz`` of the block's columns
(_write_samples_npz): the node ids as UTF-8 bytes end to end with their end
offsets, int32 node codes, int64 window starts and the (n, 21) int64
counters; the filesystem is the partition's, as it is the block's
(SampleBlock.fs_id). np.savez stamps every entry with one fixed date, so
equal blocks give equal bytes. A samples read returns one partition's
block, and a samples range crossing a UTC midnight is refused with
ValueError. The reader (_load_samples) loads no pickled object and refuses,
as StoreError, any file the strict CSV read of the same rows would refuse.
A samples directory holding a ``.csv`` partition, as stores written before
samples were binary do, is refused whole with a hint to re-ingest the
input; there is no migration.

An ``fs_hours`` partition marks its (filesystem, day) as aggregated; reading
app_hours or fs_hours over a day without one raises FileNotFoundError, so a
day never aggregated is not taken for an idle one.

Every samples, app_hours and fs_hours row must belong to its file's
filesystem and day: a write refuses a stray row with ValueError, and a read
that meets one raises StoreError. A read also refuses an app_hours or
fs_hours counter not spelled as the writer spells it (digits, no leading
zero or sign).

A ``Store`` memoizes the parsed jobs, app_hours, fs_hours and baselines
partitions it reads, keyed on each file's exact bytes: every read still reads
the file, and reuses the earlier parse only when the bytes are unchanged, so a
write by any writer is parsed and checked afresh. Beside an app_hours parse it
keeps the values derived from it: the day's risk series (day_risk), one per
baseline, keyed on the baseline's values (filesystem, period, alpha, means),
and the day's app_id -> hours index (day_apps). They follow the same rule:
each call reads the file's bytes, checks the day's fs_hours marker, and drops
them with the parse when the bytes change. Each partition's path is joined
once per ``Store``. Samples are never held, and no setting controls any of
this; the memo lives as long as the ``Store``. A
lookup of jobs by app_id reads every jobs file but parses only those whose
bytes may name one of the jobs.

Datasets: jobs reuse the ingest wire format; app_hours, fs_hours, and
baselines use the CSV mirrors defined here. Report bundles live under
``<root>/reports/`` but are directories of files, written by the report
module.
"""

from __future__ import annotations

import csv
import fcntl
import io
import os
import zipfile
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path
from types import MappingProxyType
from typing import IO, Callable, Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import ingest
from .errors import IngestError, MissingBaselineError, StoreError, StoreLockError
from .metrics import FsBaseline, RiskSeries, fs_risk_series
from .model import (
    ALL_FIELDS,
    AppHourRecord,
    FsHourRecord,
    JobRecord,
    SampleBlock,
)
from .timeutil import (
    DAY,
    date_str,
    day_range,
    floor_day,
    format_utc,
    hour_range,
    parse_date,
    parse_utc,
)

DATASETS = ("samples", "jobs", "app_hours", "fs_hours", "baselines", "reports")

APP_HOURS_HEADER = ("hour", "fs", "app_id") + ALL_FIELDS
FS_HOURS_HEADER = (
    ("hour", "fs") + ALL_FIELDS + tuple("un_" + name for name in ALL_FIELDS)
)
BASELINE_HEADER = ("fs", "period_start", "period_end", "alpha", "basis", "stat", "mean")

# each array of a samples partition file, with its dtype, in write order. The
# node ids are UTF-8 bytes end to end, cut at node_label_ends, because a numpy
# str array drops a trailing NUL, which an id may hold
SAMPLES_ARRAYS = {
    "node_labels": np.dtype(np.uint8),
    "node_label_ends": np.dtype(np.int64),
    "node": np.dtype(np.int32),
    "window": np.dtype(np.int64),
    "counters": np.dtype(np.int64),
}

# the time key read_range filters each record dataset on
_TIME_KEY = {
    "jobs": attrgetter("start"),
    "app_hours": attrgetter("hour"),
    "fs_hours": attrgetter("hour"),
}


@dataclass(frozen=True, slots=True)
class Partition:
    """Address of one store file: dataset, filesystem (or None), UTC day."""

    dataset: str
    fs_id: str | None
    date: int

    def __post_init__(self) -> None:
        if self.dataset not in DATASETS:
            raise ValueError(f"unknown dataset {self.dataset!r}")
        if self.date % DAY != 0:
            raise ValueError("partition date must be a UTC midnight")

    def parts(self) -> tuple[str, str, str]:
        """The path's components below the store root."""
        return self.dataset, self.fs_id or "all", date_str(self.date) + _suffix(self.dataset)

    def relative_path(self) -> Path:
        return Path(*self.parts())


def _suffix(dataset: str) -> str:
    """The file name suffix of a dataset's partitions."""
    return ".npz" if dataset == "samples" else ".csv"


def _legacy_samples(path: Path) -> StoreError:
    return StoreError(
        f"{path}: a CSV samples partition, which this version no longer reads "
        f"(samples are stored as .npz); re-ingest the input into a new store"
    )


def _check_home(record, partition: Partition) -> None:
    """Raise ValueError unless a jobs, app_hours or fs_hours record belongs in the partition."""
    if partition.dataset == "jobs":
        home = (None, floor_day(record.start))
    else:
        home = (record.fs_id, floor_day(record.hour))
    if home != (partition.fs_id, partition.date):
        raise ValueError(
            f"record {record} outside partition ({partition.fs_id}, {date_str(partition.date)})"
        )


def _check_samples_home(block: SampleBlock, partition: Partition) -> None:
    """Raise ValueError unless every sample row belongs in the partition."""
    outside = (block.window - block.window % DAY != partition.date) | (
        block.fs_id != partition.fs_id
    )
    if outside.any():
        raise ValueError(
            f"sample {block.key(int(np.argmax(outside)))} outside partition "
            f"({partition.fs_id}, {date_str(partition.date)})"
        )


def _write_samples_npz(fh: IO[bytes], block: SampleBlock) -> None:
    """Write a samples partition file to fh: the block's columns
    (SAMPLES_ARRAYS) as an uncompressed .npz, whose bytes depend on the
    block's values only."""
    ids = [label.encode("utf-8") for label in block.node_labels]
    columns = {
        "node_labels": np.frombuffer(b"".join(ids), np.uint8),
        "node_label_ends": np.cumsum([len(i) for i in ids], dtype=np.int64),
        "node": block.node,
        "window": block.window,
        "counters": block.counters,
    }
    np.savez(
        fh,
        **{name: np.ascontiguousarray(col, SAMPLES_ARRAYS[name]) for name, col in columns.items()},
    )


def _load_samples(path: Path, partition: Partition, window_len: int) -> SampleBlock:
    """The block a samples partition file holds.

    Refused with a StoreError naming the path, and the row's (fs, node,
    window) key where there is one: a file that is not a whole .npz of
    exactly the SAMPLES_ARRAYS, stored uncompressed, with their dtypes and
    shapes (an object array is never unpickled); node labels that are
    empty, not UTF-8, unsorted, repeated or unused, or codes outside them; a
    window off the window_len grid or outside the partition's day; a
    negative counter; rows out of canonical order or repeating a key.
    """
    try:
        # np.load given a path leaves the file open when NpzFile refuses it
        with open(path, "rb") as fh:
            npz = np.load(fh, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz file")
            with npz:
                if sorted(npz.files) != sorted(SAMPLES_ARRAYS):
                    raise ValueError(
                        f"arrays {sorted(npz.files)}, expected {sorted(SAMPLES_ARRAYS)}"
                    )
                if any(info.compress_type != zipfile.ZIP_STORED for info in npz.zip.infolist()):
                    raise ValueError("compressed entries; the store writes them stored")
                columns = {name: npz[name] for name in SAMPLES_ARRAYS}
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise StoreError(f"{path}: unreadable samples partition: {exc}") from exc
    for name, dtype in SAMPLES_ARRAYS.items():
        col = columns[name]
        if col.dtype != dtype or col.ndim != (2 if name == "counters" else 1):
            raise StoreError(
                f"{path}: array {name} is {col.dtype} of shape {col.shape}, expected {dtype}"
            )
    ids, ends, node, window, counters = columns.values()
    n = len(window)
    if len(node) != n or counters.shape != (n, len(ALL_FIELDS)):
        raise StoreError(
            f"{path}: columns differ in shape: node {node.shape}, window {window.shape}, "
            f"counters {counters.shape}"
        )

    starts = np.concatenate([[0], ends])[:-1]
    if (ends <= starts).any() or (ends[-1] if len(ends) else 0) != len(ids):
        raise StoreError(f"{path}: node_label_ends do not cut node_labels into non-empty labels")
    data = ids.tobytes()
    try:
        labels = tuple(data[a:b].decode("utf-8") for a, b in zip(starts.tolist(), ends.tolist()))
    except UnicodeDecodeError as exc:
        raise StoreError(f"{path}: node label not UTF-8: {exc}") from exc
    for a, b in zip(labels, labels[1:]):
        if a >= b:
            raise StoreError(f"{path}: node labels not sorted and distinct: {a!r} before {b!r}")
    outside = (node < 0) | (node >= len(labels))
    if outside.any():
        i = int(np.argmax(outside))
        raise StoreError(
            f"{path}: row {i} (window {window[i]}): node code {node[i]} not among "
            f"{len(labels)} labels"
        )
    unused = np.bincount(node, minlength=len(labels)) == 0
    if unused.any():
        raise StoreError(f"{path}: node label {labels[int(np.argmax(unused))]!r} used by no row")

    block = SampleBlock(partition.fs_id, labels, node, window, counters, window_len)
    same_window = window[1:] == window[:-1]
    for bad, what in (
        (window % window_len != 0, f"off the {window_len}s window grid"),
        (
            window - window % DAY != partition.date,
            f"outside partition ({partition.fs_id}, {date_str(partition.date)})",
        ),
        ((counters < 0).any(axis=1), "has a negative counter"),
        (np.r_[False, same_window & (node[1:] == node[:-1])], "repeats the key before it"),
        (
            np.r_[False, (window[1:] < window[:-1]) | (same_window & (node[1:] < node[:-1]))],
            "out of canonical (window, fs, node) order",
        ),
    ):
        if bad.any():
            raise StoreError(f"{path}: sample {block.key(int(np.argmax(bad)))} {what}")
    return block


def _may_hold(jobs_csv: bytes, app_ids: set[bytes]) -> bool:
    """Whether a jobs file's bytes may hold a row for one of app_ids.

    An unquoted app_id is the bytes of its line up to the first comma, so
    this is false only when no line starts with one of them or with a quote
    (a quoted app_id, or a quoted field's next line, needs a parse to tell).
    """
    if jobs_csv.startswith(b'"') or b'\n"' in jobs_csv:
        return True
    return not app_ids.isdisjoint(line.split(b",", 1)[0] for line in jobs_csv.split(b"\n"))


def _canonical_ints(cells: list[str]) -> tuple[int, ...]:
    """Integer cells as the store writes them: ingest's grammar, canonically spelled."""
    vals = ingest.parse_int_cells(cells)
    for cell, value in zip(cells, vals):
        if str(value) != cell:
            raise ValueError(f"non-canonical integer {cell!r}")
    return tuple(vals)


def replace_files(directory: Path, files: Mapping[str, str | bytes | Callable]) -> None:
    """Replace each named file in directory with its bytes, its text as
    UTF-8, or what a function writes to the open file, in name order.

    Each file goes to a fsynced temp file that is renamed over the name; the
    directory is fsynced once after the last rename, so every rename has
    survived a crash once this returns.
    """
    directory.mkdir(parents=True, exist_ok=True)
    for name, data in sorted(files.items()):
        path = directory / name
        tmp = path.with_name(f"{name}.tmp{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                if callable(data):
                    data(fh)
                else:
                    fh.write(data.encode("utf-8") if isinstance(data, str) else data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _app_hour_rows(records: Sequence[AppHourRecord]) -> list[tuple]:
    ordered = sorted(records, key=lambda r: (r.hour, r.fs_id, r.app_id))
    return [(format_utc(r.hour), r.fs_id, r.app_id) + r.counters for r in ordered]


def _fs_hour_rows(records: Sequence[FsHourRecord]) -> list[tuple]:
    ordered = sorted(records, key=lambda r: (r.hour, r.fs_id))
    return [(format_utc(r.hour), r.fs_id) + r.counters + r.unattributed for r in ordered]


def _baseline_rows(baselines: Sequence[FsBaseline]) -> list[tuple]:
    rows = []
    for b in sorted(baselines, key=lambda b: b.fs_id):
        for stat in ALL_FIELDS:
            rows.append(
                (
                    b.fs_id,
                    format_utc(b.period[0]),
                    format_utc(b.period[1]),
                    repr(b.alpha),
                    "fs_total",  # the one basis; the column keeps the file format
                    stat,
                    repr(b.means[stat]),
                )
            )
    return rows


def baseline_label(fs_id: str, date: int, dates: Sequence[int]) -> int:
    """The newest of fs_id's baseline label dates, sorted, on or before
    date; MissingBaselineError if there is none."""
    at = bisect_right(dates, date)
    if not at:
        raise MissingBaselineError(
            f"no baseline stored for {fs_id} on or before {date_str(date)}; "
            f"run `lassi baseline` first"
        )
    return dates[at - 1]


class Store:
    """Filesystem-backed partition store rooted at one directory."""

    def __init__(self, root: str | Path, window_len: int = 180):
        self.root = Path(root)
        self.window_len = window_len
        # path -> (the bytes last parsed there, their parse, values derived
        # from that parse by key); see _entry
        self._memo: dict[Path, tuple[bytes, object, dict]] = {}
        # partitions this Store holds the lock of; see _locked
        self._held: set[Path] = set()
        # whether the samples tree was found free of CSV partitions; see _check_no_csv_samples
        self._samples_checked = False
        # each partition's path, resolved once; see path
        self._paths: dict[Partition, Path] = {}

    def path(self, partition: Partition) -> Path:
        """The partition's file below the root, joined once per Store."""
        path = self._paths.get(partition)
        if path is None:
            path = self._paths[partition] = self.root.joinpath(*partition.parts())
        return path

    @contextmanager
    def _locked(self, path: Path):
        """Hold the partition's lock; re-entering it within this Store is a no-op."""
        if path in self._held:
            yield
            return
        lock = path.with_name(path.name + ".lock")
        lock.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(lock, os.O_CREAT | os.O_WRONLY)
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise StoreLockError(f"partition {path} is locked by another writer") from None
            self._held.add(path)
            yield
        finally:
            self._held.discard(path)
            # closing releases the lock; the file stays, since a writer that
            # unlinked it could leave the next two locking different files
            os.close(fd)

    def _write_file(self, path: Path, data: str | bytes | Callable) -> None:
        with self._locked(path):
            replace_files(path.parent, {path.name: data})

    def merge_partition(self, partition: Partition, merge) -> tuple[int, bool]:
        """Rewrite a partition as merge(stored rows) -> (rows, count) under its
        lock; returns count and whether the file was written.

        A merge that returns the stored rows themselves leaves an existing
        file as it is, bytes and modification time.
        """
        p = partition
        path = self.path(p)
        with self._locked(path):
            stored = self.read_range(p.dataset, p.fs_id, p.date, p.date + DAY)
            rows, count = merge(stored)
            written = rows is not stored or not path.exists()
            if written:
                self.write_partition(rows, p)
        return count, written

    def write_aggregates(self, fs_id: str, day: int, app_hours, fs_hours) -> None:
        """Write a (filesystem, day)'s app_hours, then the fs_hours that mark it aggregated."""
        self.write_partition(app_hours, Partition("app_hours", fs_id, day))
        self.write_partition(fs_hours, Partition("fs_hours", fs_id, day))

    def write_partition(self, records: Iterable | SampleBlock, partition: Partition) -> int:
        """Replace one partition with the given records. Returns row count.

        Every record must belong to the partition's filesystem and day;
        anything else raises ValueError. Samples come as one SampleBlock.
        """
        dataset = partition.dataset
        if dataset == "samples":
            _check_samples_home(records, partition)
            # straight into the temp file: an in-memory .npz first would copy
            # the partition twice, and cost a fresh page for every 4 KiB
            self._write_file(self.path(partition), lambda fh: _write_samples_npz(fh, records))
            return len(records)
        records = list(records)
        if dataset in ("jobs", "app_hours", "fs_hours"):
            for record in records:
                _check_home(record, partition)
        if dataset == "jobs":
            text = ingest.serialize_jobs_csv(records)
        elif dataset == "app_hours":
            text = ingest.render_csv(APP_HOURS_HEADER, _app_hour_rows(records))
        elif dataset == "fs_hours":
            text = ingest.render_csv(FS_HOURS_HEADER, _fs_hour_rows(records))
        elif dataset == "baselines":
            for b in records:
                if b.fs_id != partition.fs_id:
                    raise ValueError(
                        f"baseline for {b.fs_id} does not belong in partition "
                        f"{partition.fs_id}"
                    )
            text = ingest.render_csv(BASELINE_HEADER, _baseline_rows(records))
        else:
            raise ValueError(f"dataset {dataset!r} is not a CSV partition dataset")
        self._write_file(self.path(partition), text)
        return len(records)

    def list_fs(self, dataset: str) -> list[str]:
        base = self.root / dataset
        if not base.is_dir():
            return []
        return sorted(p.name for p in base.iterdir() if p.is_dir() and p.name != "all")

    def partition_dates(self, dataset: str, fs_id: str | None) -> list[int]:
        """The days of the dataset's partitions under fs_id, in order.

        Each name with the dataset's suffix must be exactly ``YYYY-MM-DD``
        plus that suffix, and a samples directory must hold no ``.csv``;
        anything else raises StoreError. Hidden files are left aside.
        """
        base = self.root.joinpath(dataset, fs_id or "all")
        try:
            names = os.listdir(base)
        except (FileNotFoundError, NotADirectoryError):
            return []
        suffix = _suffix(dataset)
        dates = []
        for name in sorted(names):
            if name.startswith("."):
                continue
            if dataset == "samples" and name.endswith(".csv"):
                raise _legacy_samples(base / name)
            if not name.endswith(suffix):
                continue
            try:
                dates.append(parse_date(name[: -len(suffix)]))
            except ValueError:
                raise StoreError(f"unexpected file in store: {base / name}")
        return dates

    def _check_no_csv_samples(self) -> None:
        """Raise StoreError naming a CSV samples partition, if the store holds
        one; the tree is scanned once per Store, as each command makes one."""
        if self._samples_checked:
            return
        for path in sorted((self.root / "samples").glob("*/*.csv")):
            raise _legacy_samples(path)
        self._samples_checked = True

    def read_range(
        self, dataset: str, fs_id: str | None, t0: int, t1: int
    ) -> list | SampleBlock:
        """Records with time key in [t0, t1), in time order.

        samples filter on window_start and come back as one SampleBlock of
        one (filesystem, day) partition, empty where none is stored; a
        samples range crossing a UTC midnight raises ValueError.
        app_hours/fs_hours filter on hour, jobs on start (see
        query_jobs_overlapping for span queries), and come back as new lists.
        A day never aggregated raises FileNotFoundError for app_hours/fs_hours.
        """
        if t1 <= t0:
            raise ValueError(f"empty range: t0 {format_utc(t0)} >= t1 {format_utc(t1)}")
        if dataset == "samples":
            return self._read_samples(fs_id, t0, t1)
        if dataset not in _TIME_KEY:
            raise ValueError(f"dataset {dataset!r} does not support read_range")
        parts = [Partition(dataset, fs_id, day) for day in day_range(t0, t1)]
        if dataset in ("app_hours", "fs_hours"):
            for p in parts:
                self._check_aggregated(fs_id, p.date)
        else:
            parts = [p for p in parts if self.path(p).exists()]
        key = _TIME_KEY[dataset]
        out = []
        for p in parts:
            records = self._parsed(dataset, self.path(p))
            if dataset == "jobs":
                records = records.values()
            out.extend(r for r in records if t0 <= key(r) < t1)
        return out

    def _check_aggregated(self, fs_id: str | None, day: int) -> None:
        """Raise FileNotFoundError unless (fs_id, day) has its fs_hours marker."""
        if not self.path(Partition("fs_hours", fs_id, day)).exists():
            raise FileNotFoundError(
                f"no aggregates for {fs_id} on {date_str(day)}; run `lassi aggregate` first"
            )

    def _day_derived(self, fs_id: str, day: int, key: tuple, build):
        """build(app-hour records) of one aggregated (filesystem, day), kept
        beside the parse of its app_hours file under key until the bytes change."""
        self._check_aggregated(fs_id, day)
        path = self.path(Partition("app_hours", fs_id, day))
        _, records, derived = self._entry("app_hours", path)
        if key not in derived:
            derived[key] = build(records)
        return derived[key]

    def day_risk(self, fs_id: str, day: int, baseline: FsBaseline) -> RiskSeries:
        """The 24-hour fs_risk_series of one aggregated (filesystem, day).

        Computed once per baseline value (fs, period, alpha and means) for
        the day's current app_hours bytes; a day never aggregated raises
        FileNotFoundError.
        """
        key = (
            "risk",
            baseline.fs_id,
            baseline.period,
            baseline.alpha,
            tuple(baseline.means[stat] for stat in ALL_FIELDS),
        )
        return self._day_derived(
            fs_id,
            day,
            key,
            lambda records: fs_risk_series(records, baseline, tuple(hour_range(day, day + DAY))),
        )

    def day_apps(self, fs_id: str, day: int) -> Mapping[str, tuple[int, ...]]:
        """Each app_id with app-hours on one aggregated (filesystem, day), with
        those hours (read-only); a day never aggregated raises FileNotFoundError."""

        def index(records) -> Mapping[str, tuple[int, ...]]:
            hours: dict[str, list[int]] = {}
            for r in records:
                hours.setdefault(r.app_id, []).append(r.hour)
            return MappingProxyType({app_id: tuple(h) for app_id, h in hours.items()})

        return self._day_derived(fs_id, day, ("apps",), index)

    def _read_samples(self, fs_id: str, t0: int, t1: int) -> SampleBlock:
        """fs_id's samples in [t0, t1), which lies inside one UTC day; every
        row of that day's partition must belong in it.

        Rows run in window order, so those rows are one slice of the
        partition's columns, taken as views; a whole partition is the loaded
        block itself.
        """
        day = floor_day(t0)
        if t1 > day + DAY:
            raise ValueError(
                f"samples range {format_utc(t0)} to {format_utc(t1)} crosses a UTC midnight; "
                f"samples are read one (filesystem, day) partition at a time"
            )
        self._check_no_csv_samples()
        partition = Partition("samples", fs_id, day)
        if not self.path(partition).exists():
            return SampleBlock.empty(fs_id, self.window_len)
        block = _load_samples(self.path(partition), partition, self.window_len)
        lo, hi = np.searchsorted(block.window, (t0, t1)).tolist()
        return block if (lo, hi) == (0, len(block)) else block.take(slice(lo, hi))

    def _parsed(self, dataset: str, path: Path, data: bytes | None = None):
        """The strict parse of one jobs, app_hours, fs_hours or baselines file.

        Parses are never handed out mutable: jobs come as a read-only app_id
        mapping, aggregates as tuples of frozen records, and callers copy a
        baseline's means. See _entry.
        """
        return self._entry(dataset, path, data)[1]

    def _entry(self, dataset: str, path: Path, data: bytes | None = None):
        """(bytes, parse, derived values) of one file's memo entry.

        The file is read on every call (or its bytes given as data), and an
        earlier entry is reused only while the bytes equal those it came
        from; otherwise the file is parsed afresh and the entry starts with
        no derived values. Aggregate rows must belong in the file's partition.
        """
        if data is None:
            data = path.read_bytes()
        hit = self._memo.get(path)
        if hit is not None and hit[0] == data:
            return hit
        stream = io.StringIO(data.decode("utf-8"), newline="")
        try:
            if dataset == "jobs":
                jobs, _ = ingest.parse_jobs_csv(stream, "strict")
                parsed = MappingProxyType({j.app_id: j for j in jobs})
            elif dataset == "app_hours":
                parsed = self._read_rows(path, stream, APP_HOURS_HEADER, self._app_hour)
            elif dataset == "fs_hours":
                parsed = self._read_rows(path, stream, FS_HOURS_HEADER, self._fs_hour)
            else:
                parsed = self._parse_baseline(path, stream)
        except IngestError as exc:
            raise StoreError(f"{path}: {exc}") from exc
        entry = self._memo[path] = (data, parsed, {})
        return entry

    @staticmethod
    def _rows(path: Path, stream: io.StringIO, header: tuple[str, ...]):
        """(line number, row) of each non-empty row, after the header.

        Rows must be readable as csv and have one cell per header column;
        anything else raises StoreError naming the path and line.
        """
        rows = ingest.csv_rows(stream, 1)
        got = next(rows, (1, None))[1]
        if got is None or isinstance(got, csv.Error) or tuple(got) != header:
            raise StoreError(f"{path}: bad header {got!r}")
        for line_no, row in rows:
            if isinstance(row, csv.Error):
                raise StoreError(f"{path}: line {line_no}: {row}")
            if not row:
                continue
            if len(row) != len(header):
                raise StoreError(
                    f"{path}: line {line_no}: expected {len(header)} columns, got {len(row)}"
                )
            yield line_no, row

    @classmethod
    def _read_rows(cls, path: Path, stream: io.StringIO, header: tuple[str, ...], build) -> tuple:
        home = Partition(path.parent.parent.name, path.parent.name, parse_date(path.stem))
        out = []
        for line_no, row in cls._rows(path, stream, header):
            try:
                record = build(parse_utc(row[0]), row)
                _check_home(record, home)
                out.append(record)
            except ValueError as exc:
                raise StoreError(f"{path}: line {line_no}: {exc}") from exc
        return tuple(out)

    @staticmethod
    def _app_hour(hour: int, row: list[str]) -> AppHourRecord:
        return AppHourRecord(
            app_id=row[2], fs_id=row[1], hour=hour, counters=_canonical_ints(row[3:])
        )

    @staticmethod
    def _fs_hour(hour: int, row: list[str]) -> FsHourRecord:
        vals = _canonical_ints(row[2:])
        n = len(ALL_FIELDS)
        return FsHourRecord(fs_id=row[1], hour=hour, counters=vals[:n], unattributed=vals[n:])

    def query_jobs_overlapping(self, t0: int, t1: int) -> list[JobRecord]:
        """Jobs whose [start, end) intersects [t0, t1), any start date."""
        if t1 <= t0:
            raise ValueError(f"empty range: t0 {format_utc(t0)} >= t1 {format_utc(t1)}")
        out = [
            j for _, jobs in self.job_partitions() for j in jobs.values() if j.overlaps(t0, t1)
        ]
        out.sort(key=lambda j: (j.start, j.app_id))
        return out

    def job_partitions(
        self, app_ids: Collection[str] | None = None
    ) -> Iterator[tuple[int, Mapping[str, JobRecord]]]:
        """Each stored jobs partition's date with its jobs by app_id (read-only).

        Given app_ids, partitions that cannot hold any of them may be left
        out: a file whose bytes have no parse in the memo is parsed only if
        it may name one of them (see _may_hold), so a lookup of a few jobs
        in a new Store reads every partition but parses only those few.
        """
        wanted = None if app_ids is None else {a.encode("utf-8") for a in app_ids}
        for day in self.partition_dates("jobs", None):
            path = self.path(Partition("jobs", None, day))
            data = path.read_bytes()
            hit = self._memo.get(path)
            if hit is not None and hit[0] == data:
                yield day, hit[1]
            elif wanted is None or _may_hold(data, wanted):
                yield day, self._parsed("jobs", path, data)

    def write_baseline(self, baseline: FsBaseline, label_date: int) -> Path:
        """Store a baseline under its filesystem, labeled by report date."""
        partition = Partition("baselines", baseline.fs_id, floor_day(label_date))
        self.write_partition([baseline], partition)
        return self.path(partition)

    def load_baseline(self, fs_id: str, date: int, alpha: float | None = None) -> FsBaseline:
        """Newest stored baseline for fs_id with label date <= date, with
        alpha, when given, in place of the stored one."""
        label = baseline_label(fs_id, date, self.partition_dates("baselines", fs_id))
        return self.baseline_at(fs_id, label, alpha)

    def baseline_at(self, fs_id: str, label_date: int, alpha: float | None = None) -> FsBaseline:
        """The baseline stored for fs_id under exactly label_date, with alpha,
        when given, in place of the stored one; FileNotFoundError if none."""
        path = self.path(Partition("baselines", fs_id, label_date))
        baseline = self._parsed("baselines", path)
        alpha = baseline.alpha if alpha is None else alpha
        return replace(baseline, means=dict(baseline.means), alpha=alpha)

    @classmethod
    def _parse_baseline(cls, path: Path, stream: io.StringIO) -> FsBaseline:
        fs_id = path.parent.name
        means: dict[str, float] = {}
        period = None
        alpha = None
        for line_no, row in cls._rows(path, stream, BASELINE_HEADER):
            if row[0] != fs_id:
                raise StoreError(f"{path}: baseline row for {row[0]!r}, expected {fs_id!r}")
            try:
                period = (parse_utc(row[1]), parse_utc(row[2]))
                alpha = float(row[3])
                mean = float(row[6])
            except ValueError as exc:
                raise StoreError(f"{path}: line {line_no}: {exc}") from exc
            if mean < 0:
                raise StoreError(f"{path}: line {line_no}: negative mean {row[6]!r}")
            means[row[5]] = mean
        if period is None or alpha is None or set(means) != set(ALL_FIELDS):
            raise StoreError(f"{path}: incomplete baseline")
        try:
            return FsBaseline(fs_id=fs_id, period=period, alpha=alpha, means=means)
        except ValueError as exc:
            raise StoreError(f"{path}: {exc}") from exc
