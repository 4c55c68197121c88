"""Partitioned on-disk store for samples, jobs, aggregates, and baselines.

Layout: ``<root>/<dataset>/<fs_id | all>/<YYYY-MM-DD>.<suffix>``, where the
suffix is ``npz`` for samples and ``csv`` for every other dataset. Partitions
are rewritten whole, in canonical sorted form, by a batch (staging; one
write is a batch of one): each file is staged as a fsynced file in the root,
and one commit renames them all into place, then fsyncs each directory once
(the stage-then-rename code replace_files, the writer of report bundles and
RSD tables, shares). A ``fcntl.flock`` on a ``<partition file>.lock`` file
enforces a single writer per partition, and ends with its writer, even a
killed one; readers never need the lock because rename is atomic. A batch's
merge holds the lock from before it reads the stored rows to the commit, so
two merging writers cannot lose each other's rows; a merge that changes
nothing stages nothing. Partition file names are exactly ``YYYY-MM-DD`` plus
the dataset's suffix; any other name with that suffix is an unexpected file
(StoreError).

One record describes the store, ``<root>/store.json``: ``{"format":
FORMAT, "window_len": <int or null>}``, renamed by the commit that writes
the store's first partition, before it, and re-read under its own lock;
the first samples written set the window length, the first writer winning
(another value raises StoreError). A ``Store`` reads it once, at first use, and takes its
window_len: the record's, else the value given (another raises
StoreError), else 180. A root holding a partition file but no record of
this FORMAT, as every store of an earlier layout does, is refused with
StoreError and a hint to re-ingest the input into a new store; there is no
migration. Lock files and empty directories, which a refused or killed
command can leave, are no partition files: a root of only those is new.

A samples partition is an uncompressed ``.npz`` of the block's columns,
written and read by the samples_file module: open_samples opens one,
checked whole (StoredSamples), its keys held and its counters read a row
range at a time.

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
this; the memo lives as long as the ``Store``. A lookup of jobs by app_id
reads every jobs file but parses only those whose bytes may name one of them.

Datasets: jobs reuse the ingest wire format; app_hours, fs_hours, and
baselines use the CSV mirrors defined here. Report bundles live under
``<root>/reports/`` but are directories of files, written by the report
module.
"""

from __future__ import annotations

import csv
import fcntl
import io
import json
import os
from bisect import bisect_right
from contextlib import ExitStack, closing, contextmanager
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

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
    SampleKeys,
)
from .samples_file import StoredSamples, write_samples_npz
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
FS_HOURS_HEADER = ("hour", "fs") + ALL_FIELDS + tuple("un_" + name for name in ALL_FIELDS)
BASELINE_HEADER = ("fs", "period_start", "period_end", "alpha", "stat", "mean")
# the layout version store.json records; a layout change bumps it
FORMAT = 1

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


def _suffix(dataset: str) -> str:
    """The file name suffix of a dataset's partitions."""
    return ".npz" if dataset == "samples" else ".csv"


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


def _check_samples_home(block: SampleKeys, partition: Partition) -> None:
    """Raise ValueError unless every sample row belongs in the partition;
    only a partition with a row outside pays for a mask of its rows."""
    window = block.window
    if block.fs_id == partition.fs_id and (
        not len(window) or partition.date <= window.min() and window.max() < partition.date + DAY
    ):
        return
    outside = (window - window % DAY != partition.date) | (block.fs_id != partition.fs_id)
    if outside.any():
        raise ValueError(
            f"sample {block.key(int(np.argmax(outside)))} outside partition "
            f"({partition.fs_id}, {date_str(partition.date)})"
        )


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


class _Staged(list):
    """(temp file, destination) pairs, each file written and fsynced
    (stage), then all renamed in order and each destination directory
    fsynced once (commit); closing unlinks every temp file not renamed."""

    def _temp(self, dest: Path) -> Path:
        return dest.with_name(f"{dest.name}.tmp{os.getpid()}")

    def stage(self, dest: Path, data: str | bytes | Callable) -> None:
        """Write data's bytes, its text as UTF-8 or what a function writes to
        the open file, to dest's temp file, and fsync it."""
        tmp = self._temp(dest)
        self.append((tmp, dest))
        with open(tmp, "wb") as fh:
            if callable(data):
                data(fh)
            else:
                fh.write(data.encode("utf-8") if isinstance(data, str) else data)
            fh.flush()
            os.fsync(fh.fileno())

    def commit(self) -> None:
        for tmp, dest in self:
            os.replace(tmp, dest)
        for directory in dict.fromkeys(dest.parent for _, dest in self):
            fd = os.open(directory, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    def close(self) -> None:
        for tmp, _ in self:
            tmp.unlink(missing_ok=True)


def replace_files(directory: Path, files: Mapping[str, str | bytes | Callable]) -> None:
    """Replace each named file in directory with its data, as _Staged.stage
    takes it: all are staged beside their names, in name order, before the
    first is renamed, so a failed write leaves every file as it was."""
    directory.mkdir(parents=True, exist_ok=True)
    with closing(_Staged()) as staged:
        for name, data in sorted(files.items()):
            staged.stage(directory / name, data)
        staged.commit()


def _app_hour_rows(records: Sequence[AppHourRecord]) -> list[tuple]:
    ordered = sorted(records, key=lambda r: (r.hour, r.fs_id, r.app_id))
    return [(format_utc(r.hour), r.fs_id, r.app_id) + r.counters for r in ordered]


def _fs_hour_rows(records: Sequence[FsHourRecord]) -> list[tuple]:
    ordered = sorted(records, key=lambda r: (r.hour, r.fs_id))
    return [(format_utc(r.hour), r.fs_id) + r.counters + r.unattributed for r in ordered]


def _baseline_rows(baselines: Sequence[FsBaseline]) -> list[tuple]:
    rows = []
    for b in sorted(baselines, key=lambda b: b.fs_id):
        head = (b.fs_id, format_utc(b.period[0]), format_utc(b.period[1]), repr(b.alpha))
        rows.extend((*head, stat, repr(b.means[stat])) for stat in ALL_FIELDS)
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

    def __init__(self, root: str | Path, window_len: int | None = None):
        self.root = Path(root)
        # see _open and _Batch.commit
        self._given_window_len = window_len
        self._window_len: int | None = None
        self._record: dict | None = None
        # path -> (the bytes last parsed there, their parse, values derived
        # from that parse by key); see _entry
        self._memo: dict[Path, tuple[bytes, object, dict]] = {}
        # each partition's path, resolved once; see path
        self._paths: dict[Partition, Path] = {}

    @property
    def window_len(self) -> int:
        """The samples' window length, resolved when the store is opened (_open)."""
        self._open()
        return self._window_len

    def _open(self) -> None:
        """Read the record and resolve window_len, at the first call (see the module docstring)."""
        if self._window_len is not None:
            return
        record = self._read_record()
        if record is None and any(
            not name.endswith(".lock")
            for dataset in DATASETS[:-1]  # reports are outputs, not partitions
            for _, _, names in os.walk(self.root / dataset)
            for name in names
        ):
            raise StoreError(
                f"{self.root}: a store with no store.json of format {FORMAT}, which this "
                f"version does not read; re-ingest the input into a new store"
            )
        recorded, given = record and record["window_len"], self._given_window_len
        if None not in (recorded, given) and given != recorded:
            raise StoreError(f"{self.root}: window_len {given} given, the store's is {recorded}")
        self._record = record
        self._window_len = recorded or (180 if given is None else given)

    def _read_record(self) -> dict | None:
        """The record, None if there is none of FORMAT; StoreError unless it is
        a JSON object with an integer format and, for FORMAT, just a window_len
        that is null or positive."""
        path = self.root / "store.json"
        try:
            data = path.read_bytes()
            record = json.loads(data)
        except FileNotFoundError:
            return None
        except ValueError:
            record = None
        if isinstance(record, dict) and type(record.get("format")) is int:
            if record["format"] != FORMAT:
                return None
            length = record.get("window_len", 0)
            if len(record) == 2 and (length is None or type(length) is int and length > 0):
                return record
        raise StoreError(f"{path}: bad store record {data[:64]!r}")

    def _record_for(self, stored: dict | None, samples: bool) -> dict:
        """The record a write over the stored one needs: the store, and for
        samples their window_len; StoreError if stored holds another, since
        the first writer's window_len wins."""
        recorded = stored and stored["window_len"]
        if samples and recorded not in (None, self.window_len):
            path = self.root / "store.json"
            raise StoreError(f"{path}: window_len {recorded}, not {self.window_len}")
        return {"format": FORMAT, "window_len": recorded or (self.window_len if samples else None)}

    def path(self, partition: Partition) -> Path:
        """The partition's file below the root, joined once per Store."""
        path = self._paths.get(partition)
        if path is None:
            self._open()
            path = self._paths[partition] = self.root.joinpath(*partition.parts())
        return path

    @contextmanager
    def _locked(self, path: Path):
        """Hold the partition's lock."""
        lock = path.with_name(path.name + ".lock")
        lock.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(lock, os.O_CREAT | os.O_WRONLY)
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise StoreLockError(f"partition {path} is locked by another writer") from None
            yield
        finally:
            # closing releases the lock; the file stays, since a writer that
            # unlinked it could leave the next two locking different files
            os.close(fd)

    def staging(self) -> closing[_Batch]:
        """A batch of partition writes (_Batch) that writes nothing until its
        commit; a with statement closes it, however the block ends."""
        return closing(_Batch(self))

    def write_aggregates(self, fs_id: str, day: int, app_hours, fs_hours) -> None:
        """Write a (filesystem, day)'s app_hours, then the fs_hours that mark it aggregated."""
        self.write_partition(app_hours, Partition("app_hours", fs_id, day))
        self.write_partition(fs_hours, Partition("fs_hours", fs_id, day))

    def write_partition(self, records: Iterable | SampleKeys, partition: Partition) -> int:
        """Replace one partition with the given records, a batch of one
        (staging), so with the store's record when it needs writing.
        Returns row count."""
        with self.staging() as batch:
            count = batch.write(records, partition)
            batch.commit()
        return count

    def _serialized(self, records: Iterable | SampleKeys, partition: Partition):
        """(a partition file's content, as _Staged.stage takes it, row count).

        Every record must belong to the partition's filesystem and day;
        anything else raises ValueError, as do samples of another window_len.
        Samples come as sample keys, their counters written a row chunk at a
        time (write_samples_npz) as the file is.
        """
        dataset = partition.dataset
        if dataset == "samples":
            if records.window_len != self.window_len:
                raise ValueError(f"samples of window_len {records.window_len}, not {self.window_len}")
            _check_samples_home(records, partition)
            # straight into the temp file: an in-memory .npz first would copy
            # the partition twice, and cost a fresh page for every 4 KiB
            return (lambda fh: write_samples_npz(fh, records)), len(records)
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
        return text, len(records)

    def list_fs(self, dataset: str) -> list[str]:
        self._open()
        base = self.root / dataset
        if not base.is_dir():
            return []
        return sorted(p.name for p in base.iterdir() if p.is_dir() and p.name != "all")

    def partition_dates(self, dataset: str, fs_id: str | None) -> list[int]:
        """The days of the dataset's partitions under fs_id, in order.

        Each name with the dataset's suffix must be exactly ``YYYY-MM-DD``
        plus that suffix; anything else raises StoreError, as does a store
        this version does not read. Hidden files are left aside.
        """
        self._open()
        base = self.root.joinpath(dataset, fs_id or "all")
        try:
            names = os.listdir(base)
        except (FileNotFoundError, NotADirectoryError):
            return []
        suffix = _suffix(dataset)
        dates = []
        for name in sorted(names):
            if name.startswith(".") or not name.endswith(suffix):
                continue
            try:
                dates.append(parse_date(name[: -len(suffix)]))
            except ValueError:
                raise StoreError(f"unexpected file in store: {base / name}")
        return dates

    def read_range(self, dataset: str, fs_id: str | None, t0: int, t1: int) -> list:
        """Records with time key in [t0, t1), in time order, as a new list.

        app_hours/fs_hours filter on hour, jobs on start (see
        query_jobs_overlapping for span queries); samples are read through
        open_samples. A day never aggregated raises FileNotFoundError for
        app_hours/fs_hours.
        """
        if t1 <= t0:
            raise ValueError(f"empty range: t0 {format_utc(t0)} >= t1 {format_utc(t1)}")
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
            records = self._entry(dataset, self.path(p))[1]
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
        means = tuple(baseline.means[stat] for stat in ALL_FIELDS)
        key = ("risk", baseline.fs_id, baseline.period, baseline.alpha, means)
        hours = tuple(hour_range(day, day + DAY))
        return self._day_derived(fs_id, day, key, lambda r: fs_risk_series(r, baseline, hours))

    def day_apps(self, fs_id: str, day: int) -> Mapping[str, tuple[int, ...]]:
        """Each app_id with app-hours on one aggregated (filesystem, day), with
        those hours (read-only); a day never aggregated raises FileNotFoundError."""

        def index(records) -> Mapping[str, tuple[int, ...]]:
            hours: dict[str, list[int]] = {}
            for r in records:
                hours.setdefault(r.app_id, []).append(r.hour)
            return MappingProxyType({app_id: tuple(h) for app_id, h in hours.items()})

        return self._day_derived(fs_id, day, ("apps",), index)

    @contextmanager
    def open_samples(self, fs_id: str, day: int) -> Iterator[StoredSamples | SampleBlock]:
        """fs_id's samples partition of one UTC day, opened and checked
        whole (StoredSamples), closed when the context ends; an empty
        SampleBlock where none is stored."""
        path = self.path(Partition("samples", fs_id, day))
        if not path.exists():
            yield SampleBlock.empty(fs_id, self.window_len)
            return
        with StoredSamples(path, fs_id, day, self.window_len) as stored:
            yield stored

    def _entry(self, dataset: str, path: Path, data: bytes | None = None):
        """(bytes, strict parse, derived values) of one jobs, app_hours,
        fs_hours or baselines file's memo entry.

        The file is read on every call (or its bytes given as data), and an
        earlier entry is reused only while the bytes equal those it came
        from; otherwise the file is parsed afresh and the entry starts with
        no derived values. Aggregate rows must belong in the file's partition.
        Parses are never handed out mutable: jobs come as a read-only app_id
        mapping, aggregates as tuples of frozen records, and callers copy a
        baseline's means.
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
        rows = ingest.csv_rows(stream)
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
        vals, n = _canonical_ints(row[2:]), len(ALL_FIELDS)
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
                yield day, self._entry("jobs", path, data)[1]

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
        baseline = self._entry("baselines", path)[1]
        alpha = baseline.alpha if alpha is None else alpha
        return replace(baseline, means=dict(baseline.means), alpha=alpha)

    @classmethod
    def _parse_baseline(cls, path: Path, stream: io.StringIO) -> FsBaseline:
        fs_id = path.parent.name
        means: dict[str, float] = {}
        period = alpha = None
        for line_no, row in cls._rows(path, stream, BASELINE_HEADER):
            if row[0] != fs_id:
                raise StoreError(f"{path}: baseline row for {row[0]!r}, expected {fs_id!r}")
            try:
                period = (parse_utc(row[1]), parse_utc(row[2]))
                alpha = float(row[3])
                mean = float(row[5])
            except ValueError as exc:
                raise StoreError(f"{path}: line {line_no}: {exc}") from exc
            if mean < 0:
                raise StoreError(f"{path}: line {line_no}: negative mean {row[5]!r}")
            means[row[4]] = mean
        if period is None or alpha is None or set(means) != set(ALL_FIELDS):
            raise StoreError(f"{path}: incomplete baseline")
        try:
            return FsBaseline(fs_id=fs_id, period=period, alpha=alpha, means=means)
        except ValueError as exc:
            raise StoreError(f"{path}: {exc}") from exc


class _Batch(_Staged):
    """Partition files staged in the store root for one commit, which
    renames them into place after the store's record; closing the batch
    also releases every lock it holds (Store.staging)."""

    def __init__(self, store: Store):
        super().__init__()
        self.store, self.locks, self.samples = store, ExitStack(), False
        # staged partitions the commit locks, each with whether it had no file when read
        self.unlocked: list[tuple[Path, bool]] = []

    def merge(self, p: Partition, merge) -> tuple[int, bool]:
        """Stage partition p as merge(stored rows) -> (rows, count) unless
        that returns the stored rows themselves; returns count and whether
        p was staged. A partition with a file or a lock file is locked
        before its stored rows are read and, if staged, until the batch
        closes. Stored samples come open (open_samples), so the merged rows
        may read their counters from the stored file as they are staged.
        """
        store, path = self.store, self.store.path(p)
        with ExitStack() as lock, ExitStack() as opened:
            locked = path.exists() or path.with_name(path.name + ".lock").exists()
            if locked:
                lock.enter_context(store._locked(path))
            exists = path.exists()
            if p.dataset == "samples":
                stored = opened.enter_context(store.open_samples(p.fs_id, p.date))
            else:
                stored = store.read_range(p.dataset, p.fs_id, p.date, p.date + DAY)
            rows, count = merge(stored)
            if rows is stored and exists:
                return count, False
            self._stage(rows, p)
            self.locks.push(lock.pop_all())
            if not locked:
                self.unlocked.append((path, True))
        return count, True

    def write(self, rows, p: Partition) -> int:
        """Stage partition p as rows, to be locked at the commit; returns their count."""
        self.unlocked.append((self.store.path(p), False))
        return self._stage(rows, p)

    def _stage(self, rows, p: Partition) -> int:
        data, count = self.store._serialized(rows, p)
        self.stage(self.store.path(p), data)
        self.samples |= p.dataset == "samples"
        return count

    def _temp(self, dest: Path) -> Path:
        """dest's staged file: in the store root, never under a dataset directory."""
        root = self.store.root
        root.mkdir(parents=True, exist_ok=True)
        return root / f".stage{os.getpid()}.{'_'.join(dest.relative_to(root).parts)}"

    def commit(self) -> None:
        """Rename the store's record, when this batch needs it written
        (_record_for), then every staged partition into place. The record
        is staged before any lock is taken here. A partition staged with no
        file, which another writer has written since, raises StoreLockError;
        the record is re-read under its lock, and left as it is if it holds
        what this batch needs."""
        store, path = self.store, self.store.root / "store.json"
        record = store._record_for(store._record, self.samples)
        if not self or record == store._record:
            record = None
        else:
            self.stage(path, json.dumps(record) + "\n")
            self.insert(0, self.pop())  # no partition lands before the record
        for dest, new in self.unlocked:
            self.locks.enter_context(store._locked(dest))
            if new and dest.exists():
                raise StoreLockError(f"partition {dest} was written by another writer meanwhile")
        if record is not None:
            self.locks.enter_context(store._locked(path))
            stored = store._read_record()
            # a record only ever gains a window_len, so a write needs it as it is or the staged one
            if store._record_for(stored, self.samples) == stored:
                self.pop(0)[0].unlink()
                record = stored
        super().commit()
        store._record = record or store._record

    def close(self) -> None:
        super().close()
        self.locks.close()
