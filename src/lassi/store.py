"""Partitioned on-disk store for samples, jobs, aggregates, and baselines.

Layout: ``<root>/<dataset>/<fs_id | all>/<YYYY-MM-DD>.csv``. Partitions are
rewritten whole: content is serialized in canonical sorted form, written to a
temp file, and moved into place atomically. A ``.lock`` file enforces a single
writer per partition; readers never need the lock because rename is atomic.

Datasets: samples and jobs reuse the ingest wire format; app_hours, fs_hours,
and baselines use the mirrors defined here. Report bundles live under
``<root>/reports/`` but are directories of files, written by the report
module.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import ingest
from .errors import IngestError, MissingBaselineError, StoreError, StoreLockError
from .metrics import FsBaseline
from .model import (
    ALL_FIELDS,
    AppHourRecord,
    FsHourRecord,
    JobRecord,
    SampleBlock,
    vector_to_counters,
)
from .timeutil import DAY, date_str, day_range, floor_day, format_utc, parse_date, parse_utc

DATASETS = ("samples", "jobs", "app_hours", "fs_hours", "baselines", "reports")

APP_HOURS_HEADER = ("hour", "fs", "app_id") + ALL_FIELDS
FS_HOURS_HEADER = (
    ("hour", "fs") + ALL_FIELDS + tuple("un_" + name for name in ALL_FIELDS)
)
BASELINE_HEADER = ("fs", "period_start", "period_end", "alpha", "basis", "stat", "mean")


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

    def relative_path(self) -> Path:
        return Path(self.dataset) / (self.fs_id or "all") / f"{date_str(self.date)}.csv"


def _app_hour_rows(records: Sequence[AppHourRecord]) -> list[tuple]:
    ordered = sorted(records, key=lambda r: (r.hour, r.fs_id, r.app_id))
    return [
        (format_utc(r.hour), r.fs_id, r.app_id) + r.oss.as_tuple() + r.mds.as_tuple()
        for r in ordered
    ]


def _fs_hour_rows(records: Sequence[FsHourRecord]) -> list[tuple]:
    ordered = sorted(records, key=lambda r: (r.hour, r.fs_id))
    return [
        (format_utc(r.hour), r.fs_id)
        + r.oss.as_tuple()
        + r.mds.as_tuple()
        + r.unattributed_oss.as_tuple()
        + r.unattributed_mds.as_tuple()
        for r in ordered
    ]


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
                    b.basis,
                    stat,
                    repr(b.means[stat]),
                )
            )
    return rows


class Store:
    """Filesystem-backed partition store rooted at one directory."""

    def __init__(self, root: str | Path, window_len: int = 180):
        self.root = Path(root)
        self.window_len = window_len

    def path(self, partition: Partition) -> Path:
        return self.root / partition.relative_path()

    @contextmanager
    def _locked(self, path: Path):
        lock = path.with_name(path.name + ".lock")
        lock.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise StoreLockError(f"partition {path} is locked by another writer") from None
        try:
            yield
        finally:
            os.close(fd)
            os.unlink(lock)

    def _write_text(self, path: Path, text: str) -> None:
        with self._locked(path):
            tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
            try:
                tmp.write_text(text, encoding="utf-8")
                os.replace(tmp, path)
            finally:
                if tmp.exists():
                    tmp.unlink()

    def write_partition(self, records: Iterable, partition: Partition) -> int:
        """Replace one partition with the given records. Returns row count.

        Every record must belong to the partition's filesystem and day;
        anything else raises ValueError. Samples may come as a SampleBlock.
        """
        dataset = partition.dataset
        if dataset == "samples":
            block = SampleBlock.from_samples(records, self.window_len)
            outside = (block.fs != partition.fs_id) | (
                block.window - block.window % DAY != partition.date
            )
            if outside.any():
                raise ValueError(
                    f"record {block[int(np.argmax(outside))]} outside partition "
                    f"({partition.fs_id}, {date_str(partition.date)})"
                )
            self._write_text(self.path(partition), ingest.serialize_stats_csv(block))
            return len(block)
        records = list(records)
        if dataset == "jobs":
            self._check_bounds(records, partition, lambda j: (None, floor_day(j.start)))
            text = ingest.serialize_jobs_csv(records)
        elif dataset == "app_hours":
            self._check_bounds(records, partition, lambda r: (r.fs_id, floor_day(r.hour)))
            text = ingest.render_csv(APP_HOURS_HEADER, _app_hour_rows(records))
        elif dataset == "fs_hours":
            self._check_bounds(records, partition, lambda r: (r.fs_id, floor_day(r.hour)))
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
        self._write_text(self.path(partition), text)
        return len(records)

    @staticmethod
    def _check_bounds(records, partition: Partition, key) -> None:
        for record in records:
            fs_id, day = key(record)
            if fs_id != partition.fs_id or day != partition.date:
                raise ValueError(
                    f"record {record} outside partition "
                    f"({partition.fs_id}, {date_str(partition.date)})"
                )

    def list_fs(self, dataset: str) -> list[str]:
        base = self.root / dataset
        if not base.is_dir():
            return []
        return sorted(p.name for p in base.iterdir() if p.is_dir() and p.name != "all")

    def partition_dates(self, dataset: str, fs_id: str | None) -> list[int]:
        base = self.root / dataset / (fs_id or "all")
        if not base.is_dir():
            return []
        dates = []
        for p in sorted(base.glob("*.csv")):
            try:
                dates.append(parse_date(p.stem))
            except ValueError:
                raise StoreError(f"unexpected file in store: {p}")
        return dates

    def read_range(
        self, dataset: str, fs_id: str | None, t0: int, t1: int
    ) -> list | SampleBlock:
        """Records with time key in [t0, t1), in time order.

        samples filter on window_start and come back as one SampleBlock;
        app_hours/fs_hours filter on hour, jobs on start (see
        query_jobs_overlapping for span queries), and come back as lists.
        """
        if t1 <= t0:
            raise ValueError(f"empty range: t0 {format_utc(t0)} >= t1 {format_utc(t1)}")
        parts = []
        for day in day_range(t0, t1):
            path = self.root / Partition(dataset, fs_id, day).relative_path()
            if path.exists():
                parts.append(self._read_file(dataset, path, t0, t1))
        if dataset == "samples":
            return SampleBlock.concat(parts, self.window_len)
        return [record for part in parts for record in part]

    def _read_file(self, dataset: str, path: Path, t0: int, t1: int) -> list | SampleBlock:
        try:
            if dataset == "samples":
                block, _ = ingest.parse_stats_csv(path, "strict", self.window_len)
                return block.take((t0 <= block.window) & (block.window < t1))
            if dataset == "jobs":
                jobs, _ = ingest.parse_jobs_csv(path, "strict")
                return [j for j in jobs if t0 <= j.start < t1]
            if dataset == "app_hours":
                return self._read_rows(path, APP_HOURS_HEADER, self._app_hour, t0, t1)
            if dataset == "fs_hours":
                return self._read_rows(path, FS_HOURS_HEADER, self._fs_hour, t0, t1)
        except IngestError as exc:
            raise StoreError(f"{path}: {exc}") from exc
        raise ValueError(f"dataset {dataset!r} does not support read_range")

    @staticmethod
    def _read_rows(path: Path, header: tuple[str, ...], build, t0: int, t1: int) -> list:
        out = []
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            got = next(reader, None)
            if got is None or tuple(got) != header:
                raise StoreError(f"{path}: bad header {got!r}")
            for row in reader:
                if not row:
                    continue
                try:
                    hour = parse_utc(row[0])
                except ValueError as exc:
                    raise StoreError(f"{path}: {exc}") from exc
                if t0 <= hour < t1:
                    out.append(build(hour, row))
        return out

    @staticmethod
    def _app_hour(hour: int, row: list[str]) -> AppHourRecord:
        oss, mds = vector_to_counters([int(v) for v in row[3:]])
        return AppHourRecord(app_id=row[2], fs_id=row[1], hour=hour, oss=oss, mds=mds)

    @staticmethod
    def _fs_hour(hour: int, row: list[str]) -> FsHourRecord:
        vals = [int(v) for v in row[2:]]
        n = len(ALL_FIELDS)
        oss, mds = vector_to_counters(vals[:n])
        un_oss, un_mds = vector_to_counters(vals[n:])
        return FsHourRecord(
            fs_id=row[1],
            hour=hour,
            oss=oss,
            mds=mds,
            unattributed_oss=un_oss,
            unattributed_mds=un_mds,
        )

    def query_jobs_overlapping(self, t0: int, t1: int) -> list[JobRecord]:
        """Jobs whose [start, end) intersects [t0, t1), any start date."""
        if t1 <= t0:
            raise ValueError(f"empty range: t0 {format_utc(t0)} >= t1 {format_utc(t1)}")
        out: list[JobRecord] = []
        base = self.root / "jobs" / "all"
        if base.is_dir():
            for path in sorted(base.glob("*.csv")):
                try:
                    jobs, _ = ingest.parse_jobs_csv(path, "strict")
                except IngestError as exc:
                    raise StoreError(f"{path}: {exc}") from exc
                out.extend(j for j in jobs if j.overlaps(t0, t1))
        out.sort(key=lambda j: (j.start, j.app_id))
        return out

    def write_baseline(self, baseline: FsBaseline, label_date: int) -> Path:
        """Store a baseline under its filesystem, labeled by report date."""
        partition = Partition("baselines", baseline.fs_id, floor_day(label_date))
        self.write_partition([baseline], partition)
        return self.path(partition)

    def load_baseline(self, fs_id: str, date: int) -> FsBaseline:
        """Newest stored baseline for fs_id with label date <= date."""
        candidates = [d for d in self.partition_dates("baselines", fs_id) if d <= date]
        if not candidates:
            raise MissingBaselineError(
                f"no baseline stored for {fs_id} on or before {date_str(date)}; "
                f"run `lassi baseline` first"
            )
        path = self.root / Partition("baselines", fs_id, max(candidates)).relative_path()
        return self._parse_baseline(path, fs_id)

    @staticmethod
    def _parse_baseline(path: Path, fs_id: str) -> FsBaseline:
        means: dict[str, float] = {}
        period = None
        alpha = None
        basis = "fs_total"
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            got = next(reader, None)
            if got is None or tuple(got) != BASELINE_HEADER:
                raise StoreError(f"{path}: bad header {got!r}")
            for row in reader:
                if not row:
                    continue
                if row[0] != fs_id:
                    raise StoreError(f"{path}: baseline row for {row[0]!r}, expected {fs_id!r}")
                period = (parse_utc(row[1]), parse_utc(row[2]))
                alpha = float(row[3])
                basis = row[4]
                means[row[5]] = float(row[6])
        if period is None or alpha is None or set(means) != set(ALL_FIELDS):
            raise StoreError(f"{path}: incomplete baseline")
        return FsBaseline(fs_id=fs_id, period=period, alpha=alpha, means=means, basis=basis)
