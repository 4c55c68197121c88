"""End-to-end flows: files into the store, store into aggregates and results.

Thin orchestration over the ingest, attribution, metric, and analysis modules;
all policy lives there but the zero-fill of idle job hours, which spans
partitions (_zero_fill), and locking, durable writes and the refusal of days
never aggregated live in the store. The store-facing flows partition by
(filesystem, day) and are idempotent: re-ingesting the same file changes
nothing and writes no partition, re-aggregating a range rewrites the same
partitions.

Aggregation and ingest each work on one (filesystem, day) partition of
samples at a time, so their memory grows with a partition's keys, not with
the range or the file; of a stored partition they hold the keys, and read
the counters a row range at a time (samples_file.FileSamples, the one
reader of counters from files, stored or spilled). A sample
block holds one filesystem, so attribution, hourly totals and the
conservation check each see one filesystem. Aggregation keeps its output
(hourly records) between partitions and zero-fills it once after the last.
Each stats file streams into spill files in the store root, one per span a
large file is parsed in, which ingest's later passes read back one
partition at a time, its keys held and its counters read from the spill as
they are merged and written, by the same reader (samples_file.FileSamples).
compute_outputs_from_files, which `lassi verify` runs, is this same flow
(ingest, aggregate, baselines, exposures) on a temporary store, so the
oracle checks what an operator's store holds.
"""

from __future__ import annotations

import tempfile
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Collection, Iterable, Mapping, Sequence

import numpy as np

from . import model
from .analysis import ExposureRecord, run_risk_exposure
from .attribution import (
    AttributionConfig,
    add_rows,
    aggregate_hourly,
    attribute,
    fs_hourly_totals,
    node_index,
)
from .errors import IngestError, LassiError
from .ingest import SpilledStats, parse_jobs_csv, parse_stats_csv
from .metrics import FsBaseline, RiskSeries, compute_baseline, ops_series
from .metrics import fs_risk_series  # noqa: F401 -- perfbench's span table wraps it here
from .model import ALL_FIELDS, AppHourRecord, FsHourRecord, JobRecord, SampleBlock, SampleKeys
from .store import Partition, Store, baseline_label
from .timeutil import DAY, HOUR, date_str, day_range, floor_day, floor_hour, format_utc, hour_range

_N = len(ALL_FIELDS)
# the most rows aggregate_range attributes and rolls up at once, in whole
# hours (one hour however many it holds): the week's 16,320-row partitions
# go in four 6-hour ranges, whose rollups took 0.19-0.22 s in all on a
# 2-vCPU host, against 0.17-0.19 s for whole partitions and 0.51-0.58 s an
# hour at a time
_ROLLUP_ROWS = 4096


@dataclass(frozen=True)
class IngestSummary:
    samples: int
    jobs: int
    rejected: int
    partitions: int
    # partitions rewritten; a merge that changes no stored row leaves its file as it is
    written: int


@dataclass(frozen=True)
class AggregateSummary:
    filesystems: tuple[str, ...]
    app_hour_records: int
    fs_hour_records: int
    partitions: int


@dataclass(frozen=True)
class PipelineOutputs:
    """Everything the verifier compares against an oracle directory."""

    period: tuple[int, int]
    alpha: float
    app_hours: tuple[AppHourRecord, ...]
    fs_hours: tuple[FsHourRecord, ...]
    baselines: dict[str, FsBaseline]
    risk: dict[str, RiskSeries]
    ops: dict[str, tuple[tuple[int, float | None, float | None], ...]]
    exposures: tuple[ExposureRecord, ...]


def _merge(
    old: list[JobRecord], new: Iterable[JobRecord], mode: str, where: str, drop: Collection = ()
) -> tuple[list[JobRecord], int]:
    """Union by app_id, less old jobs in drop, new jobs winning; also the
    number of jobs a new one changed. Strict mode refuses a changed job instead.

    When that leaves every old job as it was and adds none, the union is old
    itself.
    """
    merged = {j.app_id: j for j in old if j.app_id not in drop}
    same = len(merged) == len(old)
    changed = 0
    for job in new:
        prior = merged.get(job.app_id)
        if prior is not None and prior != job:
            if mode == "strict":
                raise IngestError(0, f"job {job.app_id} conflicts {where}")
            changed += 1
        same = same and prior == job
        merged[job.app_id] = job
    return (old if same else list(merged.values())), changed


class _Union(SampleKeys):
    """The key-wise union of old and new rows (_union), its counters read
    as they are asked for, each row's from the side it comes from by that
    side's counter_rows, so neither side's counters are held.

    The plan is the size of new, not of old: the positions in old of the
    rows new changed (replaced) and of their new rows (replacing), and the
    union positions of the rows new added (slots) and of their new rows
    (added); every other union row is old's, in order. Each ends in a
    sentinel no search finds, so a search result always indexes it.
    """

    __slots__ = ("old", "new", "replaced", "replacing", "slots", "added")

    def __init__(self, old, new, node_labels, node, window, replaced, replacing, slots, added):
        super().__init__(new.fs_id, node_labels, node, window, new.window_len)
        self.old, self.new = old, new
        self.replaced, self.replacing = np.r_[replaced, len(old)], np.r_[replacing, 0]
        self.slots, self.added = np.r_[slots, len(node)], np.r_[added, 0]

    def counter_rows(self, rows: np.ndarray) -> np.ndarray:
        """The counters of ascending union rows rows: both sides' rows come
        in ascending order, as each side reads them."""
        before = np.searchsorted(self.slots, rows)  # added rows before each row
        is_added = self.slots[before] == rows
        at = rows - before  # a row's position in old, unless it is added
        r = np.searchsorted(self.replaced, at)
        from_new = is_added | (self.replaced[r] == at)
        out = np.empty((len(rows), _N), np.int64)
        new_rows = np.where(is_added, self.added[before], self.replacing[r])
        out[from_new] = self.new.counter_rows(new_rows[from_new])
        out[~from_new] = self.old.counter_rows(at[~from_new])
        return out


def _union(old: SampleKeys, new: SampleKeys) -> tuple[SampleKeys, np.ndarray]:
    """Key-wise union in canonical order of two sets of one filesystem's
    rows, new rows winning; also the positions in new, ascending, of the
    rows that changed an old row's counters. When no new row adds a key or
    changes a counter, the union is old itself, and no counter is copied.

    Either side is any sample keys that answer counter_rows: a held
    block, a stored partition or a spilled one, or another union. Only
    keys are held: each side's counters are read model._READ_ROWS rows at a
    time, once to compare the rows new repeats and, should anything
    change, once more as the union (a _Union) is written. Besides the
    union's node and window columns, what is built is the size of new.
    """
    if old.fs_id != new.fs_id:
        raise ValueError(f"cannot merge samples of {new.fs_id} into {old.fs_id}")
    if not len(old):
        return new, np.empty(0, np.int64)
    n = len(old)
    if old.node_labels == new.node_labels:
        node_labels, old_node, new_node = old.node_labels, old.node, new.node
    else:
        # every label of a side is used by its rows, so the union's are both sides'
        node_labels = tuple(sorted({*old.node_labels, *new.node_labels}))
        code = {label: i for i, label in enumerate(node_labels)}
        old_node, new_node = (
            np.array([code[label] for label in side.node_labels], np.int32)[side.node]
            for side in (old, new)
        )
    # both sides are sorted on (window, node) with unique keys, so each new
    # row is found among old's by one binary search on an int64 key, the
    # window's distance from old's first and then the node's code; old's
    # keys are built a chunk at a time, only for chunks new rows fall in
    labels, w0 = len(node_labels), int(old.window[0])
    new_key = (new.window - w0) * labels + new_node
    at = np.full(len(new), n)  # each new row's place among old's rows
    found = np.zeros(len(new), bool)
    j, step = 0, model._READ_ROWS
    for lo in range(0, n, step):
        if j == len(new):
            break
        hi = min(lo + step, n)
        last = (int(old.window[hi - 1]) - w0) * labels + int(old_node[hi - 1])
        k = int(np.searchsorted(new_key, last, "right"))
        if k > j:
            key = (old.window[lo:hi] - w0) * labels + old_node[lo:hi]
            i = np.searchsorted(key, new_key[j:k])
            at[j:k], found[j:k] = lo + i, key[i] == new_key[j:k]
            j = k
    del new_key
    # repeated rows run ascending on both sides
    replaced, replacing = at[found], np.flatnonzero(found)
    differs = np.empty(len(replaced), bool)
    for lo in range(0, len(replaced), step):
        rows = slice(lo, lo + step)
        was = old.counter_rows(replaced[rows])
        differs[rows] = (was != new.counter_rows(replacing[rows])).any(1)
    changed = replacing[differs]
    added = np.flatnonzero(~found)
    if not len(changed) and not len(added):
        return old, changed
    # old's columns with each added row put before the old row it precedes
    where = at[added]
    node = np.insert(old_node, where, new_node[added])
    del old_node  # a remapped copy of old's codes is let go before the windows are built
    window = np.insert(old.window, where, new.window[added])
    slots = where + np.arange(len(added))
    union = _Union(old, new, node_labels, node, window, replaced[differs], changed, slots, added)
    return union, changed


def _merge_samples(
    old: SampleKeys, new: SampleKeys, mode: str, where: str
) -> tuple[SampleKeys, int]:
    """Key-wise union in canonical order, new rows winning (_union); also
    the number of rows whose counters a new row changed.

    Strict mode refuses a changed row instead, naming the first in
    canonical order.
    """
    merged, changed = _union(old, new)
    if len(changed) and mode == "strict":
        raise IngestError(0, f"sample {new.key(int(changed[0]))} conflicts {where}")
    return merged, len(changed)


def _merge_inputs(
    inputs: Sequence[tuple[str | Path, SpilledStats]], fs_id: str, day: int
) -> tuple[SampleKeys, int, tuple | None]:
    """One (filesystem, day) partition's rows of every input that has it,
    merged in input order, later inputs winning, as keys whose counters
    are read from the spills (SpilledStats.partition, _union); with the
    number of rows a later input changed, and the first such change as
    (input position, (window, fs, node) key, (fs, node, window) key), or
    None."""
    merged, changed, first = None, 0, None
    for k, (_, spilled) in enumerate(inputs):
        if (fs_id, day) not in spilled.partitions:
            continue
        rows = spilled.partition(fs_id, day)
        if merged is None:
            merged = rows
            continue
        merged, by = _union(merged, rows)
        changed += len(by)
        if len(by) and first is None:
            i = int(by[0])
            first = (k, rows._key(i), rows.key(i))
    return merged, changed, first


def _moved_jobs(store: Store, jobs: Sequence[JobRecord], mode: str) -> dict[int, set[str]]:
    """Stored jobs partitions holding an incoming app_id whose start moved to
    another day, each with those app_ids; strict mode refuses such a job.

    The per-partition merge cannot see these jobs: the old record lives in
    the partition of its old start day.
    """
    incoming = {j.app_id: floor_day(j.start) for j in jobs}
    moved: dict[int, set[str]] = {}
    if not incoming:
        return moved
    for day, stored in store.job_partitions(incoming):
        for app_id in incoming.keys() & stored.keys():
            if incoming[app_id] != day:
                if mode == "strict":
                    raise IngestError(0, f"job {app_id} conflicts with stored data")
                moved.setdefault(day, set()).add(app_id)
    return moved


def _check_inputs(
    inputs: Sequence[tuple[str | Path, SpilledStats]], partitions: Iterable[tuple[str, int]]
) -> None:
    """Strict mode's check pass over two or more stats files: raise the
    IngestError a merge of the whole files in path order raises, naming the
    first input that changes a row of an earlier one and, in it, the first
    such sample in (window, fs, node) order."""
    conflicts = [c for key in partitions if (c := _merge_inputs(inputs, *key)[2]) is not None]
    if conflicts:
        k, _, key = min(conflicts)
        raise IngestError(0, f"sample {key} conflicts across inputs ({inputs[k][0]})")


def _check_stored(
    store: Store,
    inputs: Sequence[tuple[str | Path, SpilledStats]],
    partitions: Iterable[tuple[str, int]],
    jobs_by_day: Mapping[int, list[JobRecord]],
) -> None:
    """Strict mode's check pass against the store, before anything is
    written: merge each partition that has a stored file with it, samples
    in (fs, day) order and then jobs by day, raising the IngestError the
    write pass would, so a refused ingest leaves the store as it was. It
    takes no lock; the write pass refuses what a writer adds in between."""
    for fs_id, day in partitions:
        if store.path(Partition("samples", fs_id, day)).exists():
            batch, _, _ = _merge_inputs(inputs, fs_id, day)
            with store.open_samples(fs_id, day) as stored:
                _merge_samples(stored, batch, "strict", "with stored data")
    for day, batch in sorted(jobs_by_day.items()):
        if store.path(Partition("jobs", None, day)).exists():
            stored = store.read_range("jobs", None, day, day + DAY)
            _merge(stored, batch, "strict", "with stored data")


def ingest_files(
    store: Store,
    stats_paths: Sequence[str | Path] = (),
    jobs_paths: Sequence[str | Path] = (),
    mode: str = "strict",
) -> IngestSummary:
    """Parse source CSVs and fold them into the store's daily partitions.

    Each stats file is parsed range by range into spill files, one per
    span a large file is parsed in (parse_stats_csv), each an unlinked
    temporary file in the store root (so on the store's disk, and gone with
    the process however it ends), its rows grouped by (filesystem, UTC day)
    partition; a duplicate key never crosses a partition. Memory then holds
    a range of input or one partition, never a whole stats file. Every
    stats file is parsed before any partition lock is taken, so no forked
    parse worker holds one. In strict mode with two or more stats files, a
    check pass merges each partition of the inputs in path order
    (_check_inputs); a strict error in a later file's parse comes after a
    conflict among the files before it, as it did when whole files were
    merged one by one. Jobs are read whole. In strict mode, a second check
    pass merges each partition that has a stored file with it
    (_check_stored), so a conflict with stored data writes nothing either.
    Nothing is written until every input has been read and checked; then
    each partition's inputs are merged again and folded into the store
    under that partition's lock, one partition at a time. No partition is
    held whole, incoming or stored: every merge (_union) holds keys, and
    reads counters from the spills and the stored file a few rows at a
    time, once to compare and, when something changed, once more into the
    file it writes.
    """
    store.root.mkdir(parents=True, exist_ok=True)
    with ExitStack() as spills:

        def spill() -> IO[bytes]:
            return spills.enter_context(tempfile.TemporaryFile(dir=store.root))

        inputs: list[tuple[str | Path, SpilledStats]] = []
        failure = None
        rejected = 0
        for path in stats_paths:
            try:
                spilled, report = parse_stats_csv(path, mode, store.window_len, spill)
            except IngestError as exc:
                failure = exc
                break
            inputs.append((path, spilled))
            rejected += report.rows_rejected
        partitions = sorted({key for _, spilled in inputs for key in spilled.partitions})
        if mode == "strict" and len(inputs) > 1:
            _check_inputs(inputs, partitions)
        if failure is not None:
            raise failure

        jobs: list[JobRecord] = []
        for path in jobs_paths:
            parsed, report = parse_jobs_csv(path, mode)
            jobs, changed = _merge(jobs, parsed, mode, f"across inputs ({path})")
            rejected += report.rows_rejected + changed

        moved = _moved_jobs(store, jobs, mode)
        rejected += len(set().union(*moved.values()))
        jobs_by_day: dict[int, list[JobRecord]] = {}
        for j in jobs:
            jobs_by_day.setdefault(floor_day(j.start), []).append(j)
        if mode == "strict":
            _check_stored(store, inputs, partitions, jobs_by_day)

        # one partition's batch at a time, each merged under that partition's lock
        merges = []
        samples = 0
        for fs_id, day in partitions:
            batch, changed, _ = _merge_inputs(inputs, fs_id, day)
            samples += len(batch)
            rejected += changed
            merges.append(
                store.merge_partition(
                    Partition("samples", fs_id, day),
                    lambda stored: _merge_samples(stored, batch, mode, "with stored data"),
                )
            )
            del batch  # so this partition's rows are freed before the next is read
    for day in sorted(jobs_by_day.keys() | moved.keys()):
        batch, drop = jobs_by_day.get(day, []), moved.get(day, ())
        merges.append(
            store.merge_partition(
                Partition("jobs", None, day),
                lambda stored: _merge(stored, batch, mode, "with stored data", drop),
            )
        )

    return IngestSummary(
        samples=samples,
        jobs=len(jobs),
        rejected=rejected + sum(count for count, _ in merges),
        partitions=len(merges),
        written=sum(written for _, written in merges),
    )


def _check_hourly_conservation(
    app_hours: Sequence[AppHourRecord], fs_hours: Sequence[FsHourRecord]
) -> None:
    """Per hour of one filesystem, the app-hours plus the unattributed
    portion must equal the totals, field by field; an hour with no totals
    has none to share. Records of a second filesystem raise ValueError."""
    f = len(fs_hours)
    records = (*fs_hours, *app_hours)
    fs_ids = sorted({r.fs_id for r in records})
    if len(fs_ids) > 1:
        raise ValueError(f"hourly records of several filesystems: {', '.join(fs_ids)}")
    # keys run in hour order, the order of the fs-hour records
    keys, slot = np.unique(np.array([r.hour for r in records], np.int64), return_inverse=True)
    total, un = (np.zeros((len(keys), _N), np.int64) for _ in range(2))
    total[slot[:f]] = np.array([r.counters for r in fs_hours], np.int64).reshape(-1, _N)
    un[slot[:f]] = np.array([r.unattributed for r in fs_hours], np.int64).reshape(-1, _N)
    counters = np.array([r.counters for r in app_hours], np.int64).reshape(-1, _N)
    attributed = np.zeros((_N, len(keys)), np.int64)
    add_rows(attributed, slot[f:], counters)
    attributed = attributed.T
    bad = np.argwhere(attributed != total - un)
    if len(bad):
        k, i = bad[0].tolist()
        raise LassiError(
            f"conservation violated for {fs_ids[0]} hour {keys[k]} {ALL_FIELDS[i]}: "
            f"{attributed[k, i]} + {un[k, i]} != {total[k, i]}"
        )


def _rollup(
    block: SampleBlock, jobs: Sequence[JobRecord], config: AttributionConfig
) -> tuple[list[AppHourRecord], list[FsHourRecord]]:
    """One partition's samples attributed to jobs and rolled up per hour,
    checked to conserve every counter; its app-hours are the attributed
    hours only (_zero_fill adds the idle ones)."""
    result = attribute(block, jobs, config)
    app_hours = aggregate_hourly(result)
    fs_hours = fs_hourly_totals(block, result)
    _check_hourly_conservation(app_hours, fs_hours)
    return app_hours, fs_hours


def _hour_chunks(window: np.ndarray, day: int) -> list[tuple[int, int]]:
    """The row ranges a day's partition is rolled up in: whole hours, as
    many as hold at most _ROLLUP_ROWS rows together, and at least one."""
    ends = np.searchsorted(window, np.arange(day + HOUR, day + DAY + 1, HOUR)).tolist()
    chunks, lo, prev = [], 0, 0
    for end in ends:
        if end - lo > _ROLLUP_ROWS and prev > lo:
            chunks.append((lo, prev))
            lo = prev
        prev = end
    if prev > lo:
        chunks.append((lo, prev))
    return chunks


def _zero_fill(
    app_hours: Iterable[AppHourRecord], jobs: Sequence[JobRecord], t0: int, t1: int
) -> dict[tuple[str, int], list[AppHourRecord]]:
    """The attributed app_hours of [t0, t1) plus an all-zero record for each
    other hour of each (app, fs) pair's job inside [t0, t1), so risk series
    built from them have no gaps; by (filesystem, day), in (hour, app) order."""
    cells = {(r.fs_id, r.hour, r.app_id): r for r in app_hours}
    jobs_by_id = {j.app_id: j for j in jobs}
    for fs_id, app_id in {(fs_id, app_id) for fs_id, _, app_id in cells}:
        job = jobs_by_id[app_id]
        for hour in hour_range(max(job.start, t0), min(job.end, t1)):
            if (fs_id, hour, app_id) not in cells:
                cells[fs_id, hour, app_id] = AppHourRecord(app_id, fs_id, hour, (0,) * _N)
    out: dict[tuple[str, int], list[AppHourRecord]] = {}
    for (fs_id, hour, _), record in sorted(cells.items()):
        out.setdefault((fs_id, floor_day(hour)), []).append(record)
    return out


def aggregate_range(
    store: Store,
    t0: int,
    t1: int,
    config: AttributionConfig | None = None,
) -> AggregateSummary:
    """Attribute stored samples over [t0, t1) and write hourly partitions.

    The range must be day-aligned because partitions are daily. Samples are
    read one (filesystem, day) partition at a time, days outer: the
    partition is opened and checked whole, its int64 sum bound checked on
    its row count, and its counters then read, attributed against every
    job overlapping the range, totalled and checked in row ranges of whole
    hours (_hour_chunks). So memory holds a partition's keys and one range's
    counters, and what is kept between partitions is their hourly records.
    Overlapping jobs are refused up front, samples or not. Once every
    partition has passed, the idle hours of each job are zero-filled
    (_zero_fill) and every (filesystem, day) in range is written,
    header-only when idle, so the store can tell an idle day from a day
    never aggregated.
    """
    if t0 % DAY or t1 % DAY:
        raise ValueError("aggregate range must be day-aligned")
    if t1 <= t0:
        raise ValueError("aggregate range is empty")
    if config is None:
        config = AttributionConfig()

    fs_ids = store.list_fs("samples")
    days = day_range(t0, t1)
    jobs = store.query_jobs_overlapping(t0, t1)
    node_index(jobs)  # refuses overlapping jobs even where no partition holds samples
    app_hours: list[AppHourRecord] = []
    fs_hours: dict[tuple[str, int], list[FsHourRecord]] = {}
    for day in days:
        for fs_id in fs_ids:
            with store.open_samples(fs_id, day) as stored:
                if not len(stored):
                    continue
                stored.check_sum_bound()
                hours = fs_hours[fs_id, day] = []
                for lo, hi in _hour_chunks(stored.window, day):
                    attributed, totals = _rollup(stored.block(lo, hi), jobs, config)
                    app_hours += attributed
                    hours += totals
    day_apps = _zero_fill(app_hours, jobs, t0, t1)

    for fs_id in fs_ids:
        for day in days:
            store.write_aggregates(
                fs_id, day, day_apps.get((fs_id, day), []), fs_hours.get((fs_id, day), [])
            )

    return AggregateSummary(
        filesystems=tuple(fs_ids),
        app_hour_records=sum(map(len, day_apps.values())),
        fs_hour_records=sum(map(len, fs_hours.values())),
        partitions=2 * len(fs_ids) * len(days),
    )


def build_baselines(
    store: Store,
    t0: int,
    t1: int,
    alpha: float = 2.0,
    fs_ids: Sequence[str] | None = None,
    label_date: int | None = None,
) -> dict[str, FsBaseline]:
    """Compute and store per-filesystem baselines over [t0, t1).

    The stored label defaults to the period's first day, so reports for that
    day onward resolve it. A day never aggregated stores nothing and raises
    FileNotFoundError.
    """
    if fs_ids is None:
        fs_ids = store.list_fs("fs_hours")
    if not fs_ids:
        raise ValueError("no aggregated filesystems; run `lassi aggregate` first")
    label = floor_day(label_date if label_date is not None else t0)
    out = {
        fs_id: compute_baseline(
            store.read_range("fs_hours", fs_id, t0, t1), (t0, t1), alpha, fs_id=fs_id
        )
        for fs_id in fs_ids
    }
    for baseline in out.values():
        store.write_baseline(baseline, label)
    return out


def compute_outputs(store: Store, period: tuple[int, int], alpha: float = 2.0) -> PipelineOutputs:
    """What the store holds for an aggregated, baselined period: per
    filesystem, its hourly records, the baseline effective on its first day
    (with alpha), risk (Store.day_risk, days joined) and ops over its hours,
    and the exposure of each app with app-hours there."""
    t0, t1 = period
    grid = tuple(hour_range(t0, t1))
    fs_ids = store.list_fs("fs_hours")
    apps = {fs: store.read_range("app_hours", fs, t0, t1) for fs in fs_ids}
    totals = {fs: store.read_range("fs_hours", fs, t0, t1) for fs in fs_ids}
    baselines = {fs: store.load_baseline(fs, t0, alpha) for fs in fs_ids}
    # exposures find these day series in the store's memo
    risk = {
        fs: _joined([store.day_risk(fs, day, baselines[fs]) for day in day_range(t0, t1)])
        for fs in fs_ids
    }
    found = [
        record
        for fs in fs_ids
        for records in exposures(store, sorted({r.app_id for r in apps[fs]}), fs, alpha).values()
        for record in records
    ]
    return PipelineOutputs(
        period=period,
        alpha=alpha,
        app_hours=tuple(r for fs in fs_ids for r in apps[fs]),
        fs_hours=tuple(r for fs in fs_ids for r in totals[fs]),
        baselines=baselines,
        risk=risk,
        ops={
            fs: tuple(
                (hour, q.read_kb_ops, q.write_kb_ops)
                for hour, q in zip(grid, ops_series(totals[fs], grid))
            )
            for fs in fs_ids
        },
        exposures=tuple(sorted(found, key=lambda e: (e.app_id, e.fs_id))),
    )


def compute_outputs_from_files(
    stats_path: str | Path,
    jobs_path: str | Path,
    period: tuple[int, int],
    alpha: float = 2.0,
    window_len: int = 180,
    boundary_policy: str = "midpoint",
) -> PipelineOutputs:
    """The store flow over a day-aligned period on a temporary store, gone
    however the call ends: strict ingest, aggregate_range, build_baselines,
    then compute_outputs. A stats row outside the period, which the
    aggregate would drop, raises ValueError naming its partition; so does,
    naming the app, a run with app-hours in the period that crosses one of
    its ends, whose exposure would need risk from outside it."""
    t0, t1 = period
    if t0 % DAY or t1 % DAY or t1 <= t0:
        raise ValueError("period must be day-aligned and non-empty")
    with tempfile.TemporaryDirectory() as root:
        store = Store(root, window_len)
        ingest_files(store, [stats_path], [jobs_path])
        for fs_id in store.list_fs("samples"):
            for day in store.partition_dates("samples", fs_id):
                if not t0 <= day < t1:
                    where = f"{fs_id} on {date_str(day)}"
                    raise ValueError(f"stats rows for {where} lie outside the period")
        aggregate_range(store, t0, t1, AttributionConfig(boundary_policy))
        for job in sorted(store.query_jobs_overlapping(t0, t1), key=lambda j: j.app_id):
            if (job.start < t0 or job.end > t1) and any(
                job.app_id in store.day_apps(fs_id, day)
                for fs_id in store.list_fs("app_hours")
                for day in day_range(max(job.start, t0), min(job.end, t1))
            ):
                raise ValueError(
                    f"app {job.app_id!r} has app-hours in the period {date_str(t0)} to "
                    f"{date_str(t1)} but runs from {format_utc(job.start)} to "
                    f"{format_utc(job.end)}, past its end"
                )
        build_baselines(store, t0, t1, alpha)
        return compute_outputs(store, period, alpha)


def _jobs_by_id(store: Store, app_ids: Sequence[str]) -> dict[str, JobRecord]:
    """Each app_id's job from the stored jobs partitions, read in one pass
    that ends once all are found; the first app_id not stored raises ValueError."""
    wanted = set(app_ids)
    found: dict[str, JobRecord] = {}
    for _, jobs in store.job_partitions(wanted):
        for app_id in jobs.keys() & wanted:
            found.setdefault(app_id, jobs[app_id])
        if len(found) == len(wanted):
            break
    for app_id in app_ids:
        if app_id not in found:
            raise ValueError(f"no job with app_id {app_id!r} in the store")
    return found


def find_job(store: Store, app_id: str) -> JobRecord:
    """Locate one job by app_id among the stored jobs partitions."""
    return _jobs_by_id(store, (app_id,))[app_id]


def _joined(days: Sequence[RiskSeries]) -> RiskSeries:
    """Consecutive day series of one filesystem as one series."""
    if len(days) == 1:
        return days[0]
    return RiskSeries(
        fs_id=days[0].fs_id,
        hours=tuple(h for s in days for h in s.hours),
        oss=tuple(v for s in days for v in s.oss),
        mds=tuple(v for s in days for v in s.mds),
        records=tuple(r for s in days for r in s.records),
    )


def exposures(
    store: Store,
    app_ids: Sequence[str],
    fs_id: str | None = None,
    alpha: float | None = None,
) -> dict[str, list[ExposureRecord]]:
    """Ambient filesystem risk summed over each run's hours, by app_id in
    the order given.

    Each run uses the stored baseline effective on its start date, with
    alpha in place of its own when given. Without an explicit filesystem,
    every filesystem with attributed activity for the app during its run is
    reported; only those load a baseline. Activity is read from
    Store.day_apps and risk from Store.day_risk, one full-day series per day
    a run spans. The batch reads the jobs partitions in one pass, lists each
    filesystem's baselines once, loads each (filesystem, label) baseline
    once and reads each (filesystem, day)'s activity and risk once, so runs
    sharing days share that work. The first app_id not stored raises
    ValueError; then, app by app, a day never aggregated raises
    FileNotFoundError and an app with no activity ValueError.
    """
    jobs = _jobs_by_id(store, app_ids)
    candidates = [fs_id] if fs_id else store.list_fs("app_hours")
    labels: dict[str, list[int]] = {}
    baselines: dict[tuple[str, int], FsBaseline] = {}
    active: dict[tuple[str, int], Mapping[str, tuple[int, ...]]] = {}
    risk: dict[tuple[tuple[str, int], int], RiskSeries] = {}

    def baseline(fs: str, day: int) -> tuple[str, int]:
        """The (fs, label) key in baselines of what load_baseline(fs, day,
        alpha) gives, loaded once per label."""
        dates = labels.get(fs)
        if dates is None:
            dates = labels[fs] = store.partition_dates("baselines", fs)
        key = (fs, baseline_label(fs, day, dates))
        if key not in baselines:
            baselines[key] = store.baseline_at(fs, key[1], alpha)
        return key

    def day_apps(fs: str, day: int) -> Mapping[str, tuple[int, ...]]:
        if (fs, day) not in active:
            active[fs, day] = store.day_apps(fs, day)
        return active[fs, day]

    def day_risk(key: tuple[str, int], day: int) -> RiskSeries:
        if (key, day) not in risk:
            risk[key, day] = store.day_risk(key[0], day, baselines[key])
        return risk[key, day]

    out: dict[str, list[ExposureRecord]] = {}
    for app_id in app_ids:
        job = jobs[app_id]
        t0 = floor_hour(job.start)
        t1 = hour_range(t0, job.end)[-1] + HOUR
        days = day_range(t0, t1)
        records: list[ExposureRecord] = []
        for fs in candidates:
            if fs_id is None and not any(
                t0 <= hour < t1 for day in days for hour in day_apps(fs, day).get(app_id, ())
            ):
                continue
            key = baseline(fs, floor_day(job.start))
            series = _joined([day_risk(key, day) for day in days])
            records.append(run_risk_exposure(job, series))
        if not records:
            raise ValueError(f"app {app_id!r} has no attributed activity; pass an explicit fs")
        out[app_id] = records
    return out


def exposure_for(
    store: Store,
    app_id: str,
    fs_id: str | None = None,
    alpha: float | None = None,
) -> list[ExposureRecord]:
    """Ambient filesystem risk summed over one run's hours: exposures for
    one app_id, with its records, rules and errors."""
    return exposures(store, (app_id,), fs_id, alpha)[app_id]
