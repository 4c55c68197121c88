"""End-to-end flows: files into the store, store into aggregates and results.

Thin orchestration over the ingest, attribution, metric, and analysis modules;
all policy lives there, and locking, durable writes and the refusal of days
never aggregated live in the store. The store-facing flows partition by
(filesystem, day) and are idempotent: re-ingesting the same file changes
nothing and writes no partition, re-aggregating a range rewrites the same
partitions.

Aggregation holds one UTC day of samples at a time, so its memory grows with
a day of data, not with the range; what it keeps between days is the output
(hourly records) and each day's attribution result. Ingest still gathers
whole input files before it splits them by partition.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .analysis import ExposureRecord, run_risk_exposure
from .attribution import (
    AttributionConfig,
    AttributionResult,
    aggregate_hourly,
    attribute,
    fs_hourly_totals,
)
from .errors import IngestError, LassiError
from .ingest import parse_jobs_csv, parse_stats_csv
from .metrics import FsBaseline, RiskSeries, compute_baseline, fs_risk_series, ops_series
from .model import (
    ALL_FIELDS,
    AppHourRecord,
    FsHourRecord,
    JobRecord,
    SampleBlock,
    canonical_order,
    id_codes,
    merged_labels,
)
from .store import Partition, Store
from .timeutil import DAY, HOUR, day_range, floor_day, floor_hour, hour_range

_N = len(ALL_FIELDS)


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


def _merge_samples(
    old: SampleBlock, new: SampleBlock, mode: str, where: str
) -> tuple[SampleBlock, int]:
    """Key-wise union in canonical order, new rows winning; also the number
    of rows whose counters a new row changed.

    Strict mode refuses a changed row instead. When no new row adds a key or
    changes a counter, the union is old itself.
    """
    if not len(old):
        return new, 0
    fs_labels, fs = merged_labels((old, new), "fs")
    node_labels, node = merged_labels((old, new), "node")
    window, counters = (
        np.concatenate([getattr(old, name), getattr(new, name)]) for name in ("window", "counters")
    )
    source = np.repeat(np.array([0, 1], np.int8), [len(old), len(new)])
    order, repeat = canonical_order(fs, node, window, source)
    # a repeated key is an old row directly followed by its replacement
    replaced = order[repeat]
    replacing = order[np.flatnonzero(repeat) + 1]
    changed = replacing[(counters[replaced] != counters[replacing]).any(axis=1)] - len(old)
    if len(changed) and mode == "strict":
        raise IngestError(0, f"sample {new.key(int(changed[0]))} conflicts {where}")
    if not len(changed) and len(replaced) == len(new):
        return old, 0
    keep = order[~repeat]
    merged = SampleBlock(
        fs_labels, fs[keep], node_labels, node[keep], window[keep], counters[keep], new.window_len
    )
    return merged, len(changed)


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


def ingest_files(
    store: Store,
    stats_paths: Sequence[str | Path] = (),
    jobs_paths: Sequence[str | Path] = (),
    mode: str = "strict",
) -> IngestSummary:
    """Parse source CSVs and fold them into the store's daily partitions."""
    rejected = 0
    samples = SampleBlock.empty(store.window_len)
    for path in stats_paths:
        parsed, report = parse_stats_csv(path, mode, store.window_len)
        samples, changed = _merge_samples(samples, parsed, mode, f"across inputs ({path})")
        rejected += report.rows_rejected + changed

    jobs: list[JobRecord] = []
    for path in jobs_paths:
        parsed, report = parse_jobs_csv(path, mode)
        jobs, changed = _merge(jobs, parsed, mode, f"across inputs ({path})")
        rejected += report.rows_rejected + changed

    moved = _moved_jobs(store, jobs, mode)
    rejected += len(set().union(*moved.values()))

    # one partition's batch at a time, each merged under that partition's lock
    merges = []
    fs_ids, fs_codes = samples.fs_labels, samples.fs
    days = samples.window - samples.window % DAY
    for code, day in sorted(set(zip(fs_codes.tolist(), days.tolist()))):
        batch = samples.take((fs_codes == code) & (days == day))
        merges.append(
            store.merge_partition(
                Partition("samples", fs_ids[code], day),
                lambda stored: _merge_samples(stored, batch, mode, "with stored data"),
            )
        )
    jobs_by_day: dict[int, list[JobRecord]] = {}
    for j in jobs:
        jobs_by_day.setdefault(floor_day(j.start), []).append(j)
    for day in sorted(jobs_by_day.keys() | moved.keys()):
        batch, drop = jobs_by_day.get(day, []), moved.get(day, ())
        merges.append(
            store.merge_partition(
                Partition("jobs", None, day),
                lambda stored: _merge(stored, batch, mode, "with stored data", drop),
            )
        )

    return IngestSummary(
        samples=len(samples),
        jobs=len(jobs),
        rejected=rejected + sum(count for count, _ in merges),
        partitions=len(merges),
        written=sum(written for _, written in merges),
    )


def _check_hourly_conservation(
    app_hours: Sequence[AppHourRecord], fs_hours: Sequence[FsHourRecord]
) -> None:
    """Per (fs, hour), the app-hours plus the unattributed portion must equal
    the totals, field by field; an hour with no totals has none to share."""
    f = len(fs_hours)
    records = (*fs_hours, *app_hours)
    fs_ids, fs_codes = id_codes(r.fs_id for r in records)
    hours, hour_pos = np.unique(np.array([r.hour for r in records], np.int64), return_inverse=True)
    # keys run in (hour, fs) order, the order of the fs-hour records
    keys, slot = np.unique(hour_pos * len(fs_ids) + fs_codes, return_inverse=True)
    total, un, attributed = (np.zeros((len(keys), _N), np.int64) for _ in range(3))
    total[slot[:f]] = np.array([r.counters for r in fs_hours], np.int64).reshape(-1, _N)
    un[slot[:f]] = np.array([r.unattributed for r in fs_hours], np.int64).reshape(-1, _N)
    counters = np.array([r.counters for r in app_hours], np.int64).reshape(-1, _N)
    np.add.at(attributed, slot[f:], counters)
    bad = np.argwhere(attributed != total - un)
    if len(bad):
        k, i = bad[0].tolist()
        raise LassiError(
            f"conservation violated for {fs_ids[keys[k] % len(fs_ids)]} "
            f"hour {hours[keys[k] // len(fs_ids)]} {ALL_FIELDS[i]}: "
            f"{attributed[k, i]} + {un[k, i]} != {total[k, i]}"
        )


def _rollup(
    blocks: Iterable[SampleBlock],
    jobs: Sequence[JobRecord],
    config: AttributionConfig,
    span: tuple[int, int],
) -> tuple[list[AppHourRecord], list[FsHourRecord]]:
    """Attribute samples to jobs, roll them up per hour, and check that the
    hourly rollups conserve every counter.

    blocks holds at least one block, and no hour has samples in two of them;
    each is attributed and totalled, then dropped before the next is drawn.
    Only its attribution result is kept, for the one aggregate_hourly call
    that zero-fills each (app, fs) pair over all of span.
    """
    results: list[AttributionResult] = []
    fs_hours: list[FsHourRecord] = []
    for block in blocks:
        result = attribute(block, jobs, config)
        fs_hours += fs_hourly_totals(block, result)
        results.append(result)
        del block, result  # so this day's block is freed before the next is read
    app_hours = aggregate_hourly(AttributionResult.concat(results), jobs, span=span)
    _check_hourly_conservation(app_hours, fs_hours)
    return app_hours, fs_hours


def _by_partition(records: Iterable) -> dict[tuple[str, int], list]:
    """Hourly records grouped by (filesystem, day), each group in their order."""
    out: dict[tuple[str, int], list] = {}
    for r in records:
        out.setdefault((r.fs_id, floor_day(r.hour)), []).append(r)
    return out


def aggregate_range(
    store: Store,
    t0: int,
    t1: int,
    config: AttributionConfig | None = None,
) -> AggregateSummary:
    """Attribute stored samples over [t0, t1) and write hourly partitions.

    The range must be day-aligned because partitions are daily. Samples are
    read, attributed against every job overlapping the range and totalled
    one UTC day at a time, so memory holds one day's samples, not the
    range's. Nothing is written until every day has passed; then every
    (filesystem, day) in range is written, header-only when idle, so the
    store can tell an idle day from a day never aggregated.
    """
    if t0 % DAY or t1 % DAY:
        raise ValueError("aggregate range must be day-aligned")
    if t1 <= t0:
        raise ValueError("aggregate range is empty")
    if config is None:
        config = AttributionConfig(window_len=store.window_len)

    fs_ids = store.list_fs("samples")
    days = day_range(t0, t1)
    blocks = (
        SampleBlock.concat(
            (store.read_range("samples", fs_id, day, day + DAY) for fs_id in fs_ids),
            store.window_len,
        )
        for day in days
    )
    jobs = store.query_jobs_overlapping(t0, t1)

    app_hours, fs_hours = _rollup(blocks, jobs, config, (t0, t1))

    day_apps, day_fs = _by_partition(app_hours), _by_partition(fs_hours)
    seen_fs = sorted(set(fs_ids) | {r.fs_id for r in app_hours})
    for fs_id in seen_fs:
        for day in days:
            store.write_aggregates(
                fs_id, day, day_apps.get((fs_id, day), []), day_fs.get((fs_id, day), [])
            )

    return AggregateSummary(
        filesystems=tuple(seen_fs),
        app_hour_records=len(app_hours),
        fs_hour_records=len(fs_hours),
        partitions=2 * len(seen_fs) * len(days),
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


def compute_outputs(
    samples: SampleBlock,
    jobs: Sequence[JobRecord],
    period: tuple[int, int],
    alpha: float = 2.0,
    config: AttributionConfig | None = None,
) -> PipelineOutputs:
    """Run the full in-memory pipeline over one period.

    Exposures are computed for every (job, filesystem) pair with attributed
    activity; jobs must lie inside the period or the risk series cannot
    cover them.
    """
    t0, t1 = period
    if t0 % HOUR or t1 % HOUR or t1 <= t0:
        raise ValueError("period must be hour-aligned and non-empty")
    if config is None:
        config = AttributionConfig()

    app_hours, fs_hours = _rollup((samples,), jobs, config, period)
    grid = tuple(hour_range(t0, t1))

    fs_ids = sorted({r.fs_id for r in fs_hours})
    baselines: dict[str, FsBaseline] = {}
    risk: dict[str, RiskSeries] = {}
    ops: dict[str, tuple] = {}
    for fs_id in fs_ids:
        fs_records = [r for r in fs_hours if r.fs_id == fs_id]
        baseline = compute_baseline(fs_records, period, alpha, fs_id=fs_id)
        baselines[fs_id] = baseline
        app_records = [r for r in app_hours if r.fs_id == fs_id]
        risk[fs_id] = fs_risk_series(app_records, baseline, hours=grid)
        ops[fs_id] = tuple(
            (hour, q.read_kb_ops, q.write_kb_ops)
            for hour, q in zip(grid, ops_series(fs_records, grid))
        )

    pairs = {(r.app_id, r.fs_id) for r in app_hours}
    exposures = []
    for job in sorted(jobs, key=lambda j: j.app_id):
        for fs_id in fs_ids:
            if (job.app_id, fs_id) in pairs:
                exposures.append(run_risk_exposure(job, risk[fs_id]))

    return PipelineOutputs(
        period=period,
        alpha=alpha,
        app_hours=tuple(app_hours),
        fs_hours=tuple(fs_hours),
        baselines=baselines,
        risk=risk,
        ops=ops,
        exposures=tuple(exposures),
    )


def compute_outputs_from_files(
    stats_path: str | Path,
    jobs_path: str | Path,
    period: tuple[int, int],
    alpha: float = 2.0,
    window_len: int = 180,
    boundary_policy: str = "midpoint",
) -> PipelineOutputs:
    """Parse source CSVs strictly, then run the in-memory pipeline."""
    samples, _ = parse_stats_csv(stats_path, "strict", window_len)
    jobs, _ = parse_jobs_csv(jobs_path, "strict")
    config = AttributionConfig(boundary_policy=boundary_policy, window_len=window_len)
    return compute_outputs(samples, jobs, period, alpha, config)


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
        at = bisect_right(dates, day)
        key = (fs, dates[at - 1] if at else day)
        if key not in baselines:
            # with no label on or before day, load_baseline raises its error
            baselines[key] = (
                store.baseline_at(fs, key[1], alpha) if at else store.load_baseline(fs, day, alpha)
            )
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
