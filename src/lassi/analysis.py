"""Run-level analysis: command grouping, slowdown detection, risk exposure.

Runs of the same application are recognized by their exact launch command
after whitespace normalization; changing any argument makes a different
group. A run is flagged slow when its runtime reaches a configurable factor
of its group's mean runtime. Exposure totals the filesystem-level hourly risk
over every hour a run's span touches, so concurrent identical runs see
identical exposure regardless of their own I/O.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import SeriesGapError
from .metrics import RiskRecord, RiskSeries, rsd
from .model import JobRecord
from .timeutil import HOUR, floor_hour


@dataclass(frozen=True)
class AppGroup:
    """Runs sharing one normalized launch command."""

    group_key: str
    command: str
    runs: tuple[tuple[str, int], ...]
    mean_runtime: float
    runtime_rsd: float | None


@dataclass(frozen=True)
class SlowdownResult:
    group_key: str
    command: str
    mean_runtime: float | None
    threshold: float | None
    flagged: tuple[tuple[str, int], ...]
    reason: str | None = None


@dataclass(frozen=True)
class ExposureRecord:
    """Summed ambient filesystem risk over the hours of one run."""

    app_id: str
    fs_id: str
    risk_oss_sum: float
    risk_mds_sum: float
    hours: int


@dataclass(frozen=True)
class ScatterPoint:
    """One run in runtime-vs-risk space; MDS carries the negative-axis sign."""

    app_id: str
    runtime_s: int
    risk_oss_sum: float
    risk_mds_axis: float


@dataclass(frozen=True)
class Contributor:
    app_id: str
    total: float
    share: float


def normalize_command(command: str) -> str:
    """Collapse whitespace runs to single spaces and trim the ends."""
    normalized = " ".join(command.split())
    if not normalized:
        raise ValueError("empty command")
    return normalized


def group_key(command: str) -> str:
    """Stable key for one exact launch command, whitespace-insensitive."""
    return hashlib.sha256(normalize_command(command).encode("utf-8")).hexdigest()[:16]


def group_jobs(jobs: Iterable[JobRecord]) -> list[AppGroup]:
    """Partition jobs into groups by normalized command, sorted by command."""
    buckets: dict[str, list[JobRecord]] = {}
    for job in jobs:
        buckets.setdefault(normalize_command(job.command), []).append(job)
    groups = []
    for command in sorted(buckets):
        members = sorted(buckets[command], key=lambda j: (j.start, j.app_id))
        runs = tuple((j.app_id, j.runtime_s) for j in members)
        runtimes = [r for _, r in runs]
        groups.append(
            AppGroup(
                group_key=group_key(command),
                command=command,
                runs=runs,
                mean_runtime=sum(runtimes) / len(runtimes),
                runtime_rsd=rsd(runtimes),
            )
        )
    return groups


def detect_slowdown(
    group: AppGroup, factor: float = 1.5, exclude_self: bool = False
) -> SlowdownResult:
    """Flag runs whose runtime reaches factor times the group mean.

    The mean includes the candidate run by default; exclude_self compares
    each run against the mean of the others instead. Groups with fewer than
    two runs cannot be judged and come back empty with a reason.
    """
    if factor <= 0:
        raise ValueError(f"factor must be positive, got {factor}")
    if len(group.runs) < 2:
        return SlowdownResult(
            group_key=group.group_key,
            command=group.command,
            mean_runtime=None,
            threshold=None,
            flagged=(),
            reason=f"insufficient data: {len(group.runs)} run(s), need at least 2",
        )

    if exclude_self:
        total = sum(r for _, r in group.runs)
        n = len(group.runs)
        flagged = tuple(
            (app, r)
            for app, r in group.runs
            if r >= factor * ((total - r) / (n - 1))
        )
        return SlowdownResult(
            group_key=group.group_key,
            command=group.command,
            mean_runtime=group.mean_runtime,
            threshold=None,
            flagged=flagged,
        )

    threshold = factor * group.mean_runtime
    flagged = tuple((app, r) for app, r in group.runs if r >= threshold)
    return SlowdownResult(
        group_key=group.group_key,
        command=group.command,
        mean_runtime=group.mean_runtime,
        threshold=threshold,
        flagged=flagged,
    )


def run_risk_exposure(job: JobRecord, series: RiskSeries) -> ExposureRecord:
    """Sum hourly filesystem risk over every hour [start, end) touches.

    Partial hours count fully. The series must cover every touched hour;
    gaps raise SeriesGapError naming the missing hours.
    """
    mapping = series.as_mapping()
    needed = range(floor_hour(job.start), job.end, HOUR)
    missing = tuple(h for h in needed if h not in mapping)
    if missing:
        raise SeriesGapError(missing)

    oss_sum = 0.0
    mds_sum = 0.0
    for hour in needed:
        o, m = mapping[hour]
        oss_sum += o
        mds_sum += m
    return ExposureRecord(
        app_id=job.app_id,
        fs_id=series.fs_id,
        risk_oss_sum=oss_sum,
        risk_mds_sum=mds_sum,
        hours=len(needed),
    )


def runtime_vs_risk(
    group: AppGroup, exposures: Mapping[str, ExposureRecord]
) -> tuple[ScatterPoint, ...]:
    """Scatter points for a group's runs, ordered by app_id.

    MDS sums are negated so the two risk families plot on opposite sides of
    the runtime axis.
    """
    points = []
    for app_id, runtime in sorted(group.runs):
        exposure = exposures.get(app_id)
        if exposure is None:
            raise ValueError(f"no exposure record for app {app_id!r}")
        points.append(
            ScatterPoint(
                app_id=app_id,
                runtime_s=runtime,
                risk_oss_sum=exposure.risk_oss_sum,
                risk_mds_axis=-exposure.risk_mds_sum,
            )
        )
    return tuple(points)


def top_contributors(
    records: Iterable[RiskRecord], t0: int, t1: int, k: int, side: str
) -> list[Contributor]:
    """Apps ranked by summed clamped risk on one side over [t0, t1).

    Only apps with positive risk appear; shares are fractions of the
    filesystem total over the range, so they sum to at most 1. Ties rank by
    app_id.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if t1 <= t0:
        raise ValueError("empty hour range")
    if side not in ("oss", "mds"):
        raise ValueError(f"side must be 'oss' or 'mds', got {side!r}")

    sums: dict[str, float] = {}
    for rec in records:
        if not t0 <= rec.hour < t1:
            continue
        value = rec.risk_oss if side == "oss" else rec.risk_mds
        if value > 0.0:
            sums[rec.app_id] = sums.get(rec.app_id, 0.0) + value

    fs_total = sum(sums.values())
    if fs_total <= 0.0:
        return []
    ranked = sorted(sums.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    return [Contributor(app_id=a, total=v, share=v / fs_total) for a, v in ranked]
