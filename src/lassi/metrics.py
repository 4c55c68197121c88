"""Risk, ops-quality, and dispersion metrics over hourly aggregates.

The per-statistic risk measures how far a value sits above a scaled
historical average: ``(x - alpha * avg) / (alpha * avg)``. Values at or below
the scaled average mean headroom, not risk, so non-positive contributions are
ignored wherever per-statistic risks are summed. risk_oss sums the five
data-movement statistics, risk_mds all sixteen metadata statistics. A
filesystem's hourly risk is the sum of its applications' clamped risks.

Ops quality relates operation counts to volume moved: ``ops * 1024 / kb`` is
1.0 when every operation moves the optimal 1 MiB and grows as transfers get
smaller and less efficient.

Baselines are arithmetic means of filesystem-total hourly values over a
period, counting hours with no record as zero. Means are exact integer sums
divided by the hour count so independently-written evaluators can reproduce
them bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .model import (
    ALL_FIELDS,
    MDS_FIELDS,
    OSS_FIELDS,
    AppHourRecord,
    FsHourRecord,
)
from .timeutil import HOUR, format_utc

OSS_STATS = OSS_FIELDS
MDS_STATS = MDS_FIELDS
_N_OSS = len(OSS_STATS)
_READ_KB, _READ_OPS, _WRITE_KB, _WRITE_OPS = (
    ALL_FIELDS.index(f) for f in ("read_kb", "read_ops", "write_kb", "write_ops")
)


@dataclass(frozen=True)
class FsBaseline:
    """Per-statistic hourly means for one filesystem over one period."""

    fs_id: str
    period: tuple[int, int]
    alpha: float
    means: Mapping[str, float]

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        t0, t1 = self.period
        if t1 <= t0:
            raise ValueError("baseline period is empty")
        if set(self.means) != set(ALL_FIELDS):
            missing = set(ALL_FIELDS) - set(self.means)
            extra = set(self.means) - set(ALL_FIELDS)
            raise ValueError(f"baseline means mismatch: missing {missing}, extra {extra}")
        if any(v < 0 for v in self.means.values()):
            raise ValueError("baseline means must be non-negative")


@dataclass(frozen=True)
class RiskBreakdown:
    """One counter set's summed risk plus its positive per-stat terms.

    Statistics whose baseline mean is zero while the value is positive have
    no defined risk; they are excluded from the sum and listed in undefined.
    """

    value: float
    contributions: dict[str, float]
    undefined: tuple[str, ...]


@dataclass(frozen=True)
class RiskRecord:
    """Clamped hourly risk of one application on one filesystem."""

    app_id: str
    fs_id: str
    hour: int
    risk_oss: float
    risk_mds: float
    undefined: tuple[str, ...] = ()


@dataclass(frozen=True)
class OpsRecord:
    """Hourly ops-quality values; None marks hours with nothing to measure."""

    read_kb_ops: float | None
    write_kb_ops: float | None


@dataclass(frozen=True)
class RiskSeries:
    """Hourly filesystem risk plus the per-app records behind it."""

    fs_id: str
    hours: tuple[int, ...]
    oss: tuple[float, ...]
    mds: tuple[float, ...]
    records: tuple[RiskRecord, ...] = field(repr=False)

    def as_mapping(self) -> dict[int, tuple[float, float]]:
        return {h: (o, m) for h, o, m in zip(self.hours, self.oss, self.mds)}


def rsd(values: Sequence[float]) -> float | None:
    """Relative standard deviation (population sigma over mean).

    Scale-free: rsd(c * v) == rsd(v) for c > 0. Undefined (None) when the
    mean is zero; empty input is an error.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("rsd of empty sequence")
    mean = float(arr.mean())
    if mean == 0.0:
        return None
    return float(arr.std()) / mean


def compute_baseline(
    fs_hours: Iterable[FsHourRecord],
    period: tuple[int, int],
    alpha: float = 2.0,
    *,
    fs_id: str,
) -> FsBaseline:
    """Mean hourly totals of fs_id over [t0, t1), zero-filling quiet hours."""
    t0, t1 = period
    if t1 <= t0:
        raise ValueError(f"empty baseline period {format_utc(t0)}..{format_utc(t1)}")
    if t0 % HOUR or t1 % HOUR:
        raise ValueError("baseline period must be hour-aligned")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")

    sums = [0] * len(ALL_FIELDS)
    matched = 0
    for record in fs_hours:
        if record.fs_id != fs_id or not t0 <= record.hour < t1:
            continue
        matched += 1
        for i, v in enumerate(record.counters):
            sums[i] += v
    if matched == 0:
        raise ValueError("no fs-hour records inside the baseline period")

    n_hours = (t1 - t0) // HOUR
    means = {stat: sums[i] / n_hours for i, stat in enumerate(ALL_FIELDS)}
    return FsBaseline(fs_id=fs_id, period=period, alpha=alpha, means=means)


def risk_stat(x: float, mean: float, alpha: float = 2.0) -> float | None:
    """Excess of x over alpha*mean, relative to alpha*mean.

    May be negative (headroom). Zero mean with zero value is zero risk; zero
    mean with a positive value has no defined risk and returns None.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if mean < 0:
        raise ValueError(f"mean must be non-negative, got {mean}")
    if mean == 0:
        return 0.0 if x == 0 else None
    scaled = alpha * mean
    return (x - scaled) / scaled


def _breakdown(values: Sequence[int], stats: tuple[str, ...], baseline: FsBaseline) -> RiskBreakdown:
    contributions: dict[str, float] = {}
    undefined: list[str] = []
    means = baseline.means
    alpha = baseline.alpha
    total = 0.0
    for stat, x in zip(stats, values):
        r = risk_stat(x, means[stat], alpha)
        if r is None:
            undefined.append(stat)
        elif r > 0.0:
            contributions[stat] = r
            total += r
    return RiskBreakdown(value=total, contributions=contributions, undefined=tuple(undefined))


def risk_oss(counters: Sequence[int], baseline: FsBaseline) -> RiskBreakdown:
    """Summed positive risk over the five data-movement statistics of a
    21-counter vector in ALL_FIELDS order."""
    return _breakdown(counters[:_N_OSS], OSS_STATS, baseline)


def risk_mds(counters: Sequence[int], baseline: FsBaseline) -> RiskBreakdown:
    """Summed positive risk over all sixteen metadata statistics of a
    21-counter vector in ALL_FIELDS order."""
    return _breakdown(counters[_N_OSS:], MDS_STATS, baseline)


def ops_quality(counters: Sequence[int]) -> OpsRecord:
    """KiB-per-op quality of reads and writes of a 21-counter vector;
    1.0 means 1 MiB per op.

    With no volume and no operations the metric is undefined (None);
    operations that moved no data at all give +inf.
    """

    def side(kb: int, ops: int) -> float | None:
        if kb > 0:
            return ops * 1024 / kb
        return None if ops == 0 else math.inf

    return OpsRecord(
        read_kb_ops=side(counters[_READ_KB], counters[_READ_OPS]),
        write_kb_ops=side(counters[_WRITE_KB], counters[_WRITE_OPS]),
    )


def ops_series(
    fs_hours: Iterable[FsHourRecord], hours: Sequence[int]
) -> tuple[OpsRecord, ...]:
    """Ops quality of one filesystem's hourly totals at each hour of the grid.

    Hours with no record have nothing to measure: both values are None.
    """
    by_hour = {rec.hour: rec.counters for rec in fs_hours}
    empty = OpsRecord(read_kb_ops=None, write_kb_ops=None)
    return tuple(ops_quality(by_hour[h]) if h in by_hour else empty for h in hours)


def fs_risk_series(
    app_hours: Iterable[AppHourRecord],
    baseline: FsBaseline,
    hours: Sequence[int],
) -> RiskSeries:
    """Per-app hourly risks against the filesystem baseline, summed per hour.

    The filesystem-level hourly figure is the sum of the per-app clamped
    risks; hours on the grid with no app activity score zero.
    """
    records: list[RiskRecord] = []
    oss_by_hour: dict[int, float] = {}
    mds_by_hour: dict[int, float] = {}
    for rec in sorted(app_hours, key=lambda r: (r.hour, r.app_id)):
        if rec.fs_id != baseline.fs_id:
            raise ValueError(
                f"record for {rec.fs_id} evaluated against baseline for {baseline.fs_id}"
            )
        bo = risk_oss(rec.counters, baseline)
        bm = risk_mds(rec.counters, baseline)
        records.append(
            RiskRecord(
                app_id=rec.app_id,
                fs_id=rec.fs_id,
                hour=rec.hour,
                risk_oss=bo.value,
                risk_mds=bm.value,
                undefined=bo.undefined + bm.undefined,
            )
        )
        oss_by_hour[rec.hour] = oss_by_hour.get(rec.hour, 0.0) + bo.value
        mds_by_hour[rec.hour] = mds_by_hour.get(rec.hour, 0.0) + bm.value

    grid = tuple(hours)
    return RiskSeries(
        fs_id=baseline.fs_id,
        hours=grid,
        oss=tuple(oss_by_hour.get(h, 0.0) for h in grid),
        mds=tuple(mds_by_hour.get(h, 0.0) for h in grid),
        records=tuple(records),
    )

