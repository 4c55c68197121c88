"""Daily filesystem health reports and dispersion (RSD) tables.

A daily report bundle is a directory of files for one (filesystem, date):

    reports/<fs>/<YYYY-MM-DD>/report.json     full bundle
                              risk_stats.csv  hourly risk_oss / risk_mds
                              oss_risk.csv    fs risk + top-k app contributions
                              mds_risk.csv    same for metadata risk
                              ops_metric.csv  hourly read/write ops quality
                              *.svg           one chart per table

All four series cover exactly 24 hourly buckets; fs risk is the sum of the
per-app clamped risks (report.json's fs_risk_basis, always "sum"). Output is
deterministic: identical inputs produce byte-identical bundles, because
generated_at is only included when the caller supplies one. Numbers serialize
as shortest round-trip decimals; undefined values are empty CSV cells and JSON
nulls, infinite ops values serialize as "inf".

Both refuse a day never aggregated (FileNotFoundError, from the store), and
write their directory with the store's replace_files: each file fsynced, then
renamed, then the directory fsynced once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .analysis import Contributor, top_contributors
from .charts import ChartSeries, ChartSpec, render_timeseries_chart
from .ingest import render_csv
from .metrics import FsBaseline, ops_series, rsd
from .model import ALL_FIELDS, MDS_FIELDS
from .store import Store, replace_files
from .timeutil import DAY, HOUR, date_str, format_utc, hour_range
from .version import __version__

RSD_IGNORED = ("getxattr", "setxattr", "sdr", "cdr")

RSD_OSS_STATS = ("read_mb", "read_ops", "write_mb", "write_ops", "other")
RSD_MDS_STATS = tuple(s for s in MDS_FIELDS if s not in RSD_IGNORED)


def fmt_num(value) -> str:
    """Shortest round-trip decimal; '' for undefined, 'inf' for infinity."""
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        if value.is_integer() and abs(value) < 1e16:
            return str(int(value))
        return repr(value)
    return str(value)


def _json_value(value):
    if value is None:
        return None
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


@dataclass(frozen=True)
class SideBreakdown:
    """Hourly fs risk for one side plus its top-k application split."""

    fs_risk: tuple[float, ...]
    top: tuple[Contributor, ...]
    contributions: dict[str, tuple[float, ...]]
    other: tuple[float, ...]


@dataclass(frozen=True)
class DailyReportBundle:
    fs_id: str
    date: int
    hours: tuple[int, ...]
    oss: SideBreakdown
    mds: SideBreakdown
    read_kb_ops: tuple[float | None, ...]
    write_kb_ops: tuple[float | None, ...]
    alpha: float
    baseline_period: tuple[int, int]
    top_k: int
    generated_at: int | None = None


def _side_breakdown(records, fs_risk: tuple[float, ...], hours, t0, t1, k, side) -> SideBreakdown:
    top = tuple(top_contributors(records, t0, t1, k, side))
    per_app_hour: dict[tuple[str, int], float] = {}
    for rec in records:
        value = rec.risk_oss if side == "oss" else rec.risk_mds
        if value > 0.0:
            per_app_hour[(rec.app_id, rec.hour)] = (
                per_app_hour.get((rec.app_id, rec.hour), 0.0) + value
            )
    contributions = {
        c.app_id: tuple(per_app_hour.get((c.app_id, h), 0.0) for h in hours) for c in top
    }
    stacked = [0.0] * len(hours)
    for values in contributions.values():
        stacked = [s + v for s, v in zip(stacked, values)]
    other = tuple(max(0.0, f - s) for f, s in zip(fs_risk, stacked))
    return SideBreakdown(fs_risk=fs_risk, top=top, contributions=contributions, other=other)


def build_daily_report(
    store: Store,
    fs_id: str,
    date: int,
    baseline: FsBaseline | None = None,
    k: int = 8,
    generated_at: int | None = None,
) -> DailyReportBundle:
    """Assemble the daily bundle for one filesystem from store partitions."""
    if date % DAY != 0:
        raise ValueError("report date must be a UTC midnight")
    if k < 1:
        raise ValueError(f"top-k must be at least 1, got {k}")
    if baseline is None:
        baseline = store.load_baseline(fs_id, date)

    t0, t1 = date, date + DAY
    series = store.day_risk(fs_id, date, baseline)
    fs_hours = store.read_range("fs_hours", fs_id, t0, t1)

    hours = series.hours
    oss_side = _side_breakdown(series.records, series.oss, hours, t0, t1, k, "oss")
    mds_side = _side_breakdown(series.records, series.mds, hours, t0, t1, k, "mds")

    ops = ops_series(fs_hours, hours)

    return DailyReportBundle(
        fs_id=fs_id,
        date=date,
        hours=hours,
        oss=oss_side,
        mds=mds_side,
        read_kb_ops=tuple(q.read_kb_ops for q in ops),
        write_kb_ops=tuple(q.write_kb_ops for q in ops),
        alpha=baseline.alpha,
        baseline_period=baseline.period,
        top_k=k,
        generated_at=generated_at,
    )


def bundle_to_json(bundle: DailyReportBundle) -> str:
    hours_iso = [format_utc(h) for h in bundle.hours]
    metadata = {
        "alpha": bundle.alpha,
        "baseline_period": [format_utc(t) for t in bundle.baseline_period],
        "fs_risk_basis": "sum",
        "generator_version": __version__,
        "top_k": bundle.top_k,
    }
    if bundle.generated_at is not None:
        metadata["generated_at"] = format_utc(bundle.generated_at)

    def side(sb: SideBreakdown) -> dict:
        return {
            "fs_risk": list(sb.fs_risk),
            "top": [
                {"app_id": c.app_id, "risk_sum": c.total, "share": c.share} for c in sb.top
            ],
            "contributions": {app: list(v) for app, v in sb.contributions.items()},
            "other": list(sb.other),
        }

    obj = {
        "fs": bundle.fs_id,
        "date": date_str(bundle.date),
        "metadata": metadata,
        "risk_stats": {
            "hours": hours_iso,
            "risk_oss": list(bundle.oss.fs_risk),
            "risk_mds": list(bundle.mds.fs_risk),
        },
        "oss_risk": side(bundle.oss),
        "mds_risk": side(bundle.mds),
        "ops_metric": {
            "hours": hours_iso,
            "read_kb_ops": [_json_value(v) for v in bundle.read_kb_ops],
            "write_kb_ops": [_json_value(v) for v in bundle.write_kb_ops],
        },
    }
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def bundle_csvs(bundle: DailyReportBundle) -> dict[str, str]:
    hours_iso = [format_utc(h) for h in bundle.hours]
    files = {
        "risk_stats.csv": render_csv(
            ("hour", "risk_oss", "risk_mds"),
            [
                (h, fmt_num(o), fmt_num(m))
                for h, o, m in zip(hours_iso, bundle.oss.fs_risk, bundle.mds.fs_risk)
            ],
        ),
        "ops_metric.csv": render_csv(
            ("hour", "read_kb_ops", "write_kb_ops"),
            [
                (h, fmt_num(r), fmt_num(w))
                for h, r, w in zip(hours_iso, bundle.read_kb_ops, bundle.write_kb_ops)
            ],
        ),
    }
    for name, sb in (("oss_risk.csv", bundle.oss), ("mds_risk.csv", bundle.mds)):
        apps = [c.app_id for c in sb.top]
        header = ["hour", "fs_risk"] + apps + ["other"]
        rows = []
        for i, h in enumerate(hours_iso):
            row = [h, fmt_num(sb.fs_risk[i])]
            row += [fmt_num(sb.contributions[a][i]) for a in apps]
            row.append(fmt_num(sb.other[i]))
            rows.append(row)
        files[name] = render_csv(header, rows)
    return files


def bundle_charts(bundle: DailyReportBundle) -> dict[str, str]:
    labels = tuple(f"{(h % DAY) // HOUR:02d}" for h in bundle.hours)
    title = f"{bundle.fs_id} {date_str(bundle.date)}"
    charts = {
        "risk_stats.svg": render_timeseries_chart(
            ChartSpec(
                title=f"{title} hourly risk",
                x_labels=labels,
                series=(
                    ChartSeries("risk_oss", bundle.oss.fs_risk),
                    ChartSeries("risk_mds", bundle.mds.fs_risk),
                ),
                y_label="risk",
            ),
            "dual_axis",
        ),
        "ops_metric.svg": render_timeseries_chart(
            ChartSpec(
                title=f"{title} ops quality",
                x_labels=labels,
                series=(
                    ChartSeries("read_kb_ops", bundle.read_kb_ops),
                    ChartSeries("write_kb_ops", bundle.write_kb_ops),
                ),
                y_label="KiB ops per MiB moved",
            ),
            "lines",
        ),
    }
    for name, sb, side in (
        ("oss_risk.svg", bundle.oss, "oss"),
        ("mds_risk.svg", bundle.mds, "mds"),
    ):
        series = tuple(
            ChartSeries(c.app_id, sb.contributions[c.app_id]) for c in sb.top
        ) + (ChartSeries("other", sb.other),)
        charts[name] = render_timeseries_chart(
            ChartSpec(
                title=f"{title} {side} risk contributors",
                x_labels=labels,
                series=series,
                y_label=f"risk_{side}",
            ),
            "stacked",
        )
    return charts


def bundle_files(bundle: DailyReportBundle) -> dict[str, str]:
    files = {"report.json": bundle_to_json(bundle)}
    files.update(bundle_csvs(bundle))
    files.update(bundle_charts(bundle))
    return files


def write_bundle(bundle: DailyReportBundle, root: str | Path) -> Path:
    """Write the bundle directory under <root>/reports/, replacing files atomically."""
    out_dir = Path(root) / "reports" / bundle.fs_id / date_str(bundle.date)
    replace_files(out_dir, bundle_files(bundle))
    return out_dir


@dataclass(frozen=True)
class RsdCell:
    mean: float
    cv: float | None


@dataclass(frozen=True)
class RsdRow:
    fs_id: str
    app_hours: float
    cells: dict[str, RsdCell]


@dataclass(frozen=True)
class RsdTable:
    """Per-filesystem dispersion of hourly totals over one period.

    getxattr, setxattr, sdr, and cdr are excluded: they are noise-level
    statistics that never drive load. Volume statistics are reported in MiB.
    """

    period: tuple[int, int]
    oss_stats: tuple[str, ...]
    mds_stats: tuple[str, ...]
    rows: tuple[RsdRow, ...]


def build_rsd_table(store: Store, t0: int, t1: int) -> RsdTable:
    """Mean and relative standard deviation per statistic and filesystem."""
    if t1 <= t0:
        raise ValueError("empty period")
    if t0 % HOUR or t1 % HOUR:
        raise ValueError("period must be hour-aligned")

    hours = list(hour_range(t0, t1))
    n = len(hours)
    jobs = store.query_jobs_overlapping(t0, t1)
    rows = []
    for fs_id in store.list_fs("fs_hours"):
        records = store.read_range("fs_hours", fs_id, t0, t1)
        if not records:
            continue
        by_hour = {r.hour: r for r in records}
        columns: dict[str, list[int]] = {stat: [] for stat in ALL_FIELDS}
        for hour in hours:
            rec = by_hour.get(hour)
            vec = rec.counters if rec is not None else (0,) * len(ALL_FIELDS)
            for stat, v in zip(ALL_FIELDS, vec):
                columns[stat].append(v)

        cells: dict[str, RsdCell] = {}
        for display, source, scale in (
            ("read_mb", "read_kb", 1024),
            ("read_ops", "read_ops", 1),
            ("write_mb", "write_kb", 1024),
            ("write_ops", "write_ops", 1),
            ("other", "other", 1),
        ):
            cells[display] = _rsd_cell(columns[source], n, scale)
        for stat in RSD_MDS_STATS:
            cells[stat] = _rsd_cell(columns[stat], n, 1)

        apps_on_fs = {
            r.app_id for r in store.read_range("app_hours", fs_id, t0, t1)
        }
        app_hours = sum(
            len(j.nodes) * (min(j.end, t1) - max(j.start, t0)) / HOUR
            for j in jobs
            if j.app_id in apps_on_fs
        )
        rows.append(RsdRow(fs_id=fs_id, app_hours=app_hours, cells=cells))

    return RsdTable(
        period=(t0, t1),
        oss_stats=RSD_OSS_STATS,
        mds_stats=RSD_MDS_STATS,
        rows=tuple(rows),
    )


def _rsd_cell(values: list[int], n_hours: int, scale: int) -> RsdCell:
    mean = sum(values) / n_hours / scale
    cv = rsd(values)
    return RsdCell(mean=mean, cv=cv)


def rsd_table_csvs(table: RsdTable) -> dict[str, str]:
    files = {}
    for name, stats in (("rsd_oss.csv", table.oss_stats), ("rsd_mds.csv", table.mds_stats)):
        header = ["fs", "app_hours"]
        for stat in stats:
            header += [f"{stat}_mean", f"{stat}_cv"]
        rows = []
        for row in table.rows:
            out = [row.fs_id, fmt_num(row.app_hours)]
            for stat in stats:
                cell = row.cells[stat]
                out += [fmt_num(cell.mean), fmt_num(cell.cv)]
            rows.append(out)
        files[name] = render_csv(header, rows)
    return files


def rsd_table_json(table: RsdTable) -> str:
    obj = {
        "period": [format_utc(t) for t in table.period],
        "oss_stats": list(table.oss_stats),
        "mds_stats": list(table.mds_stats),
        "rows": [
            {
                "fs": row.fs_id,
                "app_hours": row.app_hours,
                "stats": {
                    stat: {"mean": cell.mean, "cv": cell.cv}
                    for stat, cell in sorted(row.cells.items())
                },
            }
            for row in table.rows
        ],
    }
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_rsd_table(table: RsdTable, root: str | Path) -> Path:
    t0, t1 = table.period
    out_dir = Path(root) / "reports" / "rsd" / f"{date_str(t0)}_{date_str(t1)}"
    files = rsd_table_csvs(table)
    files["rsd.json"] = rsd_table_json(table)
    replace_files(out_dir, files)
    return out_dir
