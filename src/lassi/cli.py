"""Command-line interface.

Subcommands cover the full daily flow: ingest source CSVs, aggregate a date
range, build baselines, emit report bundles and dispersion tables, and query
slowdown, exposure, and scatter views. synth and verify generate synthetic
scenarios and check pipeline results against the bundled reference results.

The five settings (store, window_len, alpha, boundary_policy, top_k) resolve
in precedence order: command-line flags, then LASSI_* environment variables,
then an INI config file ([lassi] section, path from --config or LASSI_CONFIG;
any other key is an error), then built-in defaults. The alpha setting is what
`baseline` stores; --alpha on report, exposure or scatter re-scores it.

Exit codes: 0 success, 1 I/O or store failure (a day never aggregated too),
2 invalid data or arguments discovered while running, 3 attribution
conflict, 64 command-line usage error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import oracle as oracle_mod
from . import synth as synth_mod
from .analysis import detect_slowdown, group_jobs, runtime_vs_risk
from .attribution import BOUNDARY_POLICIES, AttributionConfig
from .errors import (
    AttributionConflictError,
    LassiError,
    StoreError,
    StoreLockError,
)
from .pipeline import (
    aggregate_range,
    build_baselines,
    compute_outputs_from_files,
    exposure_for,
    exposures,
    ingest_files,
)
from .report import (
    build_daily_report,
    build_rsd_table,
    bundle_files,
    fmt_num,
    write_bundle,
    write_rsd_table,
)
from .store import Store
from .timeutil import DAY, date_str, format_utc, parse_date, parse_utc
from .version import __version__

_DEFAULTS = {
    "store": "lassi-data",
    "window_len": "180",
    "alpha": "2.0",
    "boundary_policy": "midpoint",
    "top_k": "8",
}


@dataclass(frozen=True)
class Settings:
    store: str
    window_len: int
    alpha: float
    boundary_policy: str
    top_k: int


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _date(value: str) -> int:
    return parse_date(value)


def _time(value: str) -> int:
    try:
        return parse_utc(value)
    except ValueError:
        return parse_date(value)


def resolve_settings(args: argparse.Namespace) -> Settings:
    values = dict(_DEFAULTS)

    config_path = getattr(args, "config", None) or os.environ.get("LASSI_CONFIG")
    if config_path:
        cp = configparser.ConfigParser(interpolation=None)
        try:
            with open(config_path, encoding="utf-8") as fh:
                cp.read_file(fh)
        except configparser.Error as exc:
            raise ValueError(f"config file {config_path}: {exc}") from exc
        if cp.has_section("lassi"):
            for key, value in cp.items("lassi"):
                if key not in _DEFAULTS:
                    raise ValueError(f"config file {config_path}: unknown key {key!r}")
                values[key] = value

    for key in _DEFAULTS:
        env = os.environ.get("LASSI_" + key.upper())
        if env is not None:
            values[key] = env

    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = str(flag)

    try:
        settings = Settings(
            store=values["store"],
            window_len=int(values["window_len"]),
            alpha=float(values["alpha"]),
            boundary_policy=values["boundary_policy"],
            top_k=int(values["top_k"]),
        )
    except ValueError as exc:
        raise ValueError(f"bad setting value: {exc}") from None
    if settings.boundary_policy not in BOUNDARY_POLICIES:
        raise ValueError(f"boundary_policy must be one of {BOUNDARY_POLICIES}")
    if settings.alpha <= 0:
        raise ValueError("alpha must be positive")
    if settings.top_k < 1:
        raise ValueError("top_k must be at least 1")
    return settings


def _store(settings: Settings) -> Store:
    return Store(settings.store, window_len=settings.window_len)


def _range(args: argparse.Namespace) -> tuple[int, int]:
    if getattr(args, "date", None) is not None:
        if args.t0 is not None or args.t1 is not None:
            raise ValueError("--date and --from/--to are mutually exclusive")
        return args.date, args.date + DAY
    if args.t0 is None or args.t1 is None:
        raise ValueError("need --from and --to (or --date)")
    if args.t1 <= args.t0:
        raise ValueError("--to must be after --from")
    return args.t0, args.t1


def cmd_ingest(args, settings: Settings) -> int:
    if not args.stats and not args.jobs:
        raise ValueError("nothing to ingest; pass --stats and/or --jobs")
    summary = ingest_files(_store(settings), args.stats or (), args.jobs or (), args.mode)
    print(
        f"ingested samples={summary.samples} jobs={summary.jobs} "
        f"rejected={summary.rejected} partitions={summary.partitions} "
        f"written={summary.written}"
    )
    return 0


def cmd_aggregate(args, settings: Settings) -> int:
    t0, t1 = _range(args)
    config = AttributionConfig(
        boundary_policy=settings.boundary_policy, window_len=settings.window_len
    )
    summary = aggregate_range(_store(settings), t0, t1, config)
    print(
        f"aggregated fs={','.join(summary.filesystems) or '-'} "
        f"app_hours={summary.app_hour_records} fs_hours={summary.fs_hour_records} "
        f"partitions={summary.partitions}"
    )
    return 0


def cmd_baseline(args, settings: Settings) -> int:
    t0, t1 = _range(args)
    baselines = build_baselines(
        _store(settings),
        t0,
        t1,
        alpha=settings.alpha,
        fs_ids=args.fs or None,
        label_date=args.label,
    )
    label = args.label if args.label is not None else t0
    for fs_id, baseline in sorted(baselines.items()):
        print(
            f"baseline fs={fs_id} period={format_utc(t0)}..{format_utc(t1)} "
            f"alpha={fmt_num(baseline.alpha)} label={date_str(label)}"
        )
    return 0


def cmd_report(args, settings: Settings) -> int:
    store = _store(settings)
    generated_at = parse_utc(args.generated_at) if args.generated_at else None
    bundle = build_daily_report(
        store,
        args.fs,
        args.date,
        baseline=store.load_baseline(args.fs, args.date, args.alpha),
        k=settings.top_k,
        generated_at=generated_at,
    )
    path = write_bundle(bundle, store.root)
    print(f"wrote {path} files={len(bundle_files(bundle))}")
    return 0


def cmd_rsd(args, settings: Settings) -> int:
    store = _store(settings)
    t0, t1 = _range(args)
    table = build_rsd_table(store, t0, t1)
    path = write_rsd_table(table, store.root)
    print(f"wrote {path} filesystems={len(table.rows)}")
    return 0


def _all_jobs_range(store: Store) -> tuple[int, int]:
    dates = store.partition_dates("jobs", None)
    if not dates:
        raise ValueError("no jobs stored")
    return dates[0], dates[-1] + DAY


def cmd_slowdown(args, settings: Settings) -> int:
    store = _store(settings)
    if args.t0 is None and args.t1 is None:
        t0, t1 = _all_jobs_range(store)
    else:
        t0, t1 = _range(args)
    jobs = store.query_jobs_overlapping(t0, t1)
    if not jobs:
        raise ValueError("no jobs in range")
    flagged_total = 0
    groups = group_jobs(jobs)
    for group in groups:
        result = detect_slowdown(group, factor=args.factor)
        for app_id, runtime in result.flagged:  # empty for a group too small to judge
            flagged_total += 1
            print(
                f"flagged app={app_id} runtime={runtime}s "
                f"mean={fmt_num(round(result.mean_runtime, 3))}s "
                f"threshold={fmt_num(round(result.threshold, 3))}s command={result.command!r}"
            )
    print(f"groups={len(groups)} flagged_runs={flagged_total}")
    return 0


def cmd_exposure(args, settings: Settings) -> int:
    records = exposure_for(_store(settings), args.app, args.fs, alpha=args.alpha)
    for rec in records:
        print(
            f"app={rec.app_id} fs={rec.fs_id} hours={rec.hours} "
            f"risk_oss={fmt_num(rec.risk_oss_sum)} risk_mds={fmt_num(rec.risk_mds_sum)}"
        )
    return 0


def cmd_scatter(args, settings: Settings) -> int:
    store = _store(settings)
    t0, t1 = _all_jobs_range(store)
    groups = group_jobs(store.query_jobs_overlapping(t0, t1))
    group = None
    for g in groups:
        if args.key is not None and g.group_key == args.key:
            group = g
            break
        if args.app is not None and any(app == args.app for app, _ in g.runs):
            group = g
            break
    if group is None:
        raise ValueError("no command group matches; pass --app or --key")

    by_app = exposures(store, [app_id for app_id, _runtime in group.runs], args.fs, args.alpha)
    for app_id, recs in by_app.items():
        if len(recs) != 1:
            raise ValueError(
                f"app {app_id} touched {len(recs)} filesystems; pass --fs to pick one"
            )

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(("app_id", "runtime_s", "risk_oss_sum", "risk_mds_axis"))
    points = runtime_vs_risk(group, {app_id: recs[0] for app_id, recs in by_app.items()})
    for point in points:
        writer.writerow(
            (
                point.app_id,
                point.runtime_s,
                fmt_num(point.risk_oss_sum),
                fmt_num(point.risk_mds_axis),
            )
        )
    return 0


def cmd_synth(args, settings: Settings) -> int:
    scenario = synth_mod.load_scenario(args.scenario)
    gen = synth_mod.generate(scenario, args.out, with_oracle=not args.no_oracle)
    print(f"wrote {gen.stats_path} samples={gen.sample_rows}")
    print(f"wrote {gen.jobs_path} jobs={len(gen.jobs)}")
    if gen.oracle_dir is not None:
        print(f"wrote {gen.oracle_dir} files={len(oracle_mod.ORACLE_FILES)}")
    return 0


def cmd_verify(args, settings: Settings) -> int:
    data_dir = Path(args.data)
    oracle_dir = Path(args.oracle) if args.oracle else data_dir / "oracle"
    meta = oracle_mod.read_oracle(oracle_dir).meta
    outputs = compute_outputs_from_files(
        data_dir / "stats.csv",
        data_dir / "jobs.csv",
        period=(int(meta["t0"]), int(meta["t1"])),
        alpha=float(meta["alpha"]),
        window_len=int(meta["window_len"]),
        boundary_policy=str(meta.get("boundary_policy", "midpoint")),
    )
    report = oracle_mod.verify(outputs, oracle_dir, rel_tol=args.rel_tol)
    print(report.summary())
    for diff in report.diffs[:20]:
        print(f"  {diff}")
    if len(report.diffs) > 20:
        print(f"  ... {len(report.diffs) - 20} more")
    return 0 if report.ok else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="lassi", description="Filesystem load analytics over Lustre server counters.")
    parser.add_argument("--version", action="version", version=f"lassi {__version__}")
    parser.set_defaults(func=None)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--store", metavar="DIR", help="store root (default ./lassi-data)")
    common.add_argument("--config", metavar="FILE", help="INI config file, [lassi] section")
    common.add_argument("--window-len", dest="window_len", type=int, metavar="SECONDS")
    common.add_argument("--alpha", type=float, metavar="A", help="baseline scale factor")
    common.add_argument(
        "--boundary-policy",
        dest="boundary_policy",
        choices=BOUNDARY_POLICIES,
        help="how windows straddling job boundaries are attributed",
    )

    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("ingest", parents=[common], help="parse source CSVs into the store")
    p.add_argument("--stats", action="append", metavar="FILE", help="server counter CSV (repeatable)")
    p.add_argument("--jobs", action="append", metavar="FILE", help="job record CSV (repeatable)")
    p.add_argument("--mode", choices=("strict", "lenient"), default="strict")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("aggregate", parents=[common], help="attribute samples and write hourly rollups")
    p.add_argument("--from", dest="t0", type=_date, metavar="DATE")
    p.add_argument("--to", dest="t1", type=_date, metavar="DATE", help="exclusive")
    p.add_argument("--date", type=_date, metavar="DATE", help="single day shorthand")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("baseline", parents=[common], help="compute and store per-fs baselines")
    p.add_argument("--from", dest="t0", type=_time, metavar="TIME")
    p.add_argument("--to", dest="t1", type=_time, metavar="TIME", help="exclusive")
    p.add_argument("--date", type=_date, metavar="DATE", help="single day shorthand")
    p.add_argument("--fs", action="append", metavar="FS", help="limit to one filesystem (repeatable)")
    p.add_argument("--label", type=_date, metavar="DATE", help="effective date (default: period start)")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("report", parents=[common], help="write one filesystem's daily report bundle")
    p.add_argument("--fs", required=True, metavar="FS")
    p.add_argument("--date", required=True, type=_date, metavar="DATE")
    p.add_argument("--top-k", dest="top_k", type=int, metavar="K")
    p.add_argument(
        "--generated-at",
        dest="generated_at",
        metavar="TIME",
        help="stamp the bundle; omitted by default so reruns are byte-identical",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("rsd", parents=[common], help="write the per-fs dispersion table")
    p.add_argument("--from", dest="t0", type=_time, metavar="TIME")
    p.add_argument("--to", dest="t1", type=_time, metavar="TIME", help="exclusive")
    p.add_argument("--date", type=_date, metavar="DATE", help="single day shorthand")
    p.set_defaults(func=cmd_rsd)

    p = sub.add_parser("slowdown", parents=[common], help="flag slow runs within command groups")
    p.add_argument("--from", dest="t0", type=_time, metavar="TIME")
    p.add_argument("--to", dest="t1", type=_time, metavar="TIME", help="exclusive")
    p.add_argument("--factor", type=float, default=1.5, metavar="F")
    p.set_defaults(func=cmd_slowdown, date=None)

    p = sub.add_parser("exposure", parents=[common], help="ambient risk summed over one run")
    p.add_argument("--app", required=True, metavar="APP_ID")
    p.add_argument("--fs", metavar="FS")
    p.set_defaults(func=cmd_exposure)

    p = sub.add_parser("scatter", parents=[common], help="runtime vs risk points for a command group")
    p.add_argument("--app", metavar="APP_ID", help="any run in the group")
    p.add_argument("--key", metavar="GROUP_KEY", help="group key, as printed elsewhere")
    p.add_argument("--fs", metavar="FS")
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic scenario")
    p.add_argument("--scenario", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--no-oracle", dest="no_oracle", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", parents=[common], help="check pipeline results against an oracle")
    p.add_argument("data", metavar="DIR", help="directory with stats.csv and jobs.csv")
    p.add_argument("--oracle", metavar="DIR", help="oracle directory (default DIR/oracle)")
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is None:
        parser.error("a subcommand is required")
    try:
        settings = resolve_settings(args)
        return args.func(args, settings)
    except AttributionConflictError as exc:
        print(f"lassi: {exc}", file=sys.stderr)
        return 3
    except (StoreError, StoreLockError, OSError) as exc:
        print(f"lassi: {exc}", file=sys.stderr)
        return 1
    except (LassiError, ValueError) as exc:
        print(f"lassi: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
