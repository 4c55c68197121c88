"""Direct-evaluation reference results for synthetic scenarios.

Everything here is recomputed from raw sample tuples with plain dictionaries
and loops. The module deliberately imports nothing from the attribution,
metric, or report modules, so agreement between the two sides is evidence
rather than tautology. compute_oracle() produces the expected aggregates,
baselines, risk series, operation-size metrics, and per-run exposures;
write_oracle()/read_oracle() persist them; verify() compares pipeline
outputs against a written oracle directory.

Only the midpoint window-ownership rule is modelled: a window belongs to the
job whose [start, end) interval contains the window's midpoint, checked in
doubled integer arithmetic so odd window lengths need no floats.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

STAT_NAMES = (
    "read_kb",
    "read_ops",
    "write_kb",
    "write_ops",
    "other",
    "open",
    "close",
    "mknod",
    "link",
    "unlink",
    "mkdir",
    "rmdir",
    "ren",
    "getattr",
    "setattr",
    "getxattr",
    "setxattr",
    "statfs",
    "sync",
    "sdr",
    "cdr",
)
N_OSS = 5
N_STATS = len(STAT_NAMES)

ORACLE_FILES = (
    "meta.json",
    "app_hours.csv",
    "fs_hours.csv",
    "baseline.csv",
    "risk_fs.csv",
    "risk_apps.csv",
    "ops.csv",
    "exposures.csv",
)


def _iso(t: int) -> str:
    return datetime.fromtimestamp(t, timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _unix(ts: str) -> int:
    dt = datetime.strptime(ts, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


@dataclass
class OracleData:
    meta: dict
    app_hours: dict  # (app_id, fs, hour) -> [21 ints]
    fs_hours: dict  # (fs, hour) -> [21 ints], sampled hours only
    unattributed: dict  # (fs, hour) -> [21 ints]
    baselines: dict  # fs -> [21 float means]
    fs_risk: dict  # (fs, hour) -> (risk_oss, risk_mds), full hour grid
    app_risk: dict  # (fs, hour, app_id) -> (risk_oss, risk_mds)
    ops: dict  # (fs, hour) -> (read_kb_ops, write_kb_ops), None/inf allowed
    exposures: list  # (app_id, fs, oss_sum, mds_sum, hours)


def compute_oracle(samples: Iterable, jobs: Iterable, meta: dict) -> OracleData:
    """Evaluate expected results.

    samples: (fs, node, window_start, 21-tuple) rows.
    jobs: (app_id, node set, start, end) tuples; node occupancy is assumed
    exclusive, which the generator guarantees.
    meta: t0, t1, window_len, alpha as plain numbers.
    """
    t0 = int(meta["t0"])
    t1 = int(meta["t1"])
    wlen = int(meta["window_len"])
    alpha = float(meta["alpha"])

    node_jobs: dict = {}
    spans: dict = {}
    for app_id, nodes, start, end in jobs:
        spans[app_id] = (int(start), int(end))
        for node in nodes:
            node_jobs.setdefault(node, []).append((int(start), int(end), app_id))
    for lst in node_jobs.values():
        lst.sort()

    app_hours: dict = {}
    fs_totals: dict = {}
    unattr: dict = {}
    for fs_id, node, w, vec in samples:
        hour = w - w % 3600
        tot = fs_totals.get((fs_id, hour))
        if tot is None:
            tot = [0] * N_STATS
            fs_totals[(fs_id, hour)] = tot
        for i in range(N_STATS):
            tot[i] += vec[i]
        owner = None
        mid2 = 2 * w + wlen
        for start, end, app_id in node_jobs.get(node, ()):
            if 2 * start <= mid2 < 2 * end:
                owner = app_id
                break
        if owner is None:
            cell = unattr.get((fs_id, hour))
            if cell is None:
                cell = [0] * N_STATS
                unattr[(fs_id, hour)] = cell
        else:
            cell = app_hours.get((owner, fs_id, hour))
            if cell is None:
                cell = [0] * N_STATS
                app_hours[(owner, fs_id, hour)] = cell
        for i in range(N_STATS):
            cell[i] += vec[i]

    # zero-fill the whole clamped job span for every pair that showed up
    pairs = sorted({(app, fs) for app, fs, _h in app_hours})
    for app, fs in pairs:
        start, end = spans[app]
        h = max(start - start % 3600, t0)
        stop = min(end, t1)
        while h < stop:
            if (app, fs, h) not in app_hours:
                app_hours[(app, fs, h)] = [0] * N_STATS
            h += 3600

    n_hours = (t1 - t0) // 3600
    fs_ids = sorted({fs for fs, _h in fs_totals})
    baselines: dict = {}
    for fs in fs_ids:
        sums = [0] * N_STATS
        for (f, hour), tot in fs_totals.items():
            if f == fs and t0 <= hour < t1:
                for i in range(N_STATS):
                    sums[i] += tot[i]
        baselines[fs] = [s / n_hours for s in sums]

    fs_risk: dict = {}
    for fs in fs_ids:
        for h in range(t0, t1, 3600):
            fs_risk[(fs, h)] = (0.0, 0.0)
    app_risk: dict = {}
    for key in sorted(app_hours):
        app, fs, hour = key
        means = baselines[fs]
        vec = app_hours[key]
        oss = 0.0
        mds = 0.0
        for i in range(N_STATS):
            m = means[i]
            if m == 0.0:
                continue  # zero against zero mean is no excess; excess is undefined
            scaled = alpha * m
            r = (vec[i] - scaled) / scaled
            if r > 0.0:
                if i < N_OSS:
                    oss += r
                else:
                    mds += r
        app_risk[(fs, hour, app)] = (oss, mds)
        prev_o, prev_m = fs_risk[(fs, hour)]
        fs_risk[(fs, hour)] = (prev_o + oss, prev_m + mds)

    ops: dict = {}
    for fs in fs_ids:
        for h in range(t0, t1, 3600):
            tot = fs_totals.get((fs, h))
            if tot is None:
                tot = [0] * N_STATS
            ops[(fs, h)] = (_ops(tot[0], tot[1]), _ops(tot[2], tot[3]))

    exposures = []
    for app, fs in pairs:
        start, end = spans[app]
        oss_sum = 0.0
        mds_sum = 0.0
        count = 0
        for h in range(start - start % 3600, end, 3600):
            o, m = fs_risk[(fs, h)]
            oss_sum += o
            mds_sum += m
            count += 1
        exposures.append((app, fs, oss_sum, mds_sum, count))

    return OracleData(
        meta=dict(meta),
        app_hours=app_hours,
        fs_hours=fs_totals,
        unattributed=unattr,
        baselines=baselines,
        fs_risk=fs_risk,
        app_risk=app_risk,
        ops=ops,
        exposures=exposures,
    )


def _ops(kb: int, operations: int) -> float | None:
    if kb > 0:
        return operations * 1024 / kb
    if operations == 0:
        return None
    return float("inf")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return repr(value) if isinstance(value, float) else str(value)


def write_oracle(data: OracleData, oracle_dir: str | Path) -> None:
    out = Path(oracle_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = data.meta
    meta_doc = {
        "t0": _iso(int(meta["t0"])),
        "t1": _iso(int(meta["t1"])),
        "window_len": int(meta["window_len"]),
        "alpha": float(meta["alpha"]),
        "boundary_policy": meta.get("boundary_policy", "midpoint"),
        "filesystems": list(meta.get("filesystems", [])),
    }
    (out / "meta.json").write_text(
        json.dumps(meta_doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )

    def table(name: str, header: list, rows: list) -> None:
        with open(out / name, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)

    table(
        "app_hours.csv",
        ["hour", "fs", "app_id"] + list(STAT_NAMES),
        [
            [_iso(hour), fs, app] + list(data.app_hours[(app, fs, hour)])
            for app, fs, hour in sorted(
                data.app_hours, key=lambda k: (k[2], k[1], k[0])
            )
        ],
    )
    table(
        "fs_hours.csv",
        ["hour", "fs"]
        + list(STAT_NAMES)
        + ["un_" + s for s in STAT_NAMES],
        [
            [_iso(hour), fs]
            + list(data.fs_hours[(fs, hour)])
            + list(data.unattributed.get((fs, hour), [0] * N_STATS))
            for fs, hour in sorted(data.fs_hours, key=lambda k: (k[1], k[0]))
        ],
    )
    table(
        "baseline.csv",
        ["fs", "stat", "mean"],
        [
            [fs, STAT_NAMES[i], repr(data.baselines[fs][i])]
            for fs in sorted(data.baselines)
            for i in range(N_STATS)
        ],
    )
    table(
        "risk_fs.csv",
        ["fs", "hour", "risk_oss", "risk_mds"],
        [
            [fs, _iso(hour), repr(data.fs_risk[(fs, hour)][0]), repr(data.fs_risk[(fs, hour)][1])]
            for fs, hour in sorted(data.fs_risk)
        ],
    )
    table(
        "risk_apps.csv",
        ["fs", "hour", "app_id", "risk_oss", "risk_mds"],
        [
            [fs, _iso(hour), app, repr(data.app_risk[key][0]), repr(data.app_risk[key][1])]
            for key in sorted(data.app_risk)
            for fs, hour, app in [key]
        ],
    )
    table(
        "ops.csv",
        ["fs", "hour", "read_kb_ops", "write_kb_ops"],
        [
            [fs, _iso(hour), _fmt(data.ops[(fs, hour)][0]), _fmt(data.ops[(fs, hour)][1])]
            for fs, hour in sorted(data.ops)
        ],
    )
    table(
        "exposures.csv",
        ["app_id", "fs", "risk_oss_sum", "risk_mds_sum", "hours"],
        [
            [app, fs, repr(oss), repr(mds), hours]
            for app, fs, oss, mds, hours in sorted(data.exposures)
        ],
    )


def _read_table(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[1:]


def _parse_opt(text: str) -> float | None:
    if text == "":
        return None
    if text == "inf":
        return float("inf")
    return float(text)


def read_oracle(oracle_dir: str | Path) -> OracleData:
    root = Path(oracle_dir)
    meta_doc = json.loads((root / "meta.json").read_text(encoding="utf-8"))
    # every table repeats the same few hour stamps; parse each one once
    stamps: dict = {}

    def unix(ts: str) -> int:
        value = stamps.get(ts)
        if value is None:
            value = stamps[ts] = _unix(ts)
        return value

    meta = dict(meta_doc)
    meta["t0"] = unix(meta_doc["t0"])
    meta["t1"] = unix(meta_doc["t1"])

    app_hours = {}
    for row in _read_table(root / "app_hours.csv"):
        app_hours[(row[2], row[1], unix(row[0]))] = [int(v) for v in row[3:]]
    fs_hours = {}
    unattr = {}
    for row in _read_table(root / "fs_hours.csv"):
        key = (row[1], unix(row[0]))
        fs_hours[key] = [int(v) for v in row[2 : 2 + N_STATS]]
        un = [int(v) for v in row[2 + N_STATS :]]
        if any(un):
            unattr[key] = un
    baselines: dict = {}
    for fs, stat, mean in _read_table(root / "baseline.csv"):
        baselines.setdefault(fs, [0.0] * N_STATS)[STAT_NAMES.index(stat)] = float(mean)
    fs_risk = {}
    for fs, hour, oss, mds in _read_table(root / "risk_fs.csv"):
        fs_risk[(fs, unix(hour))] = (float(oss), float(mds))
    app_risk = {}
    for fs, hour, app, oss, mds in _read_table(root / "risk_apps.csv"):
        app_risk[(fs, unix(hour), app)] = (float(oss), float(mds))
    ops = {}
    for fs, hour, read_q, write_q in _read_table(root / "ops.csv"):
        ops[(fs, unix(hour))] = (_parse_opt(read_q), _parse_opt(write_q))
    exposures = [
        (app, fs, float(oss), float(mds), int(hours))
        for app, fs, oss, mds, hours in _read_table(root / "exposures.csv")
    ]
    return OracleData(
        meta=meta,
        app_hours=app_hours,
        fs_hours=fs_hours,
        unattributed=unattr,
        baselines=baselines,
        fs_risk=fs_risk,
        app_risk=app_risk,
        ops=ops,
        exposures=exposures,
    )


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    compared: int
    diffs: tuple

    def summary(self) -> str:
        state = "OK" if self.ok else "MISMATCH"
        return f"{state}: {self.compared} values compared, {len(self.diffs)} diffs"


_DIFF_CAP = 200


class _Differ:
    def __init__(self) -> None:
        self.diffs: list = []
        self.compared = 0
        self.truncated = False

    def add(self, message: str) -> None:
        if len(self.diffs) < _DIFF_CAP:
            self.diffs.append(message)
        else:
            self.truncated = True

    def close(self, where: str, got, want, rel_tol: float) -> None:
        self.compared += 1
        if got is None or want is None:
            if got is not want:
                self.add(f"{where}: got {got}, want {want}")
            return
        if not math.isclose(got, want, rel_tol=rel_tol, abs_tol=1e-12):
            self.add(f"{where}: got {got!r}, want {want!r}")

    def exact(self, where: str, got, want) -> None:
        self.compared += 1
        if got != want:
            self.add(f"{where}: got {got!r}, want {want!r}")

    def report(self) -> VerifyReport:
        diffs = list(self.diffs)
        if self.truncated:
            diffs.append("... further diffs suppressed")
        return VerifyReport(ok=not diffs, compared=self.compared, diffs=tuple(diffs))


def verify(outputs, oracle_dir: str | Path, rel_tol: float = 1e-9) -> VerifyReport:
    """Compare pipeline outputs against a written oracle directory.

    outputs is a PipelineOutputs-shaped object; only attribute access is
    used here, keeping this module import-independent from the pipeline.
    Counters compare exactly, floats to rel_tol.
    """
    try:
        want = read_oracle(oracle_dir)
    except FileNotFoundError as exc:
        return VerifyReport(
            ok=False, compared=0, diffs=(f"missing oracle file: {exc.filename}",)
        )
    d = _Differ()
    d.exact("meta.t0", outputs.period[0], want.meta["t0"])
    d.exact("meta.t1", outputs.period[1], want.meta["t1"])
    d.close("meta.alpha", outputs.alpha, float(want.meta["alpha"]), rel_tol)

    got_app = {}
    for rec in outputs.app_hours:
        got_app[(rec.app_id, rec.fs_id, rec.hour)] = list(rec.counters)
    _compare_tables(d, "app_hours", got_app, want.app_hours, _key3)

    got_tot = {}
    got_un = {}
    for rec in outputs.fs_hours:
        got_tot[(rec.fs_id, rec.hour)] = list(rec.counters)
        un = list(rec.unattributed)
        if any(un):
            got_un[(rec.fs_id, rec.hour)] = un
    _compare_tables(d, "fs_hours", got_tot, want.fs_hours, _key2)
    _compare_tables(d, "unattributed", got_un, want.unattributed, _key2)

    for fs in sorted(set(want.baselines) | set(outputs.baselines)):
        if fs not in outputs.baselines:
            d.add(f"baseline[{fs}]: missing from pipeline")
            continue
        if fs not in want.baselines:
            d.add(f"baseline[{fs}]: pipeline invented this filesystem")
            continue
        means = outputs.baselines[fs].means
        for i, stat in enumerate(STAT_NAMES):
            d.close(f"baseline[{fs}].{stat}", means[stat], want.baselines[fs][i], rel_tol)

    got_fs_risk = {}
    got_app_risk = {}
    for fs, series in sorted(outputs.risk.items()):
        for hour, oss, mds in zip(series.hours, series.oss, series.mds):
            got_fs_risk[(fs, hour)] = (oss, mds)
        for rec in series.records:
            got_app_risk[(fs, rec.hour, rec.app_id)] = (rec.risk_oss, rec.risk_mds)
    _compare_pairs(d, "fs_risk", got_fs_risk, want.fs_risk, rel_tol)
    _compare_pairs(d, "app_risk", got_app_risk, want.app_risk, rel_tol)

    got_ops = {}
    for fs, entries in sorted(outputs.ops.items()):
        for hour, read_q, write_q in entries:
            got_ops[(fs, hour)] = (read_q, write_q)
    _compare_pairs(d, "ops", got_ops, want.ops, rel_tol)

    got_exp = {}
    for rec in outputs.exposures:
        got_exp[(rec.app_id, rec.fs_id)] = (rec.risk_oss_sum, rec.risk_mds_sum, rec.hours)
    want_exp = {(app, fs): (oss, mds, hours) for app, fs, oss, mds, hours in want.exposures}
    for key in sorted(set(got_exp) | set(want_exp)):
        app, fs = key
        if key not in got_exp:
            d.add(f"exposure[{app},{fs}]: missing from pipeline")
            continue
        if key not in want_exp:
            d.add(f"exposure[{app},{fs}]: unexpected in pipeline")
            continue
        g, w = got_exp[key], want_exp[key]
        if g == w:
            d.compared += 3
            continue
        d.close(f"exposure[{app},{fs}].risk_oss_sum", g[0], w[0], rel_tol)
        d.close(f"exposure[{app},{fs}].risk_mds_sum", g[1], w[1], rel_tol)
        d.exact(f"exposure[{app},{fs}].hours", g[2], w[2])
    return d.report()


def _key3(key) -> str:
    app, fs, hour = key
    return f"{app},{fs},{_iso(hour)}"


def _key2(key) -> str:
    fs, hour = key
    return f"{fs},{_iso(hour)}"


def _compare_tables(d: _Differ, name: str, got: dict, want: dict, fmt) -> None:
    """Compare counter rows key by key; a row equal as a whole counts its
    N_STATS values without a label, a differing one is compared field by field."""
    for key in sorted(set(got) | set(want)):
        if key not in got:
            d.add(f"{name}[{fmt(key)}]: missing from pipeline")
            continue
        if key not in want:
            d.add(f"{name}[{fmt(key)}]: unexpected in pipeline")
            continue
        g, w = got[key], want[key]
        if g == w:
            d.compared += N_STATS
            continue
        label = f"{name}[{fmt(key)}]"
        for i in range(N_STATS):
            d.exact(f"{label}.{STAT_NAMES[i]}", g[i], w[i])


def _compare_pairs(d: _Differ, name: str, got: dict, want: dict, rel_tol: float) -> None:
    """Compare value pairs key by key; a pair equal as a whole is within any
    tolerance, so only a differing pair is labelled and compared to rel_tol."""
    labels = ("oss", "mds") if "risk" in name else ("read", "write")
    for key in sorted(set(got) | set(want)):
        g, w = got.get(key), want.get(key)
        if g is not None and g == w:
            d.compared += 2
            continue
        kf = ",".join(str(k) if not isinstance(k, int) else _iso(k) for k in key)
        if g is None:
            d.add(f"{name}[{kf}]: missing from pipeline")
            continue
        if w is None:
            d.add(f"{name}[{kf}]: unexpected in pipeline")
            continue
        d.close(f"{name}[{kf}].{labels[0]}", g[0], w[0], rel_tol)
        d.close(f"{name}[{kf}].{labels[1]}", g[1], w[1], rel_tol)
