"""Direct-evaluation reference results for synthetic scenarios.

Everything here is recomputed from raw sample tuples with plain dictionaries
and loops. The module deliberately imports nothing from the attribution,
metric, or report modules, so agreement between the two sides is evidence
rather than tautology. sum_samples() sums sample rows into the integer
hourly totals, per filesystem and per owning run; since they are integers,
the sums of a split of the rows, merged (SampleSums.merge), are exactly
those of all of them, so the rows may be summed in parts, in any number of
processes. compute_oracle() then derives from the sums the expected
aggregates, baselines, risk series, operation-size metrics, and per-run
exposures, once; write_oracle()/read_oracle() persist them; verify()
compares pipeline outputs against a written oracle directory, reading each
table a row at a time. Both read the tables through the same row readers.

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
from typing import Iterable, Iterator

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
_ZEROS = (0,) * N_STATS
# the sample rows sum_samples holds at a time: each key's rows among them are
# added column by column in one zip, some four times faster than row by row
_SUM_ROWS = 1024

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


@dataclass
class SampleSums:
    """The integer sums of some sample rows, all the oracle keeps of them."""

    app_hours: dict  # (app_id, fs, hour) -> [21 ints], owned samples
    fs_hours: dict  # (fs, hour) -> [21 ints], every sample
    unattributed: dict  # (fs, hour) -> [21 ints], unowned samples

    def merge(self, other: SampleSums) -> None:
        """Add other's sums to these, key by key: the sums of both sets of
        rows, exactly, with the keys first seen in other after these, as if
        its rows had followed these in one pass."""
        for mine, theirs in (
            (self.app_hours, other.app_hours),
            (self.fs_hours, other.fs_hours),
            (self.unattributed, other.unattributed),
        ):
            for key, vec in theirs.items():
                _add_rows(mine, key, [vec])


def _add_rows(table: dict, key, vecs: list) -> None:
    """Add the counter rows vecs to table[key], a new key starting at zero."""
    table[key] = [sum(col) for col in zip(table.get(key, _ZEROS), *vecs)]


def sum_samples(samples: Iterable, jobs: Iterable, window_len: int) -> SampleSums:
    """Sum sample rows by hour: per filesystem, and per owning run or
    unattributed.

    samples: (fs, node, window_start, 21-tuple) rows.
    jobs: (app_id, node set, start, end) tuples; node occupancy is assumed
    exclusive, which the generator guarantees.
    The sums are integers, so the rows may be summed in any split and the
    parts merged (SampleSums.merge) with the same result.
    """
    wlen = int(window_len)
    node_jobs: dict = {}
    for app_id, nodes, start, end in jobs:
        for node in nodes:
            node_jobs.setdefault(node, []).append((int(start), int(end), app_id))
    for lst in node_jobs.values():
        lst.sort()

    app_hours: dict = {}
    fs_totals: dict = {}
    unattr: dict = {}
    # each key's rows since the last sum, keys in the order they are first seen
    totals: dict = {}
    owned: dict = {}
    unowned: dict = {}
    held = ((fs_totals, totals), (app_hours, owned), (unattr, unowned))

    def add_held() -> None:
        for table, rows in held:
            for key, vecs in rows.items():
                _add_rows(table, key, vecs)
            rows.clear()

    for n, (fs_id, node, w, vec) in enumerate(samples, 1):
        hour = w - w % 3600
        totals.setdefault((fs_id, hour), []).append(vec)
        owner = None
        mid2 = 2 * w + wlen
        for start, end, app_id in node_jobs.get(node, ()):
            if 2 * start <= mid2 < 2 * end:
                owner = app_id
                break
        if owner is None:
            unowned.setdefault((fs_id, hour), []).append(vec)
        else:
            owned.setdefault((owner, fs_id, hour), []).append(vec)
        if n % _SUM_ROWS == 0:
            add_held()
    add_held()
    return SampleSums(app_hours=app_hours, fs_hours=fs_totals, unattributed=unattr)


def compute_oracle(sums: SampleSums, jobs: Iterable, meta: dict) -> OracleData:
    """Evaluate expected results from the sums of every sample row, which
    it takes over: the zero-filled app hours are added to sums.app_hours.

    jobs: the (app_id, node set, start, end) tuples the sums were taken with.
    meta: t0, t1, window_len, alpha as plain numbers.
    """
    t0 = int(meta["t0"])
    t1 = int(meta["t1"])
    alpha = float(meta["alpha"])
    spans = {app_id: (int(start), int(end)) for app_id, _nodes, start, end in jobs}
    app_hours = sums.app_hours
    fs_totals = sums.fs_hours
    unattr = sums.unattributed

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
        total = [0] * N_STATS
        for (f, hour), tot in fs_totals.items():
            if f == fs and t0 <= hour < t1:
                for i in range(N_STATS):
                    total[i] += tot[i]
        baselines[fs] = [s / n_hours for s in total]

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


class _Stamps(dict):
    """Unix seconds by hour stamp, each stamp parsed once: every table
    repeats the same few."""

    def __missing__(self, ts: str) -> int:
        value = self[ts] = _unix(ts)
        return value


def _rows(path: Path) -> Iterator[list]:
    """The CSV rows of a table after its header, one at a time, the file
    open only while they are read."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        next(rows, None)
        yield from rows


def _parse_opt(text: str) -> float | None:
    if text == "":
        return None
    if text == "inf":
        return float("inf")
    return float(text)


# The row readers: each yields the rows of one table of the oracle directory
# root, parsed, one at a time and in file order, a key as often as the file
# holds it.


def _app_hours_rows(root: Path, stamps: _Stamps) -> Iterator[tuple]:
    """((app_id, fs, hour), 21 counters) per row of app_hours.csv."""
    for row in _rows(root / "app_hours.csv"):
        yield (row[2], row[1], stamps[row[0]]), tuple(map(int, row[3:]))


def _fs_hours_rows(root: Path, stamps: _Stamps) -> Iterator[tuple]:
    """((fs, hour), 21 totals, 21 unattributed counters) per row of fs_hours.csv."""
    for row in _rows(root / "fs_hours.csv"):
        yield (
            (row[1], stamps[row[0]]),
            tuple(map(int, row[2 : 2 + N_STATS])),
            tuple(map(int, row[2 + N_STATS :])),
        )


def _baseline_rows(root: Path, stamps: _Stamps) -> Iterator[tuple]:
    """(fs, stat index, mean) per row of baseline.csv."""
    for fs, stat, mean in _rows(root / "baseline.csv"):
        yield fs, STAT_NAMES.index(stat), float(mean)


def _fs_risk_rows(root: Path, stamps: _Stamps) -> Iterator[tuple]:
    """((fs, hour), (risk_oss, risk_mds)) per row of risk_fs.csv."""
    for fs, hour, oss, mds in _rows(root / "risk_fs.csv"):
        yield (fs, stamps[hour]), (float(oss), float(mds))


def _app_risk_rows(root: Path, stamps: _Stamps) -> Iterator[tuple]:
    """((fs, hour, app_id), (risk_oss, risk_mds)) per row of risk_apps.csv."""
    for fs, hour, app, oss, mds in _rows(root / "risk_apps.csv"):
        yield (fs, stamps[hour], app), (float(oss), float(mds))


def _ops_rows(root: Path, stamps: _Stamps) -> Iterator[tuple]:
    """((fs, hour), (read_kb_ops, write_kb_ops)) per row of ops.csv."""
    for fs, hour, read_q, write_q in _rows(root / "ops.csv"):
        yield (fs, stamps[hour]), (_parse_opt(read_q), _parse_opt(write_q))


def _exposure_rows(root: Path, stamps: _Stamps) -> Iterator[tuple]:
    """((app_id, fs), (risk_oss_sum, risk_mds_sum, hours)) per row of exposures.csv."""
    for app, fs, oss, mds, hours in _rows(root / "exposures.csv"):
        yield (app, fs), (float(oss), float(mds), int(hours))


def read_meta(oracle_dir: str | Path) -> dict:
    """An oracle directory's meta.json, t0 and t1 as Unix seconds: all of
    it that running the pipeline for verify needs."""
    with open(Path(oracle_dir) / "meta.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    return {**meta, "t0": _unix(meta["t0"]), "t1": _unix(meta["t1"])}


def read_oracle(oracle_dir: str | Path) -> OracleData:
    """Every table of an oracle directory, held by key. A key that a table
    repeats keeps its last row here; verify reports the repeat instead."""
    root = Path(oracle_dir)
    stamps = _Stamps()
    meta = read_meta(root)
    app_hours = {key: list(vec) for key, vec in _app_hours_rows(root, stamps)}
    fs_hours = {}
    unattr = {}
    for key, totals, un in _fs_hours_rows(root, stamps):
        fs_hours[key] = list(totals)
        if any(un):
            unattr[key] = list(un)
    baselines: dict = {}
    for fs, i, mean in _baseline_rows(root, stamps):
        baselines.setdefault(fs, [0.0] * N_STATS)[i] = mean
    return OracleData(
        meta=meta,
        app_hours=app_hours,
        fs_hours=fs_hours,
        unattributed=unattr,
        baselines=baselines,
        fs_risk=dict(_fs_risk_rows(root, stamps)),
        app_risk=dict(_app_risk_rows(root, stamps)),
        ops=dict(_ops_rows(root, stamps)),
        exposures=[(*key, *value) for key, value in _exposure_rows(root, stamps)],
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
    """The count of values compared and the diffs found. Each diff is kept
    with its place, (table rank, key), and the report lists the first
    _DIFF_CAP by place, a key's diffs in the order found. Once twice that
    many are held, only the first _DIFF_CAP are kept, so a verify with many
    diffs holds few."""

    def __init__(self, rel_tol: float) -> None:
        self.rel_tol = rel_tol
        self.found: list = []  # (place, number found before it, message)
        self.count = 0  # diffs found
        self.compared = 0

    def add(self, at: tuple, message: str) -> None:
        self.found.append((at, self.count, message))
        self.count += 1
        if len(self.found) > 2 * _DIFF_CAP:
            self.found.sort()
            del self.found[_DIFF_CAP:]

    def close(self, at: tuple, where: str, got, want) -> None:
        self.compared += 1
        if got is None or want is None:
            if got is not want:
                self.add(at, f"{where}: got {got}, want {want}")
            return
        if not math.isclose(got, want, rel_tol=self.rel_tol, abs_tol=1e-12):
            self.add(at, f"{where}: got {got!r}, want {want!r}")

    def exact(self, at: tuple, where: str, got, want) -> None:
        self.compared += 1
        if got != want:
            self.add(at, f"{where}: got {got!r}, want {want!r}")

    def report(self) -> VerifyReport:
        self.found.sort()
        diffs = [message for _at, _n, message in self.found[:_DIFF_CAP]]
        if self.count > _DIFF_CAP:
            diffs.append("... further diffs suppressed")
        return VerifyReport(ok=not diffs, compared=self.compared, diffs=tuple(diffs))


# each table's fields, by name, and whether they compare exactly or to rel_tol
_COUNTERS = tuple((stat, True) for stat in STAT_NAMES)
_RISK = (("oss", False), ("mds", False))
_OPS = (("read", False), ("write", False))
_EXPOSURE = (("risk_oss_sum", False), ("risk_mds_sum", False), ("hours", True))

_SEEN = object()  # in a table's index: the oracle's row of this key was compared


def _key(key: tuple) -> str:
    return ",".join(k if isinstance(k, str) else _iso(k) for k in key)


class _Table:
    """One table's comparison: each oracle row given to row is compared
    with got, the outputs' values by key, which this takes over, and finish
    reports the keys no row named. A row equal as a whole counts its values
    without a label; a differing one is compared field by field."""

    def __init__(self, d: _Differ, rank: int, name: str, fields: tuple, got: dict) -> None:
        self.d = d
        self.rank = rank
        self.name = name
        self.fields = fields
        self.got = got

    def row(self, key: tuple, want: tuple) -> bool:
        """Compare the oracle's row of key; False if an earlier row had that key."""
        d, at = self.d, (self.rank, key)
        got = self.got.get(key)
        if got is _SEEN:
            d.add(at, f"{self.name}[{_key(key)}]: repeated in oracle")
            return False
        self.got[key] = _SEEN
        if got is None:
            d.add(at, f"{self.name}[{_key(key)}]: missing from pipeline")
        elif got == want:
            d.compared += len(want)
        else:
            label = f"{self.name}[{_key(key)}]"
            for (field, exact), g, w in zip(self.fields, got, want):
                (d.exact if exact else d.close)(at, f"{label}.{field}", g, w)
        return True

    def rows(self, rows: Iterable[tuple]) -> None:
        for key, want in rows:
            self.row(key, want)
        self.finish()

    def finish(self) -> None:
        for key, got in self.got.items():
            if got is not _SEEN:
                message = f"{self.name}[{_key(key)}]: unexpected in pipeline"
                self.d.add((self.rank, key), message)


def _compare_baselines(d: _Differ, got: dict, rows: Iterable[tuple]) -> None:
    """The baselines, by filesystem: one on a single side is one diff, and
    a stat its oracle rows lack compares with 0.0."""
    read: dict = {}  # fs -> the stat indexes of its rows so far
    for fs, i, mean in rows:
        at, stat = (4, (fs, i)), STAT_NAMES[i]
        stats = read.setdefault(fs, set())
        if i in stats:
            d.add(at, f"baseline[{fs},{stat}]: repeated in oracle")
            continue
        stats.add(i)
        if fs in got:
            d.close(at, f"baseline[{fs}].{stat}", got[fs].means[stat], mean)
        elif len(stats) == 1:
            d.add((4, (fs, -1)), f"baseline[{fs}]: missing from pipeline")
    for fs, baseline in got.items():
        if fs not in read:
            d.add((4, (fs, -1)), f"baseline[{fs}]: pipeline invented this filesystem")
            continue
        for i in set(range(N_STATS)) - read[fs]:
            stat = STAT_NAMES[i]
            d.close((4, (fs, i)), f"baseline[{fs}].{stat}", baseline.means[stat], 0.0)


def missing_file(oracle_dir: str | Path) -> VerifyReport | None:
    """The report of a verify against an oracle directory that lacks one
    of ORACLE_FILES, naming the first such file as its one diff, with
    nothing compared; None when every file is there."""
    for name in ORACLE_FILES:
        path = Path(oracle_dir) / name
        if not path.exists():
            return VerifyReport(ok=False, compared=0, diffs=(f"missing oracle file: {path}",))
    return None


def verify(outputs, oracle_dir: str | Path, rel_tol: float = 1e-9) -> VerifyReport:
    """Compare pipeline outputs against a written oracle directory.

    outputs is a PipelineOutputs-shaped object; only attribute access is
    used here, keeping this module import-independent from the pipeline.
    Counters compare exactly, floats to rel_tol.

    Every file's existence is checked first: a missing one is the only
    diff, with nothing compared. Then each table is read when its
    comparison starts, a CSV row at a time, and each row is compared with
    an index of the outputs by key that holds the records' own values. A
    second row of a key is a diff, "repeated in oracle". Diffs are listed
    by table, then by key; only they are sorted.
    """
    root = Path(oracle_dir)
    missing = missing_file(root)
    if missing is not None:
        return missing
    stamps = _Stamps()
    d = _Differ(rel_tol)
    meta = read_meta(root)
    d.exact((0, 0), "meta.t0", outputs.period[0], meta["t0"])
    d.exact((0, 1), "meta.t1", outputs.period[1], meta["t1"])
    d.close((0, 2), "meta.alpha", outputs.alpha, float(meta["alpha"]))

    _Table(
        d, 1, "app_hours", _COUNTERS,
        {(rec.app_id, rec.fs_id, rec.hour): rec.counters for rec in outputs.app_hours},
    ).rows(_app_hours_rows(root, stamps))

    totals = _Table(
        d, 2, "fs_hours", _COUNTERS,
        {(rec.fs_id, rec.hour): rec.counters for rec in outputs.fs_hours},
    )
    unattributed = _Table(
        d, 3, "unattributed", _COUNTERS,
        {
            (rec.fs_id, rec.hour): rec.unattributed
            for rec in outputs.fs_hours
            if any(rec.unattributed)
        },
    )
    for key, counters, un in _fs_hours_rows(root, stamps):
        if totals.row(key, counters) and any(un):
            unattributed.row(key, un)
    totals.finish()
    unattributed.finish()

    _compare_baselines(d, outputs.baselines, _baseline_rows(root, stamps))

    risk = outputs.risk.items()
    _Table(
        d, 5, "fs_risk", _RISK,
        {
            (fs, hour): (oss, mds)
            for fs, series in risk
            for hour, oss, mds in zip(series.hours, series.oss, series.mds)
        },
    ).rows(_fs_risk_rows(root, stamps))
    _Table(
        d, 6, "app_risk", _RISK,
        {
            (fs, rec.hour, rec.app_id): (rec.risk_oss, rec.risk_mds)
            for fs, series in risk
            for rec in series.records
        },
    ).rows(_app_risk_rows(root, stamps))
    _Table(
        d, 7, "ops", _OPS,
        {
            (fs, hour): (read_q, write_q)
            for fs, entries in outputs.ops.items()
            for hour, read_q, write_q in entries
        },
    ).rows(_ops_rows(root, stamps))
    _Table(
        d, 8, "exposure", _EXPOSURE,
        {
            (rec.app_id, rec.fs_id): (rec.risk_oss_sum, rec.risk_mds_sum, rec.hours)
            for rec in outputs.exposures
        },
    ).rows(_exposure_rows(root, stamps))
    return d.report()
