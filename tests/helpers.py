"""Shared builders for the test suite.

The exposure fixture below is the hand-computed reference case used by the
analysis and acceptance tests. Every expected number derives from integer
arithmetic done by hand, not from running the pipeline:

Baseline day (2017-10-09, fs2): one idle node reports, per 180 s window,
read_kb=100, read_ops=10, write_kb=100, write_ops=10, other=10 and 10 of each
metadata operation. With 20 windows per hour the hourly totals are 2000 KiB /
200 ops per direction, 200 other, and 200 per metadata stat, constant over 24
hours, so the daily means equal those totals exactly. With alpha=2 the risk
thresholds are 4000 KiB and 400 operations.

Report day (2017-10-10): the same idle node continues at baseline level
(risk-neutral, unattributed). Four jobs run 10:00..13:00 on four other nodes.
app1 is the aggressor, reading per window 20200 / 40200 / 40600 KiB in the
three hours and opening 520 / 540 / 540 files, so its hourly totals are
404000 / 804000 / 812000 KiB and 10400 / 10800 / 10800 opens:

    read_kb risk: (404000-4000)/4000 = 100, then 200, then 202
    open risk:    (10400-400)/400   =  25, then  26, then  26

apps 2..4 write 100 KiB per window (2000/hour, under threshold, risk 0).
Filesystem hourly risk is therefore (100, 200, 202) OSS and (25, 26, 26) MDS
for 10:00..12:00 and zero elsewhere. Every job spans exactly those three
hours, so each of the four exposures is 502 OSS / 77 MDS, identically.
"""

from __future__ import annotations

import errno
import io
import os
import stat
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import takewhile
from pathlib import Path

import numpy as np

from lassi import ingest, synth
from lassi.analysis import ExposureRecord, run_risk_exposure
from lassi.ingest import IngestReport
from lassi.metrics import fs_risk_series
from lassi.model import ALL_FIELDS, JobRecord, SampleBlock
from lassi.pipeline import find_job
from lassi.timeutil import DAY, HOUR, floor_day, floor_hour, format_utc, hour_range, parse_utc

BASE_DAY = parse_utc("2017-10-09T00:00:00Z")
REPORT_DAY = BASE_DAY + DAY

_JOB_SEQ = [0]


def reference_parse_utc(text: str) -> int:
    """parse_utc as strptime and a round trip through format_utc read a
    timestamp, without a cache: the reference the regex version is held to."""
    dt = datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)
    value = int(dt.timestamp())
    # strptime also takes single-digit fields such as "2017-10-9T1:2:3Z"
    if format_utc(value) != text:
        raise ValueError(f"time data {text!r} is not exactly YYYY-MM-DDTHH:MM:SSZ")
    return value


def mk_counters(**by_name) -> tuple[int, ...]:
    """A 21-counter vector in ALL_FIELDS order: the named stats, zero elsewhere."""
    vec = [0] * len(ALL_FIELDS)
    for stat, value in by_name.items():
        vec[ALL_FIELDS.index(stat)] = value
    return tuple(vec)


def mk_sample(fs_id, node_id, window_start, **counters) -> tuple:
    """One sample row for mk_block: (fs_id, node_id, window_start, counters)."""
    return (fs_id, node_id, window_start, mk_counters(**counters))


def first_seen_codes(ids) -> tuple[list[str], np.ndarray]:
    """Distinct ids in first-seen order, and each id's position among them."""
    seen: dict[str, int] = {}
    codes = [seen.setdefault(x, len(seen)) for x in ids]
    return list(seen), np.array(codes, np.int32)


def mk_block(rows, window_len=180, fs_id="fs2") -> SampleBlock:
    """A sample block of (fs_id, node_id, window_start, counters) rows in any
    order, all of one filesystem (rows of two raise ValueError); fs_id names
    the filesystem of a block with no rows."""
    rows = list(rows)
    fs_ids = sorted({r[0] for r in rows})
    if len(fs_ids) > 1:
        raise ValueError(f"a sample block holds one filesystem, not {fs_ids}")
    return SampleBlock.from_columns(
        fs_ids[0] if rows else fs_id,
        *first_seen_codes(r[1] for r in rows),
        np.array([r[2] for r in rows], np.int64),
        np.array([r[3] for r in rows], np.int64).reshape(len(rows), len(ALL_FIELDS)),
        window_len,
    )


def fs_blocks(rows, window_len=180) -> list[SampleBlock]:
    """One sample block (mk_block) per filesystem the rows hold, in fs order."""
    rows = list(rows)
    return [
        mk_block([r for r in rows if r[0] == fs_id], window_len)
        for fs_id in sorted({r[0] for r in rows})
    ]


def partitions(*blocks: SampleBlock) -> dict[tuple[str, int], SampleBlock]:
    """The blocks' rows by (fs, UTC day) partition, in key order: what
    parse_stats_csv gives for those rows, and what the store holds."""
    out = {}
    for block in blocks:
        days = block.window - block.window % DAY
        for day in sorted(set(days.tolist())):
            out[block.fs_id, day] = block.take(days == day)
    return dict(sorted(out.items()))


def one_block(parsed: dict) -> SampleBlock:
    """The block of a parse_stats_csv result holding one (fs, day) partition."""
    (block,) = parsed.values()
    return block


_STATS_LINE = "%s,%s,%s" + ",%d" * len(ALL_FIELDS) + "\n"
_SERIALIZE_CHUNK = 4096


def serialize_stats_csv(*blocks: SampleBlock) -> str:
    """Sample blocks in canonical stats form, the rows of all of them in
    (window, fs, node) order, the form parse_stats_csv reads back to the
    blocks' (fs, day) partitions; builds stats file fixtures."""
    blocks = blocks or (mk_block([]),)
    fs_ids = sorted({block.fs_id for block in blocks})
    node_ids = sorted({label for block in blocks for label in block.node_labels})
    node_code = {label: i for i, label in enumerate(node_ids)}
    window = np.concatenate([block.window for block in blocks])
    fs = np.concatenate([np.full(len(b), fs_ids.index(b.fs_id)) for b in blocks])
    node = np.concatenate(
        [np.array([node_code[n] for n in b.node_labels], np.intp)[b.node] for b in blocks]
    )
    counters = np.concatenate([block.counters for block in blocks])
    order = np.lexsort((node, fs, window))
    starts, inverse = np.unique(window[order], return_inverse=True)
    stamps = np.array([format_utc(w) for w in starts.tolist()], dtype=object)[inverse]
    fs = np.array(fs_ids, dtype=object)[fs[order]]
    node = np.array(node_ids, dtype=object)[node[order]]
    counters = counters[order]
    parts = [",".join(ingest.STATS_HEADER) + "\n"]
    for lo in range(0, len(order), _SERIALIZE_CHUNK):
        hi = min(lo + _SERIALIZE_CHUNK, len(order))
        cells = np.empty((hi - lo, 3 + len(ALL_FIELDS)), dtype=object)
        cells[:, 0], cells[:, 1], cells[:, 2] = stamps[lo:hi], fs[lo:hi], node[lo:hi]
        cells[:, 3:] = counters[lo:hi]
        parts.append(_STATS_LINE * (hi - lo) % tuple(cells.ravel().tolist()))
    return "".join(parts)


def stats_stream(text: str) -> io.BytesIO:
    """Stats text as the binary stream parse_stats_csv reads, a lone
    surrogate standing for a byte that is not UTF-8."""
    return io.BytesIO(text.encode("utf-8", "surrogateescape"))


def parse_stats_rows(
    text: str, mode: str, window_len: int
) -> tuple[dict[tuple[str, int], SampleBlock], IngestReport]:
    """The whole stats text through the row loop alone, one line after
    another, the text split at LF and the header at commas: the reference
    every parse_stats_csv path must equal."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    ingest._check_header(lines[0].split(",") if lines else None, ingest.STATS_HEADER)
    with tempfile.TemporaryFile() as spill:
        rows = ingest._StatsRows(mode, window_len, spill)
        rows.row_loop(takewhile(lambda _: not rows.done(), enumerate(lines[1:], 2)))
        spilled = ingest.SpilledStats([spill], [rows.part()], window_len, "the row loop's text")
        report = spilled.report(rows.strict, rows.bad)
        return {key: spilled.partition(*key).block() for key in sorted(spilled.partitions)}, report


def read_samples(store, fs_id, day) -> SampleBlock:
    """fs_id's stored samples of one UTC day, held whole; an empty block
    where none are stored."""
    with store.open_samples(fs_id, day) as stored:
        return stored.block()


def tree(root):
    """Every file under root, lock files too, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def edit_npz(path, drop=(), **arrays) -> None:
    """Rewrite an .npz file with the named arrays dropped, then arrays set."""
    with np.load(path) as npz:
        kept = {name: npz[name] for name in npz.files if name not in drop}
    kept.update(arrays)
    np.savez(path, **kept)


def count_calls(monkeypatch, name) -> list:
    """Wrap ingest.<name> for one test; the returned list grows by one per call."""
    calls = []
    real = getattr(ingest, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(ingest, name, wrapper)
    return calls


def fsync_spy(monkeypatch) -> list:
    """Spy on the store's fsyncs for one test; the list gets "file" or "dir" per call."""
    synced = []
    real = os.fsync

    def spy(fd):
        synced.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
        real(fd)

    monkeypatch.setattr("lassi.store.os.fsync", spy)
    return synced


def fsync_fault(monkeypatch, k: int) -> None:
    """Make the store's k-th fsync of a file, counting from 1, raise OSError for one test."""
    files = 0
    real = os.fsync

    def fault(fd):
        nonlocal files
        if not stat.S_ISDIR(os.fstat(fd).st_mode):
            files += 1
            if files == k:
                raise OSError(errno.EIO, f"fsync of file {k} failed on purpose")
        real(fd)

    monkeypatch.setattr("lassi.store.os.fsync", fault)


def block_rows(block) -> list[tuple]:
    """A sample block as (fs_id, node_id, window_start, counters) rows, ids as strings."""
    return [
        (block.fs_id, block.node_labels[n], w, tuple(vec))
        for n, w, vec in zip(block.node.tolist(), block.window.tolist(), block.counters.tolist())
    ]


def result_dicts(result) -> tuple[dict, dict]:
    """An AttributionResult as dicts of counter tuples: attributed keyed by
    (app_id, fs_id, window_start), unattributed by (fs_id, window_start)."""
    attributed, unattributed = {}, {}
    fs_id = result.fs_id
    for who, w, vec in zip(result.owner.tolist(), result.window.tolist(), result.counters.tolist()):
        if who < 0:
            unattributed[(fs_id, w)] = tuple(vec)
        else:
            attributed[(result.apps[who], fs_id, w)] = tuple(vec)
    return attributed, unattributed


def conservation_errors(block, result) -> list[str]:
    """Window-level check of one filesystem's block: attributed +
    unattributed must equal the inputs."""
    n = len(ALL_FIELDS)
    totals: dict[tuple[str, int], list[int]] = {}
    for fs_id, _, w, vec in block_rows(block):
        slot = totals.setdefault((fs_id, w), [0] * n)
        for i, v in enumerate(vec):
            slot[i] += v

    attributed, unattributed = result_dicts(result)
    recon: dict[tuple[str, int], list[int]] = {}
    parts = [((fs_id, w), vec) for (_, fs_id, w), vec in attributed.items()]
    for key, vec in parts + list(unattributed.items()):
        slot = recon.setdefault(key, [0] * n)
        for i in range(n):
            slot[i] += vec[i]

    problems = []
    for key in sorted(set(totals) | set(recon)):
        got = recon.get(key, [0] * n)
        want = totals.get(key, [0] * n)
        if got != want:
            fs_id, w = key
            for i in range(n):
                if got[i] != want[i]:
                    problems.append(
                        f"{fs_id} window {w} {ALL_FIELDS[i]}: "
                        f"attributed+unattributed {got[i]} != sampled {want[i]}"
                    )
    return problems


def reference_exposures(store, app_id, fs_id=None, alpha=None) -> list[ExposureRecord]:
    """pipeline.exposure_for computed the direct way: a range read of the
    run's own app-hours, one fs_risk_series over its hours, then
    run_risk_exposure. Only filesystems where the app has app-hours in the
    run's hours count unless fs_id names one."""
    job = find_job(store, app_id)
    grid = tuple(hour_range(floor_hour(job.start), job.end))
    t0, t1 = grid[0], grid[-1] + HOUR
    out = []
    for fs in [fs_id] if fs_id else store.list_fs("app_hours"):
        records = store.read_range("app_hours", fs, t0, t1)
        if fs_id is None and not any(r.app_id == app_id for r in records):
            continue
        baseline = store.load_baseline(fs, floor_day(job.start), alpha)
        out.append(run_risk_exposure(job, fs_risk_series(records, baseline, hours=grid)))
    return out


def mk_job(
    app_id,
    nodes,
    start,
    end,
    command="aprun -n 36 ./ft_app.x",
    user="usr01",
    job_id=None,
) -> JobRecord:
    _JOB_SEQ[0] += 1
    return JobRecord(
        app_id=app_id,
        job_id=job_id or f"{9000 + _JOB_SEQ[0]}.sdb",
        user=user,
        start=start,
        end=end,
        nodes=frozenset(nodes) if not isinstance(nodes, frozenset) else nodes,
        command=command,
    )


@dataclass(frozen=True)
class ExposureFixture:
    samples: SampleBlock
    jobs: tuple[JobRecord, ...]
    baseline_period: tuple[int, int]
    report_day: int
    aggressor: str
    expected_oss_by_hour: dict[int, float]
    expected_mds_by_hour: dict[int, float]
    expected_exposure_oss: float
    expected_exposure_mds: float


def build_exposure_fixture(window_len: int = 180) -> ExposureFixture:
    per_hour = HOUR // window_len
    frozen = (2000, 200, 404000, 804000, 812000, 10400, 10800)
    if HOUR % window_len or any(v % per_hour for v in frozen):
        raise ValueError("window_len incompatible with the frozen fixture arithmetic")
    samples: list[tuple] = []

    background = dict(
        read_kb=2000 // per_hour,
        read_ops=200 // per_hour,
        write_kb=2000 // per_hour,
        write_ops=200 // per_hour,
        other=200 // per_hour,
    )
    background.update({stat: 200 // per_hour for stat in ALL_FIELDS[5:]})

    for day in (BASE_DAY, REPORT_DAY):
        for i in range(DAY // window_len):
            samples.append(mk_sample("fs2", "nid00001", day + i * window_len, **background))

    run_start = REPORT_DAY + 10 * HOUR
    run_end = REPORT_DAY + 13 * HOUR
    read_per_window = (404000 // per_hour, 804000 // per_hour, 812000 // per_hour)
    open_per_window = (10400 // per_hour, 10800 // per_hour, 10800 // per_hour)
    for hour_idx in range(3):
        hour_start = run_start + hour_idx * HOUR
        for i in range(per_hour):
            w = hour_start + i * window_len
            samples.append(
                mk_sample(
                    "fs2",
                    "nid00002",
                    w,
                    read_kb=read_per_window[hour_idx],
                    open=open_per_window[hour_idx],
                )
            )
            for node in ("nid00003", "nid00004", "nid00005"):
                samples.append(mk_sample("fs2", node, w, write_kb=2000 // per_hour))

    jobs = tuple(
        mk_job(f"app{i}", [node], run_start, run_end)
        for i, node in enumerate(
            ("nid00002", "nid00003", "nid00004", "nid00005"), start=1
        )
    )

    return ExposureFixture(
        samples=mk_block(samples, window_len),
        jobs=jobs,
        baseline_period=(BASE_DAY, BASE_DAY + DAY),
        report_day=REPORT_DAY,
        aggressor="app1",
        expected_oss_by_hour={run_start: 100.0, run_start + HOUR: 200.0, run_start + 2 * HOUR: 202.0},
        expected_mds_by_hour={run_start: 25.0, run_start + HOUR: 26.0, run_start + 2 * HOUR: 26.0},
        expected_exposure_oss=502.0,
        expected_exposure_mds=77.0,
    )


# two commands of eight tasks over two days; see the file's header
TASKFARM_SCENARIO = Path(__file__).parent / "data" / "taskfarm_scenario.ini"


def reference_stats_csv(scenario) -> str:
    """A scenario's stats.csv written row by row from synth's counter cells,
    each row's cells joined by commas: rows in (window, fs, node) order, a
    node's home-filesystem cell on every window and a cell on another
    filesystem only on windows with a nonzero counter."""
    cells = synth._build_cells(scenario, synth._plan_jobs(scenario))
    fs_ids = scenario.fs_ids
    rows = []
    for (node_i, fs_id), arr in cells.items():
        home = fs_ids[node_i % len(fs_ids)] == fs_id
        for i, vec in enumerate(arr.tolist()):
            if home or any(vec):
                rows.append((i, fs_id, f"nid{node_i:05d}", vec))
    rows.sort(key=lambda row: row[:3])
    lines = [ingest.STATS_HEADER]
    for i, fs_id, node, vec in rows:
        lines.append((format_utc(scenario.start + i * scenario.window_len), fs_id, node, *vec))
    return "".join(",".join(map(str, line)) + "\n" for line in lines)


def scenario_text(
    seed: int = 1,
    days: int = 1,
    node_pool: int = 4,
    filesystems: str = "fs2:48",
    window_len: int = 180,
    background: str = "",
    actors: str = "",
) -> str:
    return (
        "[scenario]\n"
        f"seed = {seed}\n"
        "start = 2017-10-10T00:00:00Z\n"
        f"days = {days}\n"
        f"window_len = {window_len}\n"
        f"node_pool = {node_pool}\n"
        f"filesystems = {filesystems}\n"
        "alpha = 2.0\n"
        + background
        + actors
    )
